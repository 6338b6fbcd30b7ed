"""Coupling families: exact laws, samplers, bounds, and presets."""

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from belllab.cli import build_model
from belllab.core import CANONICAL_ANGLES, CONTEXTS, AngleAssignment, ContextTable, SettingPair
from belllab.couplings import (
    NORM_TOL,
    WEIGHT_EPS,
    ContextualModel,
    DeterministicLHVModel,
    PostSelectionModel,
    QuantumSingletModel,
    StochasticLHVModel,
    _GUIDE_BUCKETS,
    _draw,
    _draw_by,
    _guided_search,
    _law,
    _support,
    deterministic_strategies,
    disjoint_support_model,
    exact_chsh,
    max_deterministic_chsh,
    pearle_model,
    rejection_curve,
    sample_batch,
    statistical_dependence,
)
from belllab.errors import ConfigError
from belllab.rng import stream

from helpers import (
    brute_force_contextual,
    brute_force_postselection,
    contextual_batch_by_context,
    full_cumulative_draw,
    law_moments,
    postselection_batch_by_setting,
    random_contextual_model,
    random_deterministic_model,
    random_postselection_model,
    random_stochastic_model,
    raw_moments,
    reference_moments,
    rotation_invariant_contextual,
)

SQRT2 = math.sqrt(2)
C00 = SettingPair(0, 0)
#: The outcomes in the order of a law's last two axes.
OUTCOMES = np.array([1.0, -1.0, 0.0])


def angles_with_theta(theta):
    return AngleAssignment(alice=(theta, 0.0), bob=(0.0, 0.0))


class TestQuantumSinglet:
    def test_aligned_settings_anticorrelate(self):
        m = QuantumSingletModel(angles=angles_with_theta(0.0))
        assert law_moments(m.law(), C00).e_ab == -1.0

    def test_orthogonal_settings_uncorrelated(self):
        m = QuantumSingletModel(angles=angles_with_theta(math.pi / 2))
        assert law_moments(m.law(), C00).e_ab == pytest.approx(0.0, abs=1e-15)

    def test_canonical_chsh_value(self):
        s = exact_chsh(QuantumSingletModel(angles=CANONICAL_ANGLES))
        assert s == pytest.approx(-2 * SQRT2, abs=1e-12)

    def test_visibility_scales_linearly(self):
        m = QuantumSingletModel(angles=angles_with_theta(0.3), visibility=0.5)
        assert law_moments(m.law(), C00).e_ab == pytest.approx(-0.5 * math.cos(0.3))

    def test_marginals_unbiased_and_lossless(self):
        m = QuantumSingletModel(angles=CANONICAL_ANGLES, visibility=0.7)
        for s in CONTEXTS:
            e = law_moments(m.law(), s)
            assert e.e_a == 0.0 and e.e_b == 0.0 and e.c == 1.0

    def test_sampler_joint_distribution(self):
        # Oracle: the closed-form joint p(a, b) = (1 - V*a*b*cos theta)/4.
        v, theta = 0.6, 0.8
        m = QuantumSingletModel(angles=angles_with_theta(theta), visibility=v)
        n = 200_000
        g = stream(10, "sampling", 0)
        a, b = sample_batch(m, np.zeros(n, dtype=int), np.zeros(n, dtype=int), g)
        for aa in (1, -1):
            for bb in (1, -1):
                expected = (1 - v * aa * bb * math.cos(theta)) / 4
                observed = float(((a == aa) & (b == bb)).mean())
                assert observed == pytest.approx(expected, abs=5 * math.sqrt(expected * (1 - expected) / n))

    def test_perfect_anticorrelation_in_samples(self):
        m = QuantumSingletModel(angles=angles_with_theta(0.0))
        g = stream(3, "sampling", 0)
        a, b = sample_batch(m, np.zeros(500, dtype=int), np.zeros(500, dtype=int), g)
        assert (a == -b).all()

    def test_rejects_bad_visibility(self):
        with pytest.raises(ValueError):
            QuantumSingletModel(angles=CANONICAL_ANGLES, visibility=1.2)


@pytest.mark.parametrize("bad", [-1, 2, 0.7])
def test_sample_batch_rejects_bad_settings(bad):
    # -1 used to index the last row (setting 1) and 0.7 was truncated to 0.
    rng = np.random.default_rng(5)
    models = [
        QuantumSingletModel(angles=CANONICAL_ANGLES),
        random_deterministic_model(rng),
        random_stochastic_model(rng),
        random_contextual_model(rng),
        random_postselection_model(rng),
    ]
    for model in models:
        for x, y in (([0, bad], [0, 1]), ([0, 1], [bad, 1])):
            with pytest.raises(ValueError, match="settings must be in"):
                sample_batch(model, np.array(x), np.array(y), stream(1, "sampling", 0))


class TestDeterministicModel:
    def test_single_strategy_example(self):
        m = DeterministicLHVModel(
            weights=np.array([1.0]),
            alice=np.array([[1], [1]]),
            bob=np.array([[-1], [-1]]),
        )
        for s in CONTEXTS:
            assert law_moments(m.law(), s).e_ab == -1.0
        assert exact_chsh(m) == -2.0

    def test_sampler_is_table_lookup(self):
        rng = np.random.default_rng(0)
        m = random_deterministic_model(rng, n_hidden=4)
        a, b = sample_batch(m, np.array([1]), np.array([0]), stream(5, "sampling", 0))
        assert a[0] in (-1, 1) and b[0] in (-1, 1)
        # With a single hidden value the outcome is forced.
        m1 = DeterministicLHVModel(
            weights=np.array([1.0]),
            alice=np.array([[1], [-1]]),
            bob=np.array([[-1], [1]]),
        )
        for s in CONTEXTS:
            g = stream(1, "sampling", 2 * s.x + s.y)
            a, b = sample_batch(m1, np.full(5, s.x), np.full(5, s.y), g)
            assert (a == m1.alice[s.x, 0]).all() and (b == m1.bob[s.y, 0]).all()

    def test_random_models_respect_local_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = random_deterministic_model(rng)
            assert abs(exact_chsh(m)) <= 2.0 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            DeterministicLHVModel(
                weights=np.array([0.5, 0.6]),
                alice=np.ones((2, 2)),
                bob=np.ones((2, 2)),
            )
        with pytest.raises(ValueError):
            DeterministicLHVModel(
                weights=np.array([1.0]),
                alice=np.array([[2], [1]]),
                bob=np.array([[1], [1]]),
            )


class TestStochasticModel:
    def test_factorized_expectation(self):
        m = StochasticLHVModel(
            weights=np.array([0.25, 0.75]),
            alice_plus=np.array([[1.0, 0.0], [0.5, 0.5]]),
            bob_plus=np.array([[0.0, 1.0], [1.0, 0.0]]),
        )
        # Hand computation: E_ab = sum w * (2pa-1)(2pb-1).
        expected = 0.25 * (1.0 * -1.0) + 0.75 * (-1.0 * 1.0)
        assert law_moments(m.law(), C00).e_ab == pytest.approx(expected)

    def test_random_models_respect_local_bound(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            m = random_stochastic_model(rng)
            assert abs(exact_chsh(m)) <= 2.0 + 1e-12

    def test_sampler_converges_to_exact(self):
        rng = np.random.default_rng(2)
        m = random_stochastic_model(rng, n_hidden=3)
        exact = law_moments(m.law(), C00).e_ab
        n = 200_000
        a, b = sample_batch(m, np.zeros(n, dtype=int), np.zeros(n, dtype=int), stream(8, "sampling", 0))
        est = float((a * b).mean())
        sigma = math.sqrt((1 - exact**2) / n)
        assert est == pytest.approx(exact, abs=5 * sigma)


class TestContextualModel:
    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            m = random_contextual_model(rng)
            for s in CONTEXTS:
                e_ab, e_a, e_b = brute_force_contextual(m, s)
                law = m.law()
                got = law_moments(law, s)
                assert got.e_ab == pytest.approx(e_ab, abs=1e-12)
                assert got.e_a == pytest.approx(e_a, abs=1e-12)
                assert got.e_b == pytest.approx(e_b, abs=1e-12)
                # C = 1: no mass on a 0 outcome.
                assert not law[s.x, s.y, 2].any() and not law[s.x, s.y, :, 2].any()

    def test_two_point_instance_by_hand(self):
        # Two source values (perfectly correlated), one instrument value each:
        # reduces to a deterministic model, summed by hand.
        src = np.array([[0.5, 0.0], [0.0, 0.5]])
        iw = np.ones((2, 2, 1, 1))
        alice = np.array([[[1], [-1]], [[1], [1]]])  # [x][k1][mu]
        bob = np.array([[[1], [1]], [[-1], [1]]])
        m = ContextualModel(source_weights=src, instrument_weights=iw, alice=alice, bob=bob)
        e = law_moments(m.law(), SettingPair(0, 1))
        # E = 0.5 * A_0(k=0) B_1(k=0) + 0.5 * A_0(k=1) B_1(k=1) = 0.5*(1*-1) + 0.5*(-1*1)
        assert e.e_ab == pytest.approx(-1.0)

    def test_statistical_independence_implies_local_bound(self):
        # With identical instrument tables across contexts the model is an
        # ordinary hidden-variable coupling, so |S| <= 2.
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = random_contextual_model(rng)
            shared = m.instrument_weights[0, 0]
            iw = np.broadcast_to(shared, (2, 2) + shared.shape).copy()
            si_model = ContextualModel(
                source_weights=m.source_weights,
                instrument_weights=iw,
                alice=m.alice,
                bob=m.bob,
            )
            assert statistical_dependence(si_model) == 0.0
            assert abs(exact_chsh(si_model)) <= 2.0 + 1e-12

    def test_sampler_converges_to_exact(self):
        rng = np.random.default_rng(4)
        m = random_contextual_model(rng)
        s = SettingPair(1, 1)
        exact = law_moments(m.law(), s).e_ab
        n = 200_000
        a, b = sample_batch(m, np.full(n, 1), np.full(n, 1), stream(12, "sampling", 0))
        sigma = math.sqrt((1 - exact**2) / n)
        assert float((a * b).mean()) == pytest.approx(exact, abs=5 * sigma)


class TestPostSelectionModel:
    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(200)
        checked = 0
        for _ in range(10):
            m = random_postselection_model(rng)
            for s in CONTEXTS:
                e_ab, e_a, e_b, c = brute_force_postselection(m, s)
                got = law_moments(m.law(), s)
                assert got.c == pytest.approx(c, abs=1e-12)
                if e_ab is None:
                    assert got.e_ab is None
                else:
                    checked += 1
                    assert got.e_ab == pytest.approx(e_ab, abs=1e-12)
                    assert got.e_a == pytest.approx(e_a, abs=1e-12)
                    assert got.e_b == pytest.approx(e_b, abs=1e-12)
        assert checked > 0

    def test_raw_marginals_independent_of_remote_setting(self):
        rng = np.random.default_rng(300)
        for _ in range(20):
            m = random_postselection_model(rng)
            for x in (0, 1):
                raw0 = raw_moments(m, SettingPair(x, 0))
                raw1 = raw_moments(m, SettingPair(x, 1))
                assert raw0[1] == pytest.approx(raw1[1], abs=1e-12)  # E[A] free of y
            for y in (0, 1):
                raw0 = raw_moments(m, SettingPair(0, y))
                raw1 = raw_moments(m, SettingPair(1, y))
                assert raw0[2] == pytest.approx(raw1[2], abs=1e-12)  # E[B] free of x

    def test_starved_context_returns_undefined(self):
        m = PostSelectionModel(
            source_weights=np.array([[1.0]]),
            alice_instrument=np.ones((2, 1)),
            bob_instrument=np.ones((2, 1)),
            alice=np.array([[[1]], [[0]]]),  # setting 1 never detects
            bob=np.array([[[1]], [[1]]]),
        )
        starved = law_moments(m.law(), SettingPair(1, 0))
        assert starved.e_ab is None and starved.c == 0.0
        fine = law_moments(m.law(), SettingPair(0, 0))
        assert fine.e_ab == 1.0 and fine.c == 1.0

    def test_all_starved_model_rejected(self):
        with pytest.raises(ValueError):
            PostSelectionModel(
                source_weights=np.array([[1.0]]),
                alice_instrument=np.ones((2, 1)),
                bob_instrument=np.ones((2, 1)),
                alice=np.zeros((2, 1, 1), dtype=int),
                bob=np.ones((2, 1, 1), dtype=int),
            )

    def test_sampler_converges_to_exact_conditional(self):
        rng = np.random.default_rng(6)
        m = random_postselection_model(rng, n1=3, n2=2)
        s = SettingPair(0, 1)
        exact = law_moments(m.law(), s)
        n = 300_000
        a, b = sample_batch(m, np.full(n, s.x), np.full(n, s.y), stream(21, "sampling", 0))
        prod = (a.astype(float) * b.astype(float))
        kept = prod != 0
        c_hat = float(kept.mean())
        assert c_hat == pytest.approx(exact.c, abs=5 * math.sqrt(exact.c * (1 - exact.c) / n))
        if exact.e_ab is not None and kept.sum() > 1000:
            e_hat = float(prod[kept].mean())
            sigma = math.sqrt((1 - exact.e_ab**2) / kept.sum())
            assert e_hat == pytest.approx(exact.e_ab, abs=5 * sigma)


class TestLawMessages:
    def test_instrument_law_names_its_context(self):
        iw = np.full((2, 2, 1, 2), 0.5)
        iw[1, 0, 0, 1] = 0.25
        with pytest.raises(ValueError, match=r"instrument_weights for context 10 must sum to 1, got 0\.75"):
            ContextualModel(
                source_weights=np.array([[1.0]]),
                instrument_weights=iw,
                alice=np.ones((2, 1, 1), dtype=int),
                bob=np.ones((2, 1, 2), dtype=int),
            )

    def test_instrument_law_names_its_setting(self):
        with pytest.raises(ValueError, match=r"bob_instrument for setting 1 must sum to 1, got 0\.75"):
            PostSelectionModel(
                source_weights=np.array([[1.0]]),
                alice_instrument=np.ones((2, 1)),
                bob_instrument=np.array([[0.5, 0.5], [0.5, 0.25]]),
                alice=np.ones((2, 1, 1), dtype=int),
                bob=np.ones((2, 1, 2), dtype=int),
            )


class TestDeterministicBound:
    def test_max_is_exactly_two(self):
        assert max_deterministic_chsh() == 2.0

    def test_all_plus_strategy(self):
        table = dict(deterministic_strategies())
        assert table[(1, 1, 1, 1)] == 2.0

    def test_every_strategy_value_in_zero_two(self):
        # Oracle: direct enumeration of the 16 sign patterns. For the CHSH
        # combination S = a0(b0+b1) + a1(b0-b1), one bracket is always 0 and
        # the other +/-2, so every strategy lands on the bound exactly.
        values = [abs(s) for _, s in deterministic_strategies()]
        assert len(values) == 16
        assert all(v in (0.0, 2.0) for v in values)
        assert max(values) == 2.0


class TestStatisticalDependence:
    def test_identical_tables_give_zero(self):
        rng = np.random.default_rng(1)
        m = random_contextual_model(rng)
        shared = m.instrument_weights[1, 1]
        iw = np.broadcast_to(shared, (2, 2) + shared.shape).copy()
        si = ContextualModel(m.source_weights, iw, m.alice, m.bob)
        assert statistical_dependence(si) == 0.0

    def test_disjoint_supports_give_one(self):
        iw = np.zeros((2, 2, 4, 1))
        for i, s in enumerate(CONTEXTS):
            iw[s.x, s.y, i, 0] = 1.0
        m = ContextualModel(
            source_weights=np.array([[1.0]]),
            instrument_weights=iw,
            alice=np.ones((2, 1, 4), dtype=int),
            bob=np.ones((2, 1, 1), dtype=int),
        )
        assert statistical_dependence(m) == 1.0

    def test_hand_computed_tv_distance(self):
        # Two contexts share a table; the off pair differs by TV = 0.25.
        t1 = np.array([[0.5, 0.25], [0.25, 0.0]])
        t2 = np.array([[0.25, 0.25], [0.25, 0.25]])
        iw = np.zeros((2, 2, 2, 2))
        for s in CONTEXTS:
            iw[s.x, s.y] = t2 if (s.x, s.y) == (1, 1) else t1
        m = ContextualModel(
            source_weights=np.array([[1.0]]),
            instrument_weights=iw,
            alice=np.ones((2, 1, 2), dtype=int),
            bob=np.ones((2, 1, 2), dtype=int),
        )
        # TV(t1, t2) = 0.5 * (0.25 + 0 + 0 + 0.25) = 0.25
        assert statistical_dependence(m) == pytest.approx(0.25)


class TestPresets:
    def test_disjoint_support_reaches_four_exactly(self):
        m = disjoint_support_model()
        assert exact_chsh(m) == 4.0
        for s in CONTEXTS:
            e = law_moments(m.law(), s)
            assert e.c == pytest.approx(0.25)
            assert abs(e.e_ab) == 1.0

    def test_disjoint_support_raw_no_signalling(self):
        m = disjoint_support_model()
        for x in (0, 1):
            assert raw_moments(m, SettingPair(x, 0))[1] == raw_moments(m, SettingPair(x, 1))[1]
        for y in (0, 1):
            assert raw_moments(m, SettingPair(0, y))[2] == raw_moments(m, SettingPair(1, y))[2]

    def test_pearle_exceeds_local_bound_after_selection(self):
        m = pearle_model(CANONICAL_ANGLES)
        s = exact_chsh(m)
        assert abs(s) > 2.0
        assert statistical_dependence(m) == 0.0
        for ctx in CONTEXTS:
            e = law_moments(m.law(), ctx)
            assert 0.0 < e.c < 1.0

    def test_pearle_rejection_strength_monotone(self):
        weak = pearle_model(CANONICAL_ANGLES, rejection_curve("linear", max_reject=0.2))
        strong = pearle_model(CANONICAL_ANGLES, rejection_curve("linear", max_reject=0.9))
        assert abs(exact_chsh(strong)) > abs(exact_chsh(weak))

    def test_pearle_no_rejection_saturates_local_bound(self):
        # With nothing rejected the preset is the deterministic sign model,
        # whose sawtooth correlation saturates |S| = 2 at the canonical angles.
        m = pearle_model(CANONICAL_ANGLES, rejection_curve("linear", max_reject=0.0))
        assert abs(exact_chsh(m)) == pytest.approx(2.0, abs=0.02)
        for ctx in CONTEXTS:
            assert law_moments(m.law(), ctx).c == pytest.approx(1.0)

    def test_pearle_rejects_nan_rejection(self):
        # NaN passes a check for entries below 0 or above 1, and no threshold
        # is >= NaN, so every response of a NaN bin would silently become 0.
        with pytest.raises(ValueError, match="rejection curve entries must be finite"):
            pearle_model(CANONICAL_ANGLES, rejection=lambda c: np.where(c < 0.5, np.nan, 0.0))

    def test_rotation_invariant_constructor_depends_on_theta_only(self):
        def law(theta):
            p = (1 + math.cos(theta)) / 2
            return np.array([[p, 0.0], [0.0, 1 - p]])

        # Two contexts share theta = pi/4 at these angles, so their tables match.
        angles = AngleAssignment(alice=(0.0, math.pi / 2), bob=(-math.pi / 4, math.pi / 4))
        m = rotation_invariant_contextual(
            source_weights=np.array([[1.0]]),
            alice=np.ones((2, 1, 2), dtype=int),
            bob=np.array([[[1, -1]], [[1, -1]]]),
            angles=angles,
            instrument_law=law,
        )
        np.testing.assert_allclose(
            m.instrument_weights[0, 0], m.instrument_weights[1, 1], atol=1e-15
        )
        assert statistical_dependence(m) > 0.0


class TestMomentBounds:
    def test_every_family_respects_moment_ranges(self):
        rng = np.random.default_rng(404)
        models = [QuantumSingletModel(angles=CANONICAL_ANGLES, visibility=0.4)]
        for _ in range(10):
            models.append(random_deterministic_model(rng))
            models.append(random_stochastic_model(rng))
            models.append(random_contextual_model(rng))
            models.append(random_postselection_model(rng))
        for model in models:
            for s in CONTEXTS:
                m = law_moments(model.law(), s)
                assert 0.0 <= m.c <= 1.0 + 1e-12
                for value in (m.e_ab, m.e_a, m.e_b):
                    if value is not None:
                        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12

    def test_singlet_grid_bound_scales_with_visibility(self):
        v = 0.7
        grid = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
        worst = 0.0
        for a0 in grid:
            for a1 in grid:
                for b0 in grid:
                    for b1 in grid:
                        m = QuantumSingletModel(
                            angles=AngleAssignment(alice=(a0, a1), bob=(b0, b1)),
                            visibility=v,
                        )
                        worst = max(worst, abs(exact_chsh(m)))
        assert worst <= 2 * SQRT2 * v + 1e-9


class TestMonteCarloAgreement:
    def test_million_draw_deviation_under_five_sigma(self):
        # Spec invariant: n = 1e6 draws match the exact law within 5 sigma, here
        # in all nine cells of every context, the 0 (no detection) cells included.
        models = [
            QuantumSingletModel(angles=angles_with_theta(math.pi / 4)),
            random_deterministic_model(np.random.default_rng(1)),
            random_stochastic_model(np.random.default_rng(2)),
            random_contextual_model(np.random.default_rng(3)),
            random_postselection_model(np.random.default_rng(4)),
        ]
        n = 1_000_000
        for i, model in enumerate(models):
            g = stream(100 + i, "sampling", 0)
            x = g.integers(0, 2, n, dtype=np.int8)
            y = g.integers(0, 2, n, dtype=np.int8)
            table = ContextTable.from_arrays(x, y, *sample_batch(model, x, y, g))
            trials, law = table.counts.sum(axis=(2, 3), keepdims=True), model.law()
            sigma = np.sqrt(trials * law * (1.0 - law))
            assert (np.abs(table.counts - trials * law) <= 5 * sigma + 1e-9).all()

    def test_singlet_quarter_pi_example(self):
        m = QuantumSingletModel(angles=angles_with_theta(math.pi / 4))
        n = 1_000_000
        a, b = sample_batch(m, np.zeros(n, dtype=int), np.zeros(n, dtype=int), stream(55, "sampling", 0))
        est = float((a * b).mean())
        target = -SQRT2 / 2
        sigma = math.sqrt((1 - target**2) / n)
        assert est == pytest.approx(target, abs=4 * sigma)


def local_model(family: str, rng: np.random.Generator):
    """A random member of a local family, or a preset, with zero outcomes where it has them."""
    if family == "deterministic":
        return random_deterministic_model(rng)
    if family == "stochastic":
        return random_stochastic_model(rng)
    if family == "postselection":
        return random_postselection_model(rng)
    if family == "pearle":
        theta = rng.uniform(0, 2 * math.pi, 4)
        return pearle_model(AngleAssignment(alice=tuple(theta[:2]), bob=tuple(theta[2:])))
    return disjoint_support_model()


FAMILIES = ["singlet", "deterministic", "stochastic", "contextual", "postselection", "pearle", "disjoint_support", "starved"]
#: The families whose responses may be 0 ("no detection").
ZERO_OUTCOME_FAMILIES = ("postselection", "pearle", "disjoint_support", "starved")


def family_model(family: str, rng: np.random.Generator):
    """A random member of any family, or a preset; "starved" is a post-selection model whose
    contexts (1, 0) and (1, 1) retain nothing, as Alice never detects at setting 1."""
    if family == "starved":
        m = random_postselection_model(rng)
        alice = np.stack([np.where(m.alice[0] == 0, 1, m.alice[0]), 0 * m.alice[1]])
        return dataclasses.replace(m, alice=alice, bob=np.where(m.bob == 0, -1, m.bob))
    if family == "singlet":
        theta = rng.uniform(0, 2 * math.pi, 4)
        angles = AngleAssignment(alice=tuple(theta[:2]), bob=tuple(theta[2:]))
        return QuantumSingletModel(angles=angles, visibility=rng.uniform())
    if family == "contextual":
        return random_contextual_model(rng)
    return local_model(family, rng)


@given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_law_moments_match_the_reference_moments(family, seed):
    """E_ab, E_a, E_b and C read from ``law()`` are each family's closed-form moments."""
    model = family_model(family, np.random.default_rng(seed))
    law = model.law()
    for s in CONTEXTS:
        got, want = law_moments(law, s), reference_moments(model, s)
        assert (got.e_ab is None) == (want.e_ab is None)  # a starved context starves in both
        assert abs(got.c - want.c) <= 1e-15
        if want.e_ab is not None:
            for g, w in ((got.e_ab, want.e_ab), (got.e_a, want.e_a), (got.e_b, want.e_b)):
                assert abs(g - w) <= 1e-15


@given(st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_every_law_is_a_read_only_distribution_per_context(family, seed):
    """A (2, 2, 3, 3) float table, nonnegative, summing to 1 in each context.

    Only post-selection models have 0 ("no detection") outcomes; in every
    other family the 0 row and column are empty.
    """
    law = family_model(family, np.random.default_rng(seed)).law()
    assert law.shape == (2, 2, 3, 3) and law.dtype == np.float64 and not law.flags.writeable
    assert (law >= 0.0).all()
    assert np.abs(law.sum(axis=(2, 3)) - 1.0).max() <= NORM_TOL
    if family not in ZERO_OUTCOME_FAMILIES:
        assert not law[:, :, 2, :].any() and not law[:, :, :, 2].any()


@given(
    st.sampled_from(["deterministic", "stochastic", "postselection", "pearle", "disjoint_support"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60)
def test_raw_marginals_do_not_signal(family, seed):
    """Each station's raw marginal, zeros kept, is free of the remote setting."""
    model = local_model(family, np.random.default_rng(seed))

    def exact(s):  # E[A], E[B] over all trials, zeros included, from the law
        law = model.law()[s.x, s.y]
        return float(law.sum(axis=1) @ OUTCOMES), float(OUTCOMES @ law.sum(axis=0))

    n = 20_000
    drawn = {
        s: sample_batch(model, np.full(n, s.x), np.full(n, s.y), stream(seed, "sampling", i))
        for i, s in enumerate(CONTEXTS)
    }
    for u in (0, 1):
        # Station A at setting u in contexts (u, 0) and (u, 1); B at u in (0, u) and (1, u).
        a_pair, b_pair = (SettingPair(u, 0), SettingPair(u, 1)), (SettingPair(0, u), SettingPair(1, u))
        for station, pair in ((0, a_pair), (1, b_pair)):
            assert exact(pair[0])[station] == pytest.approx(exact(pair[1])[station], abs=1e-12)
            for v in (-1, 0, 1):
                k1, k2 = (int((drawn[s][station] == v).sum()) for s in pair)
                p = (k1 + k2) / (2 * n)  # pooled under no signalling
                assert abs(k1 - k2) / n <= 5 * math.sqrt(2 * p * (1 - p) / n)


@given(
    st.integers(1, 4),
    st.sampled_from(["spread", "point_mass", "one_entry", "skewed"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300)
def test_draw_over_the_support_matches_the_full_cumulative(ndim, kind, short, seed):
    """``_draw`` returns the oracle's indices, zero runs and tiny negatives included.

    The uniforms include every guide-table bucket edge k/K and the floats on
    each side of it. A skewed law, and a batch shorter than K, take the binary
    search instead; both paths must give the oracle's indices.
    """
    rng = np.random.default_rng(seed)
    shape = {
        "one_entry": (1,) * ndim,
        "skewed": (1,) * (ndim - 1) + (200,),
    }.get(kind, tuple(int(k) for k in rng.integers(1, 6, size=ndim)))
    n = math.prod(shape)
    flat = np.zeros(n)
    if kind in ("point_mass", "one_entry"):
        flat[rng.integers(n)] = 1.0
    elif kind == "skewed":
        flat[:] = rng.dirichlet(np.full(n, 0.1))
    else:
        flat[:] = rng.random(n) + 0.01
        # Runs of zeros at the start, in the middle and at the end.
        start, end = rng.integers(0, n // 3 + 1, size=2)
        mid = int(rng.integers(0, n))
        flat[:start] = 0.0
        flat[mid : mid + int(rng.integers(0, n // 3 + 1))] = 0.0
        flat[n - end :] = 0.0
        if not (flat > 0).any():
            flat[rng.integers(n)] = 1.0
        flat /= flat.sum()
    zeros = np.flatnonzero(flat == 0.0)
    tiny = rng.choice(zeros, size=len(zeros) // 2, replace=False)
    flat[tiny] = -WEIGHT_EPS * (1.0 - rng.random(len(tiny)))  # in [-WEIGHT_EPS, 0)
    law = _law("law", flat.reshape(shape), ndim)
    # Uniforms on each partial sum of the normalized law and one float below it.
    partial = np.cumsum(np.clip(law.ravel(), 0.0, None))
    partial /= partial[-1]
    partial = partial[partial < 1.0]
    # The bucket edges of the guide table, and the floats on each side of them.
    k = _GUIDE_BUCKETS * int((law > 0.0).sum())
    edges = np.arange(k) / k
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    ends = [0.0, np.nextafter(1.0, 0.0)]
    u = np.concatenate([rng.random(64), partial, np.nextafter(partial, 0.0), edges, ends])
    if short:
        u = rng.choice(u, size=k - 1, replace=False)
    guided = _guided_search(_support(law)[1][None], u)
    if short or kind == "skewed":
        assert guided is None
    elif kind != "spread":
        assert guided is not None
    got, want = _draw(law, u), full_cumulative_draw(law, u)
    assert len(got) == ndim
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def reshaped_laws(laws, kind, rng):
    """A copy of ``laws``, one per label on the leading axis: as given, with ``label`` zero
    entries in the law of each label (unequal supports), or with one label's law a point mass."""
    laws = laws.copy()
    flat = laws.reshape(len(laws), -1)
    if kind == "unequal_support":
        for label, row in enumerate(flat):
            row[rng.choice(row.size, size=min(label, row.size - 1), replace=False)] = 0.0
            row /= row.sum()
    elif kind == "point_mass":
        label = rng.integers(len(flat))
        flat[label] = 0.0
        flat[label, rng.integers(flat.shape[1])] = 1.0
    return laws


@given(
    st.sampled_from(["contextual", "postselection"]),
    st.sampled_from(["mixed", "context_missing", "one_setting", "one_row", "empty"]),
    st.sampled_from(["distinct", "unequal_support", "point_mass", "pearle"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300)
def test_instrument_draw_by_label_matches_the_loops(family, batch, laws, seed):
    """The instrument families draw as their per-context and per-setting loops did.

    The laws of the labels may differ in support size, one may be a point
    mass, and the Pearle preset's two 64-entry laws are drawn on batches on
    both sides of its guide table's 256 buckets.
    """
    rng = np.random.default_rng(seed)
    n1, n2, mx, my = (int(k) for k in rng.integers([1, 1, 2, 2], [4, 4, 5, 5]))
    if laws == "pearle":
        model = pearle_model(CANONICAL_ANGLES, bins=32)
        reference = postselection_batch_by_setting
    elif family == "contextual":
        model = random_contextual_model(rng, n1, n2, mx, my)
        stacked = reshaped_laws(model.instrument_weights.reshape(4, mx, my), laws, rng)
        model = dataclasses.replace(model, instrument_weights=stacked.reshape(2, 2, mx, my))
        reference = contextual_batch_by_context
        # Four distinct laws: a draw from another context's law changes the indices.
        stacked = model.instrument_weights.reshape(4, -1)
        assert all(not np.array_equal(p, q) for p, q in itertools.combinations(stacked, 2))
    else:
        model = random_postselection_model(rng, n1, n2, mx, my)
        alice, bob = (reshaped_laws(law, laws, rng) for law in (model.alice_instrument, model.bob_instrument))
        try:
            model = dataclasses.replace(model, alice_instrument=alice, bob_instrument=bob)
        except ValueError:  # the zeroed entries starve every context
            assume(False)
        reference = postselection_batch_by_setting
        for law in (model.alice_instrument, model.bob_instrument):
            assert not np.array_equal(law[0], law[1])
    most = 1000 if laws == "pearle" else 400
    n = {"one_row": 1, "empty": 0}.get(batch, int(rng.integers(40, most)))
    x, y = rng.integers(0, 2, size=(2, n)).astype(np.int8)
    if batch == "context_missing":
        s = CONTEXTS[rng.integers(4)]
        x, y = (v[(x != s.x) | (y != s.y)] for v in (x, y))
    elif batch == "one_setting":
        x[:] = rng.integers(2)
    got = sample_batch(model, x, y, np.random.default_rng(seed + 1))
    want = reference(model, x, y, np.random.default_rng(seed + 1))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_pearle_draw_makes_no_law_sized_temporary():
    """A draw from the Pearle source law allocates under half the law's size."""
    law = pearle_model(CANONICAL_ANGLES).source_weights
    u = stream(1, "sampling").random(2**16)
    tracemalloc.start()
    try:
        _draw(law, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < law.nbytes / 2, (peak, law.nbytes)


def test_pearle_instrument_draw_by_label_holds_under_20_bytes_per_uniform():
    """A draw from the Pearle instrument laws by setting label works in place.

    It holds an index, a float and a flag per uniform, and the index array it
    returns; one mask, gather and scatter per label would hold more.
    """
    laws = pearle_model(CANONICAL_ANGLES).alice_instrument
    u = stream(1, "sampling").random(2**16)
    labels = (stream(2, "sampling").random(len(u)) < 0.5).astype(np.int8)
    tracemalloc.start()
    try:
        _draw_by(laws, labels, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * len(u), f"{peak / len(u):.1f} B per uniform"


#: The four tabulated families and the classes ``build_model`` makes of them.
TABULATED = {
    "deterministic_lhv": DeterministicLHVModel,
    "stochastic_lhv": StochasticLHVModel,
    "contextual": ContextualModel,
    "post_selection": PostSelectionModel,
}
CORRUPTIONS = ("scalar", "empty", "rank", "nan", "inf", "-inf", "negative", "shift")


def tabulated_spec(family, rng):
    """A valid JSON spec of ``family`` with 1 to 3 values per hidden-variable axis."""
    n1, n2, mx, my = (int(k) for k in rng.integers(1, 4, size=4))

    def law(*shape):
        return rng.dirichlet(np.ones(math.prod(shape))).reshape(shape).tolist()

    def signs(*shape):
        return rng.choice([-1, 1], size=shape).tolist()

    if family == "deterministic_lhv":
        fields = {"weights": law(n1), "alice": signs(2, n1), "bob": signs(2, n1)}
    elif family == "stochastic_lhv":
        plus = rng.random((2, 2, n1)).tolist()
        fields = {"weights": law(n1), "alice_plus": plus[0], "bob_plus": plus[1]}
    elif family == "contextual":
        fields = {
            "source_weights": law(n1, n2),
            "instrument_weights": {s.key(): law(mx, my) for s in CONTEXTS},
            "alice": signs(2, n1, mx),
            "bob": signs(2, n2, my),
        }
    else:
        fields = {
            "source_weights": law(n1, n2),
            "alice_instrument": [law(mx), law(mx)],
            "bob_instrument": [law(my), law(my)],
            "alice": signs(2, n1, mx),
            "bob": signs(2, n2, my),
        }
    return {"family": family, **fields}


def corrupt(value, kind, shift, rng):
    """``value`` made 0-d, empty or of another rank, or with one entry replaced or shifted."""
    if kind == "scalar":
        return 1.0
    if kind == "empty":
        return []
    if kind == "rank":
        return [value] if rng.random() < 0.5 else value[0]
    table = np.array(value, dtype=np.float64)
    flat = table.reshape(-1)
    i = rng.integers(flat.size)
    flat[i] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "negative": -0.5}.get(kind, flat[i] + shift)
    return table.tolist()


@given(
    st.sampled_from(sorted(TABULATED)),
    st.integers(0, 2**32 - 1),
    st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(CORRUPTIONS), st.sampled_from([-0.1, -2e-9, 2e-9, 1e-6, 0.1])),
        max_size=3,
    ),
)
@settings(max_examples=300)
def test_build_model_names_the_field_of_a_bad_table(family, seed, corruptions):
    """A tabulated spec builds, or fails with a ConfigError naming one of its bad fields."""
    rng = np.random.default_rng(seed)
    spec = tabulated_spec(family, rng)
    names = [f.name for f in dataclasses.fields(TABULATED[family])]
    bad, must_fail = set(), False
    for index, kind, shift in corruptions:
        name = names[index % len(names)]
        if name in bad:
            continue  # a second change could undo the first
        if name == "instrument_weights":
            key = CONTEXTS[int(rng.integers(4))].key()
            spec[name][key] = corrupt(spec[name][key], kind, shift, rng)
        else:
            spec[name] = corrupt(spec[name], kind, shift, rng)
        bad.add(name)
        # A shifted P(+1) entry can still be a probability.
        must_fail |= not (kind == "shift" and name in ("alice_plus", "bob_plus"))
    spec = json.loads(json.dumps(spec))  # as a config file holds it, NaN and Infinity included
    try:
        model = build_model(spec, "model")
    except ConfigError as e:
        assert bad, str(e)
        prefixes = [f"model.{name}: " for name in bad] + [f"model: {name} " for name in bad]
        assert str(e).startswith(tuple(prefixes)), str(e)
    else:
        assert not must_fail
        assert isinstance(model, TABULATED[family])
