"""Coupling families: exact laws, samplers, bounds, and presets."""

import math

import numpy as np
import pytest

from belllab.core import CANONICAL_ANGLES, CONTEXTS, AngleAssignment, SettingPair
from belllab.couplings import (
    ContextualModel,
    DeterministicLHVModel,
    PostSelectionModel,
    QuantumSingletModel,
    StochasticLHVModel,
    deterministic_strategies,
    disjoint_support_model,
    exact_chsh,
    max_deterministic_chsh,
    pearle_model,
    rejection_curve,
    rotation_invariant_contextual,
    sample_batch,
    statistical_dependence,
)
from belllab.rng import stream

from helpers import (
    brute_force_contextual,
    brute_force_postselection,
    random_contextual_model,
    random_deterministic_model,
    random_postselection_model,
    random_stochastic_model,
)

SQRT2 = math.sqrt(2)
C00 = SettingPair(0, 0)


def angles_with_theta(theta):
    return AngleAssignment(alice=(theta, 0.0), bob=(0.0, 0.0))


class TestQuantumSinglet:
    def test_aligned_settings_anticorrelate(self):
        m = QuantumSingletModel(angles=angles_with_theta(0.0))
        assert m.exact_expectation(C00).e_ab == -1.0

    def test_orthogonal_settings_uncorrelated(self):
        m = QuantumSingletModel(angles=angles_with_theta(math.pi / 2))
        assert m.exact_expectation(C00).e_ab == pytest.approx(0.0, abs=1e-15)

    def test_canonical_chsh_value(self):
        s = exact_chsh(QuantumSingletModel(angles=CANONICAL_ANGLES))
        assert s == pytest.approx(-2 * SQRT2, abs=1e-12)

    def test_visibility_scales_linearly(self):
        m = QuantumSingletModel(angles=angles_with_theta(0.3), visibility=0.5)
        assert m.exact_expectation(C00).e_ab == pytest.approx(-0.5 * math.cos(0.3))

    def test_marginals_unbiased_and_lossless(self):
        m = QuantumSingletModel(angles=CANONICAL_ANGLES, visibility=0.7)
        for s in CONTEXTS:
            e = m.exact_expectation(s)
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


class TestDeterministicModel:
    def test_single_strategy_example(self):
        m = DeterministicLHVModel(
            weights=np.array([1.0]),
            alice=np.array([[1], [1]]),
            bob=np.array([[-1], [-1]]),
        )
        for s in CONTEXTS:
            assert m.exact_expectation(s).e_ab == -1.0
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
        assert m.exact_expectation(C00).e_ab == pytest.approx(expected)

    def test_random_models_respect_local_bound(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            m = random_stochastic_model(rng)
            assert abs(exact_chsh(m)) <= 2.0 + 1e-12

    def test_sampler_converges_to_exact(self):
        rng = np.random.default_rng(2)
        m = random_stochastic_model(rng, n_hidden=3)
        exact = m.exact_expectation(C00).e_ab
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
                got = m.exact_expectation(s)
                assert got.e_ab == pytest.approx(e_ab, abs=1e-12)
                assert got.e_a == pytest.approx(e_a, abs=1e-12)
                assert got.e_b == pytest.approx(e_b, abs=1e-12)
                assert got.c == 1.0

    def test_two_point_instance_by_hand(self):
        # Two source values (perfectly correlated), one instrument value each:
        # reduces to a deterministic model, summed by hand.
        src = np.array([[0.5, 0.0], [0.0, 0.5]])
        iw = np.ones((2, 2, 1, 1))
        alice = np.array([[[1], [-1]], [[1], [1]]])  # [x][k1][mu]
        bob = np.array([[[1], [1]], [[-1], [1]]])
        m = ContextualModel(source_weights=src, instrument_weights=iw, alice=alice, bob=bob)
        e = m.exact_expectation(SettingPair(0, 1))
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
        exact = m.exact_expectation(s).e_ab
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
                got = m.exact_expectation(s)
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
                raw0 = m.raw_moments(SettingPair(x, 0))
                raw1 = m.raw_moments(SettingPair(x, 1))
                assert raw0[1] == pytest.approx(raw1[1], abs=1e-12)  # E[A] free of y
            for y in (0, 1):
                raw0 = m.raw_moments(SettingPair(0, y))
                raw1 = m.raw_moments(SettingPair(1, y))
                assert raw0[2] == pytest.approx(raw1[2], abs=1e-12)  # E[B] free of x

    def test_starved_context_returns_undefined(self):
        m = PostSelectionModel(
            source_weights=np.array([[1.0]]),
            alice_instrument=np.ones((2, 1)),
            bob_instrument=np.ones((2, 1)),
            alice=np.array([[[1]], [[0]]]),  # setting 1 never detects
            bob=np.array([[[1]], [[1]]]),
        )
        starved = m.exact_expectation(SettingPair(1, 0))
        assert starved.e_ab is None and starved.c == 0.0
        fine = m.exact_expectation(SettingPair(0, 0))
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
        exact = m.exact_expectation(s)
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
            e = m.exact_expectation(s)
            assert e.c == pytest.approx(0.25)
            assert abs(e.e_ab) == 1.0

    def test_disjoint_support_raw_no_signalling(self):
        m = disjoint_support_model()
        for x in (0, 1):
            assert m.raw_moments(SettingPair(x, 0))[1] == m.raw_moments(SettingPair(x, 1))[1]
        for y in (0, 1):
            assert m.raw_moments(SettingPair(0, y))[2] == m.raw_moments(SettingPair(1, y))[2]

    def test_pearle_exceeds_local_bound_after_selection(self):
        m = pearle_model(CANONICAL_ANGLES)
        s = exact_chsh(m)
        assert abs(s) > 2.0
        assert statistical_dependence(m) == 0.0
        for ctx in CONTEXTS:
            e = m.exact_expectation(ctx)
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
            assert m.exact_expectation(ctx).c == pytest.approx(1.0)

    def test_rotation_invariant_constructor_depends_on_theta_only(self):
        def law(theta):
            p = (1 + math.cos(theta)) / 2
            return np.array([[p, 0.0], [0.0, 1 - p]])

        # Two contexts share theta = pi/4 at these angles, so their tables match.
        angles = AngleAssignment(alice=(0.0, math.pi / 2), bob=(-math.pi / 4, math.pi / 4))
        m = rotation_invariant_contextual(
            n_source=1,
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
                m = model.exact_expectation(s)
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
        # Spec invariant: n = 1e6 draws match the exact law within 5 sigma.
        cases = [
            (QuantumSingletModel(angles=angles_with_theta(math.pi / 4)), SettingPair(0, 0)),
            (random_deterministic_model(np.random.default_rng(1)), SettingPair(0, 1)),
            (random_stochastic_model(np.random.default_rng(2)), SettingPair(1, 0)),
            (random_contextual_model(np.random.default_rng(3)), SettingPair(1, 1)),
        ]
        n = 1_000_000
        for i, (model, s) in enumerate(cases):
            exact = model.exact_expectation(s).e_ab
            a, b = sample_batch(
                model, np.full(n, s.x), np.full(n, s.y), stream(100 + i, "sampling", 0)
            )
            est = float((a.astype(float) * b).mean())
            sigma = math.sqrt(max(1.0 - exact**2, 1e-12) / n)
            assert abs(est - exact) < 5 * sigma + 1e-12

    def test_singlet_quarter_pi_example(self):
        m = QuantumSingletModel(angles=angles_with_theta(math.pi / 4))
        n = 1_000_000
        a, b = sample_batch(m, np.zeros(n, dtype=int), np.zeros(n, dtype=int), stream(55, "sampling", 0))
        est = float((a * b).mean())
        target = -SQRT2 / 2
        sigma = math.sqrt((1 - target**2) / n)
        assert est == pytest.approx(target, abs=4 * sigma)
