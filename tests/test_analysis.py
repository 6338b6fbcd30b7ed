"""Hypothesis test, no-signalling tests, the report, LP feasibility, and angle sweeps."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from belllab.core import (
    CANONICAL_ANGLES,
    CHSH_SIGNS,
    CONTEXTS,
    MAX_ITEMS,
    AngleAssignment,
    ContextTable,
    SettingPair,
    chsh,
    estimate,
)
from belllab.couplings import (
    QuantumSingletModel,
    pearle_model,
    sample_batch,
)
from belllab.analysis import (
    _STRATEGY_MATRIX,
    AnalysisError,
    _chi2_tail_3,
    _normal_tail,
    _phase1_simplex,
    chsh_combinations,
    coupling_feasibility,
    lhv_pvalue,
    nosignalling_test,
    pairwise_tables,
    report,
    theta_sweep,
)
from belllab.pipeline import PairedRawData, postselect
from belllab.rng import stream

from helpers import (
    random_deterministic_model,
    random_nosignalling_tables,
    random_stochastic_model,
    reference_phase1_simplex,
    tables_from_expectations,
    two_sided_by_relabelling,
)

SQRT2 = math.sqrt(2)


def table_from_correlations(e_by_ctx, n_per_ctx=2500):
    """Counts with exact per-context correlations and unbiased marginals."""
    counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
    for s in CONTEXTS:
        e = e_by_ctx[(s.x, s.y)]
        same = int(round(n_per_ctx * (1 + e) / 2))
        diff = n_per_ctx - same
        counts[s.x, s.y, 0, 0] = same // 2 + same % 2
        counts[s.x, s.y, 1, 1] = same // 2
        counts[s.x, s.y, 0, 1] = diff // 2 + diff % 2
        counts[s.x, s.y, 1, 0] = diff // 2
    return ContextTable(counts)


class TestLhvPvalue:
    def test_boundary_gives_one(self):
        # All four correlations +1: S_hat = 1 + 1 + 1 - 1 = 2 exactly.
        table = table_from_correlations({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
        report = lhv_pvalue(estimate(table))
        assert report.s_hat == pytest.approx(2.0)
        assert report.p_value == 1.0

    def test_hoeffding_formula_at_two_and_a_half(self):
        # S_hat = 2.5 at N = 10^4: p = exp(-10^4 * 0.25 / 32) = exp(-78.125).
        table = table_from_correlations({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 0.5})
        report = lhv_pvalue(estimate(table))
        assert report.s_hat == pytest.approx(2.5)
        assert report.n == 10_000
        assert math.log(report.p_value) == pytest.approx(-78.125)

    def test_monotone_in_s_and_n(self):
        def p_of(e11, n):
            table = table_from_correlations(
                {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): e11}, n_per_ctx=n
            )
            return lhv_pvalue(estimate(table)).p_value

        assert p_of(0.8, 2500) < p_of(0.9, 2500) < p_of(1.0, 2500) == 1.0
        assert p_of(0.8, 5000) < p_of(0.8, 2500)

    def test_zero_outcomes_score_zero(self):
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        for s in CONTEXTS:
            counts[s.x, s.y, 0, 0] = 500   # (+1, +1)
            counts[s.x, s.y, 2, 2] = 500   # undetected slots
        report = lhv_pvalue(estimate(ContextTable(counts)))
        # Per-context sum of a*b is 500, N = 4000.
        assert report.s_hat == pytest.approx(4 * (500 * 3 - 500) / 4000)

    def test_refuses_empty_context(self):
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        counts[0, 0, 0, 0] = 100
        with pytest.raises(AnalysisError, match="populated"):
            lhv_pvalue(estimate(ContextTable(counts)))

    def test_refuses_grossly_nonuniform_settings(self):
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        counts[0, 0, 0, 0] = 100_000
        for s in CONTEXTS[1:]:
            counts[s.x, s.y, 0, 0] = 100
        with pytest.raises(AnalysisError, match="uniform"):
            lhv_pvalue(estimate(ContextTable(counts)))

    def test_lhv_runs_rarely_fire(self):
        # Hoeffding validity: under LHV data the rejection rate at 0.05
        # stays at or below 0.05 (here: far below).
        rng = np.random.default_rng(77)
        fails = 0
        runs = 100
        for _ in range(runs):
            model = random_deterministic_model(rng)
            g = np.random.default_rng(rng.integers(2**63))
            x = g.integers(0, 2, 10_000)
            y = g.integers(0, 2, 10_000)
            a, b = sample_batch(model, x, y, g)
            report = lhv_pvalue(estimate(ContextTable.from_arrays(x, y, a, b)))
            fails += report.p_value < 0.05
        assert fails / runs <= 0.05


class TestNoSignalling:
    def test_identical_marginals_give_z_zero(self):
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        for s in CONTEXTS:
            counts[s.x, s.y, 0, 0] = 300
            counts[s.x, s.y, 1, 1] = 700
        table = ContextTable(counts)
        report = nosignalling_test(table, table)
        for cmp in report.raw + report.final:
            assert cmp.z == 0.0
            assert cmp.p_value == 1.0
        assert report.raw_block_p == 1.0

    def test_two_proportion_example(self):
        # Oracle: the pooled two-proportion formula evaluated directly for
        # 0.6 vs 0.5 at n = 10^4 each (z around 14, p far below 1e-6).
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        counts[0, 0, 0, 0] = 6000
        counts[0, 0, 1, 0] = 4000
        counts[0, 1, 0, 0] = 5000
        counts[0, 1, 1, 0] = 5000
        for s in (SettingPair(1, 0), SettingPair(1, 1)):
            counts[s.x, s.y, 0, 0] = 500
            counts[s.x, s.y, 1, 0] = 500
        table = ContextTable(counts)
        report = nosignalling_test(table, table)
        cmp = next(c for c in report.final if c.party == "alice" and c.setting == 0)
        pooled = (6000 + 5000) / 20_000
        se = math.sqrt(pooled * (1 - pooled) * (2 / 10_000))
        z_expected = 0.1 / se
        assert cmp.z == pytest.approx(z_expected)
        assert z_expected == pytest.approx(14.2, abs=0.2)
        assert cmp.p_value < 1e-6

    def test_starved_cell_marked_undefined(self):
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        counts[0, 0, 0, 0] = 10  # context (0,1) empty
        table = ContextTable(counts)
        report = nosignalling_test(table, table)
        cmp = next(c for c in report.raw if c.party == "alice" and c.setting == 0)
        assert cmp.p_value is None and cmp.z is None

    def test_raw_denominator_includes_zeros(self):
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        counts[0, 0, 0, 0] = 60
        counts[0, 0, 2, 0] = 40   # zero outcomes dilute the raw proportion
        counts[0, 1, 0, 0] = 60
        counts[0, 1, 1, 0] = 40
        for s in (SettingPair(1, 0), SettingPair(1, 1)):
            counts[s.x, s.y, 0, 0] = 50
            counts[s.x, s.y, 1, 0] = 50
        report = nosignalling_test(ContextTable(counts), ContextTable(counts))
        cmp = next(c for c in report.raw if c.party == "alice" and c.setting == 0)
        assert cmp.p_plus[0] == pytest.approx(0.6)
        assert cmp.p_plus[1] == pytest.approx(0.6)
        assert cmp.n == (100, 100)

    def test_calibration_under_lhv_data(self):
        # p-values approximately uniform over repeated LHV runs.
        rng = np.random.default_rng(99)
        pvals = []
        for seed in range(40):
            model = random_stochastic_model(np.random.default_rng(seed), n_hidden=4)
            g = np.random.default_rng(1000 + seed)
            x = g.integers(0, 2, 10_000)
            y = g.integers(0, 2, 10_000)
            a, b = sample_batch(model, x, y, g)
            table = ContextTable.from_arrays(x, y, a, b)
            report = nosignalling_test(table, table)
            pvals.extend(c.p_value for c in report.final)
        pvals = np.array(pvals)
        ks = stats.kstest(pvals, "uniform")
        assert ks.pvalue > 1e-3
        assert 0.02 < float((pvals < 0.1).mean()) < 0.25

    def test_pearle_raw_passes_final_fires_with_delays(self):
        # Light version of the anomaly property (3 seeds); the full 20-seed
        # run lives in the acceptance suite.
        from belllab.protocol import SourceProtocolConfig, run_source_experiment
        from belllab.pipeline import CoincidencePolicy, match_coincidences

        model = pearle_model(CANONICAL_ANGLES)
        cfg = SourceProtocolConfig(
            pair_rate=100_000.0, duration=1.0, jitter_sd=2.0,
            setting_delay_a=(0.0, 4.0), setting_delay_b=(0.0, 6.0),
            outcome_delay_a=(0.0, 8.0), outcome_delay_b=(0.0, 8.0),
        )
        for seed in range(3):
            out = run_source_experiment(cfg, model, seed=seed)
            pairs = match_coincidences(out.stream_a, out.stream_b, CoincidencePolicy(window_ns=15))
            final, _ = postselect(pairs)
            report = nosignalling_test(out.truth.to_context_table(), final.to_context_table())
            assert report.final_block_p < 0.01
            assert report.raw_block_p > 0.05


def _split(draw, n: int, parts: int) -> np.ndarray:
    """``n`` counts over ``parts`` cells, cut at drawn points."""
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=parts - 1, max_size=parts - 1)))
    return np.diff([0, *cuts, n])


@st.composite
def guarded_tables(draw) -> ContextTable:
    """Tables whose setting counts pass the uniformity guard, up to about MAX_ITEMS trials.

    Zero outcomes make the pair counts differ between contexts, so S and
    S_hat can take opposite signs. An oriented table moves a drawn share of
    each context's pairs to the outcomes that push S_hat towards +-4, so the
    tail is tested beyond the bound; a mirrored one has S_hat 0, exactly
    where the divisions round back to the integer count sums.
    """
    per_context = draw(st.sampled_from([1, 3, 40, 10**4, MAX_ITEMS // 4 - 7, MAX_ITEMS]))
    spread = math.isqrt(per_context)
    orient = draw(st.sampled_from([0, 1, -1]))
    counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
    for s in CONTEXTS:
        n = per_context + draw(st.integers(-spread, spread))
        n_zero = draw(st.integers(0, n))
        block = counts[s.x, s.y]
        block[:2, :2] = _split(draw, n - n_zero, 4).reshape(2, 2)
        block[2, :], block[:2, 2] = np.split(_split(draw, n_zero, 5), [3])
        if orient:
            # Flipping Alice's outcome turns an agreeing pair into a disagreeing one.
            quarters = draw(st.integers(0, 4))
            agree = CHSH_SIGNS[s] * orient > 0
            for i, j in itertools.product(range(2), repeat=2):
                if (i == j) != agree:
                    moved = block[i, j] * quarters // 4
                    block[i, j] -= moved
                    block[1 - i, j] += moved
    if draw(st.booleans()):
        # Context 01 is context 00 relabelled and context 11 repeats 10, so
        # every term of S_hat cancels the one before it. Pairs added to 01 in
        # equal agreeing and disagreeing counts keep its term (where the
        # division rounds back) but not its correlation, so S need not be 0.
        counts[0, 1] = counts[0, 0, [1, 0, 2]]
        counts[0, 1, 0, :2] += draw(st.integers(0, spread))
        counts[1, 1] = counts[1, 0]
    return ContextTable(counts)


def _pairs_table(pairs_by_context) -> ContextTable:
    """A table from lists of (a, b, count) per context key."""
    counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
    index = {1: 0, -1: 1, 0: 2}
    for key, cells in pairs_by_context.items():
        for a, b, k in cells:
            counts[int(key[0]), int(key[1]), index[a], index[b]] += k
    return ContextTable(counts)


#: S = 1/3 - 1 + 1 - 1 < 0, and S_hat = 4 (1 - 1 + 1 - 1) / 6 = 0 exactly.
NEGATIVE_S_ZERO_S_HAT = _pairs_table(
    {"00": [(1, 1, 2), (1, -1, 1)], "01": [(1, -1, 1)], "10": [(1, 1, 1)], "11": [(1, 1, 1)]}
)
#: S = 1 - 1 - 1 - 1 < 0, while S_hat = 4 (10 - 3) / 13 > 0.
NEGATIVE_S_POSITIVE_S_HAT = _pairs_table(
    {"00": [(1, 1, 10)], "01": [(1, -1, 1)], "10": [(-1, 1, 1)], "11": [(1, 1, 1)]}
)
#: S_hat = -2.001 over MAX_ITEMS trials, a fifth of them with a zero outcome:
#: the two-sided p is about 2 exp(-3.125), far from 0 and from 1.
NEAR_CAP = _pairs_table(
    {
        k: [(1, 1, agree), (1, -1, 20_000_000 - agree), (0, 1, 5_000_000)]
        for k, agree in (("00", 3_746_875), ("01", 3_746_875), ("10", 3_746_875), ("11", 16_253_125))
    }
)


class TestReport:
    def test_edge_tables_are_what_they_claim(self):
        zero, positive = (estimate(t) for t in (NEGATIVE_S_ZERO_S_HAT, NEGATIVE_S_POSITIVE_S_HAT))
        assert chsh(zero) < 0 and repr(lhv_pvalue(zero).s_hat) == "0.0"
        assert chsh(positive) < 0 < lhv_pvalue(positive).s_hat
        # Plain negation would write -0.0 where the relabelled table gives +0.0.
        assert repr(-lhv_pvalue(zero).s_hat) == "-0.0"
        assert repr(two_sided_by_relabelling(NEGATIVE_S_ZERO_S_HAT).s_hat) == "0.0"
        near_cap = two_sided_by_relabelling(NEAR_CAP)
        assert chsh(estimate(NEAR_CAP)) < 0 and near_cap.n == MAX_ITEMS
        assert near_cap.s_hat == pytest.approx(2.001) and 0.05 < near_cap.p_value < 0.1

    @given(guarded_tables())
    @example(NEGATIVE_S_ZERO_S_HAT)
    @example(NEGATIVE_S_POSITIVE_S_HAT)
    @example(NEAR_CAP)
    @settings(max_examples=600)
    def test_two_sided_block_equals_the_relabelled_table(self, table):
        # report negates S_hat instead of relabelling and estimating again;
        # every field must keep its repr, the sign of a zero included.
        try:
            expected = two_sided_by_relabelling(table)
        except AnalysisError:
            expected = None
        assert repr(report(table).hypothesis_abs) == repr(expected)

    def test_blocks_of_a_populated_table(self):
        table = table_from_correlations({(0, 0): 0.7, (0, 1): 0.7, (1, 0): 0.7, (1, 1): -0.7})
        result = report(table)
        summary = estimate(table)
        assert [result.summary[s] for s in CONTEXTS] == [summary[s] for s in CONTEXTS]
        assert result.chsh == result.chsh_abs == chsh(summary)
        assert result.hypothesis == lhv_pvalue(summary)
        assert result.hypothesis_abs.method == "hoeffding-two-sided"
        assert result.hypothesis_abs.p_value == min(1.0, 2.0 * result.hypothesis.p_value)
        assert result.warnings == ()

    def test_starved_table_warns_and_skips_the_test(self):
        table = _pairs_table({"00": [(1, -1, 1), (1, 1, 1)]})
        result = report(table)
        assert result.chsh is None and result.chsh_abs is None
        assert result.hypothesis is None and result.hypothesis_abs is None
        assert result.warnings == (
            "starved contexts (undefined expectations): ['01', '10', '11']",
            "hypothesis test skipped: all contexts must be populated; empty: ['01', '10', '11']",
        )

    def test_nonuniform_settings_skip_the_test_only(self):
        table = _pairs_table({"00": [(1, 1, 100_000)], "01": [(1, 1, 100)],
                              "10": [(1, 1, 100)], "11": [(1, 1, 100)]})
        result = report(table)
        assert result.chsh == result.chsh_abs == 2.0
        assert result.hypothesis is None and result.hypothesis_abs is None
        (warning,) = result.warnings
        assert warning.startswith(
            "hypothesis test skipped: setting counts are inconsistent with the uniform-settings protocol"
        )

    def test_no_signalling_compares_raw_or_the_final_table(self):
        final = _pairs_table({"00": [(1, 1, 30), (-1, 1, 10)], "01": [(1, -1, 20)],
                              "10": [(-1, -1, 25)], "11": [(1, 1, 5), (-1, 1, 15)]})
        raw = _pairs_table({"00": [(1, 1, 30), (-1, 1, 10), (0, 1, 7)], "01": [(1, -1, 20), (1, 0, 3)],
                            "10": [(-1, -1, 25)], "11": [(1, 1, 5), (-1, 1, 15), (0, 0, 9)]})
        assert report(final).no_signalling == nosignalling_test(final, final)
        assert report(final, raw).no_signalling == nosignalling_test(raw, final)
        assert report(final, raw).no_signalling != report(final).no_signalling


class TestTails:
    """The ported tails against scipy.special, the Cephes code they port."""

    def test_normal_tail_matches_scipy_bit_for_bit(self):
        # Branch points in z (x = z / sqrt(2) crosses 1/sqrt(2), 1 and 8) and
        # the edge where exp(-x * x) underflows and the tail becomes 0.
        edges = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)])
        underflow = math.sqrt(7.09782712893383996843e2) / math.sqrt(0.5)
        near_underflow = np.linspace(underflow - 1e-12, underflow + 1e-12, 301)
        z = np.concatenate([
            np.linspace(0.0, 40.0, 1_000_001),
            edges, np.nextafter(edges, 0.0), np.nextafter(edges, 50.0),
            near_underflow, [0.0, 5e-324, -0.0, -1.0, -3.5],
        ])
        ours = np.array([_normal_tail(v) for v in z.tolist()])
        oracle = 2.0 * special.ndtr(-np.abs(z))
        mismatched = z[ours.view(np.int64) != oracle.view(np.int64)]
        assert mismatched.size == 0, mismatched[:10]
        # The grid reaches both sides of the underflow edge.
        edge_tails = ours[np.abs(z - underflow) <= 1e-12]
        assert (edge_tails == 0.0).any() and (edge_tails > 0.0).any()

    def test_chi2_tail_3_close_to_scipy(self):
        x = np.linspace(0.0, 300.0, 300_001)
        ours = np.array([_chi2_tail_3(v) for v in x.tolist()])
        oracle = special.chdtrc(3, x)
        assert np.max(np.abs(ours - oracle) / oracle) < 1e-13


#: Context tables [x, y, a, b] on the boundary of the local polytope or beyond it.
EDGE_TABLES = {
    "pr_box": np.array([np.eye(2), np.eye(2), np.eye(2), 1.0 - np.eye(2)]).reshape(2, 2, 2, 2) / 2,
    "perfect": np.tile(np.eye(2) / 2, (2, 2, 1, 1)),
    "anti": np.tile((1.0 - np.eye(2)) / 2, (2, 2, 1, 1)),
}


def simplex_input(kind: str, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, b) for the phase-1 simplex: the feasibility LP of tables of ``kind``, or a 0/1 system."""
    rng = np.random.default_rng(seed)
    if kind == "binary":
        # Integer right-hand sides tie many ratios, beyond those of the strategy matrix.
        a = rng.integers(0, 2, size=(16, 64)).astype(np.float64)
        return a, a @ rng.integers(0, 3, size=64).astype(np.float64)
    if kind == "nosignalling":
        p = random_nosignalling_tables(rng)
    elif kind == "dirichlet":  # signals
        p = rng.dirichlet(np.ones(4), size=(2, 2))
    elif kind == "sparse":
        p = rng.dirichlet(np.full(4, 0.1), size=(2, 2))
    elif kind == "grid":  # multiples of 1/k, exact zeros among them
        g = rng.integers(0, 4, size=(2, 2, 4)).astype(np.float64)
        g[g.sum(axis=-1) == 0] = 1.0
        p = g / g.sum(axis=-1, keepdims=True)
    else:
        p = EDGE_TABLES[kind]
    return _STRATEGY_MATRIX, p.ravel()


class TestFeasibility:
    @given(
        st.sampled_from(["nosignalling", "dirichlet", "sparse", "grid", "binary"]),
        st.integers(0, 2**32 - 1),
    )
    @example("pr_box", 0)
    @example("perfect", 0)
    @example("anti", 0)
    @settings(max_examples=600)
    def test_simplex_pivots_as_the_reference(self, kind, seed):
        # The array simplex takes every pivot of the cell-by-cell one, ties included.
        a, b = simplex_input(kind, seed)
        objective, basis = _phase1_simplex(a, b)
        expected, expected_basis, _ = reference_phase1_simplex(a, b)
        assert objective.hex() == expected.hex()
        assert basis.tolist() == expected_basis

    def test_uniform_product_tables_feasible(self):
        tables = np.full((2, 2, 2, 2), 0.25)
        result = coupling_feasibility(tables)
        assert result.feasible
        assert result.margin_error < 1e-9
        assert result.joint.sum() == pytest.approx(1.0, abs=1e-9)
        assert (result.joint >= 0).all()

    def test_singlet_canonical_table_infeasible(self):
        tables = pairwise_tables(QuantumSingletModel(angles=CANONICAL_ANGLES))
        # Oracle: no deterministic strategy exceeds CHSH 2, while the table
        # reaches 2*sqrt(2); enumeration confirms the separation.
        assert max(abs(c) for c in chsh_combinations(tables)) == pytest.approx(2 * SQRT2)
        result = coupling_feasibility(tables)
        assert not result.feasible
        assert result.max_violation == pytest.approx(2 * SQRT2, abs=1e-9)
        assert result.certificate.kind == "chsh"
        assert result.certificate.slack >= 2 * SQRT2 - 2 - 1e-9

    def test_lhv_model_tables_feasible_with_witness(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            model = random_deterministic_model(rng)
            result = coupling_feasibility(pairwise_tables(model))
            assert result.feasible
            assert result.margin_error < 1e-9

    def test_verdict_matches_chsh_enumeration_on_nosignalling_tables(self):
        rng = np.random.default_rng(41)
        disagreements = 0
        seen_infeasible = seen_feasible = 0
        for _ in range(200):
            tables = random_nosignalling_tables(rng)
            by_lp = coupling_feasibility(tables).feasible
            by_enum = max(abs(c) for c in chsh_combinations(tables)) <= 2.0
            disagreements += by_lp != by_enum
            seen_infeasible += not by_enum
            seen_feasible += by_enum
        assert disagreements == 0
        assert seen_infeasible > 0 and seen_feasible > 0

    def test_signalling_tables_infeasible_with_dual_certificate(self):
        # Alice's marginal depends on the remote setting: no CHSH combination
        # sees it, but no joint distribution exists either.
        e_a = {s: (0.5 if s.y == 0 else -0.5) for s in CONTEXTS}
        e_b = {s: 0.0 for s in CONTEXTS}
        e_ab = {s: 0.0 for s in CONTEXTS}
        tables = tables_from_expectations(e_a, e_b, e_ab)
        result = coupling_feasibility(tables)
        assert not result.feasible
        assert result.max_violation <= 2.0
        assert result.certificate.kind == "dual"
        assert result.certificate.slack > 1e-9

    def test_witness_margins_reproduce_inputs(self):
        rng = np.random.default_rng(52)
        tables = random_nosignalling_tables(rng)
        while max(abs(c) for c in chsh_combinations(tables)) > 2.0:
            tables = random_nosignalling_tables(rng)
        result = coupling_feasibility(tables)
        assert result.feasible
        # Recompute margins directly from the witness.
        from belllab.analysis import STRATEGY_ORDER

        for s in CONTEXTS:
            got = np.zeros((2, 2))
            for (a0, a1, b0, b1), w in zip(STRATEGY_ORDER, result.joint):
                a = (a0, a1)[s.x]
                b = (b0, b1)[s.y]
                got[0 if a == 1 else 1, 0 if b == 1 else 1] += w
            np.testing.assert_allclose(got, tables[s.x, s.y], atol=1e-9)

    def test_exact_boundary_tables_are_feasible(self):
        # A CHSH combination equal to 2 exactly sits on the local polytope
        # boundary and must not be misclassified by the tolerance.
        perfect = np.tile([[0.5, 0.0], [0.0, 0.5]], (2, 2, 1, 1))
        assert max(chsh_combinations(perfect)) == 2.0
        result = coupling_feasibility(perfect)
        assert result.feasible and result.margin_error < 1e-12
        anti = np.tile([[0.0, 0.5], [0.5, 0.0]], (2, 2, 1, 1))
        assert coupling_feasibility(anti).feasible

    def test_algebraic_extreme_has_maximal_slack(self):
        # E = (1, 1, 1, -1) reaches the algebraic bound 4; the certificate
        # separates with slack 4 - 2 = 2.
        e_ab = {s: (1.0 if (s.x, s.y) != (1, 1) else -1.0) for s in CONTEXTS}
        zero = {s: 0.0 for s in CONTEXTS}
        tables = tables_from_expectations(zero, zero, e_ab)
        result = coupling_feasibility(tables)
        assert not result.feasible
        assert result.max_violation == pytest.approx(4.0)
        assert result.certificate.slack == pytest.approx(2.0)

    def test_lp_arrays_equal_their_cell_by_cell_definitions(self):
        from belllab import analysis

        outcome = (1.0, -1.0)
        order = [(a0, a1, b0, b1) for a0 in (1, -1) for a1 in (1, -1) for b0 in (1, -1) for b1 in (1, -1)]
        assert list(analysis.STRATEGY_ORDER) == order
        matrix = np.zeros((16, 16))
        for col, (a0, a1, b0, b1) in enumerate(order):
            for ci, s in enumerate(CONTEXTS):
                for ai, a in enumerate(outcome):
                    for bi, b in enumerate(outcome):
                        matrix[ci * 4 + ai * 2 + bi, col] = float((a0, a1)[s.x] == a and (b0, b1)[s.y] == b)
        assert np.array_equal(analysis._STRATEGY_MATRIX, matrix)
        assert np.array_equal(analysis._COLUMNS, np.hstack([matrix, np.eye(16)]))
        # Sign placements with an odd number of minus signs, bit i of the count on context i.
        placements = [[-1.0 if bits >> i & 1 else 1.0 for i in range(4)] for bits in range(16)]
        placements = [signs for signs in placements if np.prod(signs) < 0]
        assert analysis._CHSH_SIGNS.tolist() == placements
        for signs, functional in zip(placements, analysis._CHSH_FUNCTIONALS):
            for ci, s in enumerate(CONTEXTS):
                for ai, a in enumerate(outcome):
                    for bi, b in enumerate(outcome):
                        assert functional[s.x, s.y, ai, bi] == signs[ci] * a * b

    @given(st.integers(1, 16), st.integers(0, 2**32 - 1))
    @settings(max_examples=300)
    def test_local_tables_with_entries_at_the_negative_tolerance_are_feasible(self, k, seed):
        # A mixture of k strategies, with mass t <= 1e-12 moved from zero
        # entries onto another entry of the same context, zero or not.
        rng = np.random.default_rng(seed)
        q = np.zeros(16)
        q[rng.choice(16, size=k, replace=False)] = rng.dirichlet(np.ones(k))
        tables = (_STRATEGY_MATRIX @ q).reshape(4, 4)
        for t in tables:
            zeros = np.flatnonzero(t == 0.0)
            for i in rng.choice(zeros, size=rng.integers(0, len(zeros) + 1), replace=False):
                moved = 1e-12 * (1.0 - rng.random())  # in (0, 1e-12]
                t[i] -= moved
                t[rng.choice(np.delete(np.arange(4), i))] += moved
        result = coupling_feasibility(tables.reshape(2, 2, 2, 2))
        assert result.feasible and result.margin_error < 1e-9

    def test_malformed_tables_rejected(self):
        tables = np.full((2, 2, 2, 2), 0.25)
        tables[0, 0] = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(AnalysisError, match="sum to 1"):
            coupling_feasibility(tables)
        tables[0, 0] = np.array([[1.5, -0.5], [0.0, 0.0]])
        with pytest.raises(AnalysisError):
            coupling_feasibility(tables)


class TestThetaSweep:
    @staticmethod
    def singlet_factory(visibility=1.0):
        return lambda theta: QuantumSingletModel(
            angles=AngleAssignment(alice=(theta, 0.0), bob=(0.0, 0.0)),
            visibility=visibility,
        )

    def test_exact_cosine_values(self):
        points = theta_sweep(self.singlet_factory(), [0.0, math.pi / 2, math.pi])
        values = [p.e_ab for p in points]
        assert values[0] == pytest.approx(-1.0)
        assert values[1] == pytest.approx(0.0, abs=1e-15)
        assert values[2] == pytest.approx(1.0)

    def test_amplitude_fit_recovers_visibility(self):
        v = 0.7335
        thetas = np.linspace(0, 2 * math.pi, 24, endpoint=False)
        points = theta_sweep(self.singlet_factory(v), thetas, n_trials=50_000, seed=8)
        e = np.array([p.e_ab for p in points])
        # Least-squares amplitude against -cos(theta).
        basis = -np.cos(thetas)
        amplitude = float(basis @ e / (basis @ basis))
        assert amplitude == pytest.approx(v, abs=0.01)

    def test_postselection_sweep_matches_manual_pipeline(self):
        # Oracle: single-point runs of the sampling + estimation chain with
        # the same per-point streams.
        def factory(theta):
            return pearle_model(AngleAssignment(alice=(theta, 0.0), bob=(0.0, 0.0)), bins=180, threshold_bins=16)

        thetas = [0.7, 2.1]
        seed = 19
        n = 40_000
        points = theta_sweep(factory, thetas, n_trials=n, seed=seed)
        for idx, theta in enumerate(thetas):
            model = factory(theta)
            g = stream(seed, "sweep", idx)
            x = np.zeros(n, dtype=np.int64)
            y = np.zeros(n, dtype=np.int64)
            a, b = sample_batch(model, x, y, g)
            pairs = PairedRawData(x=x.astype(np.int8), y=y.astype(np.int8), a=a, b=b)
            final, _ = postselect(pairs)
            est = estimate(final.to_context_table())[SettingPair(0, 0)]
            assert points[idx].e_ab == pytest.approx(est.e_ab, abs=1e-12)
            assert points[idx].n == est.n_pairs

    def test_empty_grid_rejected(self):
        with pytest.raises(AnalysisError):
            theta_sweep(self.singlet_factory(), [])

    def test_mc_needs_seed(self):
        with pytest.raises(AnalysisError):
            theta_sweep(self.singlet_factory(), [0.1], n_trials=100)

    def test_first_failing_point_raises_on_workers(self, monkeypatch):
        # The points run on two workers; the error is point 3's, as in a serial loop.
        monkeypatch.setenv("BELLLAB_THREADS", "2")
        thetas = [0.1 * i for i in range(10)]
        calls = []

        def factory(theta):
            calls.append(theta)
            idx = thetas.index(theta)
            if idx in (3, 7):
                raise ValueError(f"point {idx} failed")
            return self.singlet_factory()(theta)

        with pytest.raises(ValueError, match="^point 3 failed$"):
            theta_sweep(factory, thetas, n_trials=2_000, seed=4)
        # At most two points are in flight, so the sweep stops before point 7.
        assert sorted(calls) == thetas[: len(calls)] and len(calls) <= 5


class TestPairwiseTables:
    def test_singlet_tables_by_hand(self):
        tables = pairwise_tables(QuantumSingletModel(angles=CANONICAL_ANGLES))
        e = -SQRT2 / 2
        expected = np.array([[1 + e, 1 - e], [1 - e, 1 + e]]) / 4
        np.testing.assert_allclose(tables[0, 0], expected, atol=1e-12)

    def test_tables_are_distributions(self):
        tables = pairwise_tables(pearle_model(CANONICAL_ANGLES))
        for s in CONTEXTS:
            assert tables[s.x, s.y].sum() == pytest.approx(1.0)
            assert (tables[s.x, s.y] >= -1e-12).all()
