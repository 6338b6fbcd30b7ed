"""Core types, columnar tallying, estimation, and the CHSH statistic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belllab.core import (
    OUTCOME_INDEX,
    CHSH_SIGNS,
    CONTEXTS,
    AngleAssignment,
    CANONICAL_ANGLES,
    ContextEstimate,
    ContextTable,
    CorrelationSummary,
    SettingPair,
    chsh,
    estimate,
)

SQRT2 = math.sqrt(2)


def table_of(rows):
    """ContextTable of (x, y, a, b) rows, through the columnar path."""
    x, y, a, b = np.array(list(rows), dtype=np.int64).reshape(-1, 4).T
    return ContextTable.from_arrays(x, y, a, b)


def summary_from(e_ab_by_ctx, n=1000):
    contexts = {}
    for s in CONTEXTS:
        e = e_ab_by_ctx[(s.x, s.y)]
        contexts[s] = ContextEstimate(e_ab=e, e_a=0.0, e_b=0.0, c=1.0, n_pairs=n, n_total=n)
    return CorrelationSummary(contexts)


class TestSettingPair:
    def test_exactly_four_values(self):
        assert len(CONTEXTS) == 4
        assert len(set(CONTEXTS)) == 4

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            SettingPair(2, 0)


class TestAngles:
    def test_theta_is_difference(self):
        angles = AngleAssignment(alice=(0.1, 0.9), bob=(0.4, -0.2))
        assert angles.theta(SettingPair(1, 0)) == pytest.approx(0.5)

    def test_canonical_angles_give_tsirelson_pattern(self):
        expected = {"00": -math.pi / 4, "01": math.pi / 4, "10": math.pi / 4, "11": 3 * math.pi / 4}
        for s in CONTEXTS:
            assert CANONICAL_ANGLES.theta(s) == pytest.approx(expected[s.key()])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AngleAssignment(alice=(math.nan, 0.0), bob=(0.0, 0.0))


class TestTally:
    def test_empty_input_all_zero(self):
        table = table_of([])
        assert table.counts.sum() == 0
        for s in CONTEXTS:
            assert table.n_total(s) == 0

    def test_single_cell_fold(self):
        table = table_of([(0, 0, 1, -1)] * 3)
        assert table.count(SettingPair(0, 0), 1, -1) == 3
        assert table.counts.sum() == 3

    def test_seeded_stream_matches_naive_count(self):
        # Oracle: per-record dict counting, independent of the array fold.
        rng = np.random.default_rng(1234)
        rows = [
            (int(rng.integers(0, 2)), int(rng.integers(0, 2)),
             int(rng.choice([-1, 0, 1])), int(rng.choice([-1, 0, 1])))
            for _ in range(1000)
        ]
        naive = {}
        for row in rows:
            naive[row] = naive.get(row, 0) + 1
        table = table_of(rows)
        for (x, y, a, b), count in naive.items():
            assert table.count(SettingPair(x, y), a, b) == count
        assert table.counts.sum() == 1000

    @given(st.lists(st.tuples(
        st.integers(0, 1), st.integers(0, 1),
        st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]),
    ), max_size=60), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariance(self, rows, pyrandom):
        shuffled = list(rows)
        pyrandom.shuffle(shuffled)
        assert table_of(rows) == table_of(shuffled)

    def test_merge_matches_concatenation(self):
        rows1 = [(0, 0, 1, 1), (1, 1, -1, 1)]
        rows2 = [(0, 1, 0, -1), (1, 1, -1, 1)]
        merged = table_of(rows1).merge(table_of(rows2))
        assert merged == table_of(rows1 + rows2)

    def test_from_arrays_matches_record_fold(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 2, 500)
        y = rng.integers(0, 2, 500)
        a = rng.choice([-1, 0, 1], 500)
        b = rng.choice([-1, 0, 1], 500)
        # Oracle: one cell increment per row, in a plain Python loop.
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        for row in zip(x, y, a, b):
            xi, yi, ai, bi = map(int, row)
            counts[xi, yi, OUTCOME_INDEX[ai], OUTCOME_INDEX[bi]] += 1
        assert ContextTable.from_arrays(x, y, a, b) == ContextTable(counts)

    def test_from_arrays_rejects_bad_codes(self):
        # Outcome 2, setting 2, and codes that an int8 cast would wrap to valid ones.
        for row in [(0, 0, 2, 1), (0, 0, 1, 2), (2, 0, 1, 1), (0, 0, 255, 1), (257, 0, 1, 1)]:
            with pytest.raises(ValueError):
                table_of([row])

    def test_json_round_trip(self):
        table = table_of([(0, 1, 1, 0), (1, 0, -1, -1)])
        assert ContextTable.from_json(table.to_json()) == table


class TestEstimate:
    def test_perfect_anticorrelation(self):
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        counts[0, 0, 0, 1] = 500  # (+1, -1)
        counts[0, 0, 1, 0] = 500  # (-1, +1)
        est = estimate(ContextTable(counts))[SettingPair(0, 0)]
        assert est.e_ab == -1.0
        assert est.e_a == 0.0
        assert est.e_b == 0.0
        assert est.c == 1.0

    def test_uniform_outcomes(self):
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        counts[0, 0, :2, :2] = 250
        est = estimate(ContextTable(counts))[SettingPair(0, 0)]
        assert est.e_ab == 0.0
        assert est.c == 1.0

    def test_zeros_excluded_from_expectation_but_counted(self):
        # Hand computation: E_ab over nonzero pairs only, C = 600/1000.
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        counts[0, 0, 0, 0] = 600  # (+1, +1)
        counts[0, 0, 2, 0] = 400  # (0, +1)
        est = estimate(ContextTable(counts))[SettingPair(0, 0)]
        assert est.e_ab == 1.0
        assert est.c == pytest.approx(0.6)
        assert est.n_pairs == 600
        assert est.n_total == 1000

    def test_starved_context_yields_none(self):
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        counts[0, 0, 2, 2] = 10  # only (0, 0) slots
        summary = estimate(ContextTable(counts))
        est = summary[SettingPair(0, 0)]
        assert est.e_ab is None and est.e_a is None and est.e_b is None
        assert est.c == 0.0
        empty = summary[SettingPair(1, 1)]
        assert empty.c is None and empty.e_ab is None

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bounds_hold_on_random_tables(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 50, size=(2, 2, 3, 3))
        summary = estimate(ContextTable(counts))
        for s in CONTEXTS:
            est = summary[s]
            for value in (est.e_ab, est.e_a, est.e_b):
                if value is not None:
                    assert -1.0 <= value <= 1.0
            if est.c is not None:
                assert 0.0 <= est.c <= 1.0

    def test_zero_free_records_give_c_one(self):
        rng = np.random.default_rng(3)
        rows = [
            (int(rng.integers(0, 2)), int(rng.integers(0, 2)),
             int(rng.choice([-1, 1])), int(rng.choice([-1, 1])))
            for _ in range(200)
        ]
        summary = estimate(table_of(rows))
        for s in CONTEXTS:
            if summary[s].n_total > 0:
                assert summary[s].c == 1.0

    def test_summary_json_round_trip(self):
        counts = np.random.default_rng(11).integers(0, 40, size=(2, 2, 3, 3))
        summary = estimate(ContextTable(counts))
        back = CorrelationSummary.from_json(summary.to_json())
        for s in CONTEXTS:
            assert back[s] == summary[s]


class TestChsh:
    def test_canonical_singlet_pattern(self):
        e = {(0, 0): -SQRT2 / 2, (0, 1): -SQRT2 / 2, (1, 0): -SQRT2 / 2, (1, 1): SQRT2 / 2}
        s = chsh(summary_from(e))
        assert s == pytest.approx(-2 * SQRT2, abs=1e-12)
        assert abs(s) == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_zero_expectations(self):
        assert chsh(summary_from({(x, y): 0.0 for x in (0, 1) for y in (0, 1)})) == 0.0

    def test_algebraic_extreme_reaches_four(self):
        e = {(0, 0): -1.0, (0, 1): -1.0, (1, 0): -1.0, (1, 1): 1.0}
        assert chsh(summary_from(e)) == -4.0

    def test_bound_of_four_on_random_summaries(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            e = {(x, y): float(rng.uniform(-1, 1)) for x in (0, 1) for y in (0, 1)}
            assert abs(chsh(summary_from(e))) <= 4.0

    def test_undefined_marker_propagates(self):
        contexts = {}
        for s in CONTEXTS:
            defined = s != SettingPair(1, 1)
            contexts[s] = ContextEstimate(
                e_ab=0.5 if defined else None,
                e_a=0.0 if defined else None,
                e_b=0.0 if defined else None,
                c=1.0 if defined else 0.0,
                n_pairs=10 if defined else 0,
                n_total=10,
            )
        assert chsh(CorrelationSummary(contexts)) is None

    def test_sign_flips_when_alice_outcomes_negated(self):
        rng = np.random.default_rng(9)
        rows = [
            (int(rng.integers(0, 2)), int(rng.integers(0, 2)),
             int(rng.choice([-1, 1])), int(rng.choice([-1, 1])))
            for _ in range(400)
        ]
        flipped = [(x, y, -a, b) for (x, y, a, b) in rows]
        s1 = chsh(estimate(table_of(rows)))
        s2 = chsh(estimate(table_of(flipped)))
        assert s1 == pytest.approx(-s2, abs=1e-12)

    def test_linearity_in_each_context(self):
        base = {(x, y): 0.0 for x in (0, 1) for y in (0, 1)}
        for s in CONTEXTS:
            bumped = dict(base)
            bumped[(s.x, s.y)] = 0.25
            assert chsh(summary_from(bumped)) == pytest.approx(CHSH_SIGNS[s] * 0.25)
