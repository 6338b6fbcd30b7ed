"""Core types, columnar tallying, estimation, and the CHSH statistic."""

import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from belllab.core import (
    CHSH_SIGNS,
    CONTEXTS,
    AngleAssignment,
    CANONICAL_ANGLES,
    ContextEstimate,
    ContextTable,
    CorrelationSummary,
    SettingPair,
    chsh,
    codes,
    estimate,
    ordered_map,
    row_blocks,
    worker_count,
)
from belllab.errors import ConfigError

SQRT2 = math.sqrt(2)

#: Position of each outcome on a cell-block axis of a ContextTable: (+1, -1, 0).
POSITION = {1: 0, -1: 1, 0: 2}


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


CODE_SETS = st.sampled_from([(0, 1), (-1, 1), (-1, 0, 1)])
# Mostly codes, so that whole columns are often valid.
NEAR_CODES = st.sampled_from([-1, 0, 1]) | st.sampled_from([-1, 0, 1]) | st.integers(-2, 2)
# Values an int8 cast would wrap onto codes: 255 -> -1, 257 -> 1, -129 -> 127.
WRAPPING = st.sampled_from([255, 257, -129, 2**63 - 1, -(2**63)])
TRUNCATING = st.sampled_from([0.5, 1.5, -1.9, -0.0, 255.0, 257.0, -129.0, 1e300, math.inf, math.nan])
INT_COLUMNS = st.lists(NEAR_CODES | WRAPPING, max_size=8).map(lambda v: np.array(v, dtype=np.int64))
FLOAT_COLUMNS = st.lists(NEAR_CODES.map(float) | TRUNCATING | st.floats(), max_size=8).map(
    lambda v: np.array(v, dtype=np.float64)
)
# The dtypes of the columns that pairing and post-selection feed the check.
INT8_COLUMNS = st.lists(NEAR_CODES | st.sampled_from([-128, 127]), max_size=8).map(
    lambda v: np.array(v, dtype=np.int8)
)
BOOL_COLUMNS = st.lists(st.booleans(), max_size=8).map(lambda v: np.array(v, dtype=bool))


class TestCodes:
    @given(CODE_SETS, INT_COLUMNS | FLOAT_COLUMNS | INT8_COLUMNS | BOOL_COLUMNS)
    @example((-1, 1), np.array([1, -1, 255], dtype=np.int64))
    @example((-1, 0, 1), np.array([-1, -128], dtype=np.int8))
    @example((-1, 1), np.array([127, 1], dtype=np.int8))
    @example((0, 1), np.array([True, False]))
    @example((-1, 1), np.array([True, True]))
    @example((0, 1), np.array([0, 257], dtype=np.int64))
    @example((-1, 0, 1), np.array([-129], dtype=np.int64))
    @example((0, 1), np.array([0.5, 1.0]))
    @example((-1, 0, 1), np.array([math.nan]))
    @example((-1, 0, 1), np.array([1.0, -0.0, -1.0]))
    @settings(max_examples=300)
    def test_accepts_exactly_the_allowed_values(self, allowed, values):
        if np.isin(values, allowed).all():
            out = codes("column", values, allowed)
            assert out.dtype == np.int8 and not out.flags.writeable
            assert out.tolist() == values.tolist()
        else:
            with pytest.raises(ValueError, match=f"^column must be in {re.escape(str(allowed))}$"):
                codes("column", values, allowed)

    def test_rejects_non_numeric_values(self):
        for values in (["1"], [None], [2**70]):
            with pytest.raises(ValueError, match="must be in"):
                codes("column", values, (0, 1))


class TestTally:
    def test_empty_input_all_zero(self):
        table = table_of([])
        assert table.counts.sum() == 0
        for s in CONTEXTS:
            assert table.counts[s.x, s.y].sum() == 0

    def test_single_cell_fold(self):
        table = table_of([(0, 0, 1, -1)] * 3)
        assert table.counts[0, 0, POSITION[1], POSITION[-1]] == 3
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
            assert table.counts[x, y, POSITION[a], POSITION[b]] == count
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

    def test_from_arrays_matches_record_fold(self):
        rng = np.random.default_rng(7)
        x = rng.choice([-1, 0, 1], 500)
        y = rng.choice([-1, 0, 1], 500)
        a = rng.choice([-1, 0, 1], 500)
        b = rng.choice([-1, 0, 1], 500)
        # Oracle: one cell increment per row, in a plain Python loop; a row with
        # an unknown (-1) setting belongs to no context.
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        for row in zip(x, y, a, b):
            xi, yi, ai, bi = map(int, row)
            if xi >= 0 and yi >= 0:
                counts[xi, yi, POSITION[ai], POSITION[bi]] += 1
        assert ContextTable.from_arrays(x, y, a, b) == ContextTable(counts)

    def test_from_arrays_rejects_bad_codes(self):
        # Outcome 2, settings 2 and -2, and codes that an int8 cast would wrap to valid ones.
        for row in [(0, 0, 2, 1), (0, 0, 1, 2), (2, 0, 1, 1), (-2, 0, 1, 1), (0, 0, 255, 1), (257, 0, 1, 1)]:
            with pytest.raises(ValueError):
                table_of([row])
        # Codes that an int64 cast would truncate to valid ones, and NaN.
        for row in [(0.5, 0, 1, 1), (0, 0, 1.5, 1), (0.5, 0, 1.5, -1.9), (0, 0, math.nan, 1)]:
            with pytest.raises(ValueError):
                ContextTable.from_arrays(*([v] for v in row))


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


class TestOrderedMap:
    @pytest.mark.parametrize("threads", ["1", "2", "5"])
    def test_results_in_input_order(self, monkeypatch, threads):
        monkeypatch.setenv("BELLLAB_THREADS", threads)
        # Later items finish first, so the pool completes them out of order.
        delays = [0.004 * (9 - i) for i in range(10)]

        def slow_square(i):
            threading.Event().wait(delays[i])
            return i * i

        assert list(ordered_map(slow_square, range(10))) == [i * i for i in range(10)]
        assert list(ordered_map(slow_square, [])) == []

    @pytest.mark.parametrize("threads", [1, 3])
    def test_at_most_worker_count_items_in_flight(self, monkeypatch, threads):
        monkeypatch.setenv("BELLLAB_THREADS", str(threads))
        lock = threading.Lock()
        running, peak = [0], [0]
        first_round = threading.Barrier(threads)

        def task(i):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            if i < threads:
                first_round.wait(timeout=10)  # the first items all start before any ends
            return i

        held = 0
        for i in ordered_map(task, range(12)):
            # The caller holds item i: it counts as in flight until it asks for the next.
            with lock:
                assert running[0] <= threads
                running[0] -= 1
            held += 1
        assert held == 12 and peak[0] == threads

    def test_first_error_in_input_order(self, monkeypatch):
        monkeypatch.setenv("BELLLAB_THREADS", "8")

        def task(i):
            if i in (3, 7):
                # Item 7 fails at once, item 3 only after a pause.
                threading.Event().wait(0.05 if i == 3 else 0.0)
                raise ValueError(f"item {i}")
            return i

        results = []
        with pytest.raises(ValueError, match="^item 3$"):
            for r in ordered_map(task, range(10)):
                results.append(r)
        assert results == [0, 1, 2]


class TestWorkerCount:
    def test_defaults_to_the_cores(self, monkeypatch):
        monkeypatch.delenv("BELLLAB_THREADS", raising=False)
        assert worker_count() == (os.cpu_count() or 1)
        monkeypatch.setenv("BELLLAB_THREADS", "3")
        assert worker_count() == 3

    @pytest.mark.parametrize("raw", ["0", "-1", "two", "1.5"])
    def test_rejects_non_positive_integers(self, monkeypatch, raw):
        monkeypatch.setenv("BELLLAB_THREADS", raw)
        with pytest.raises(ConfigError, match="^BELLLAB_THREADS: "):
            worker_count()

    @pytest.mark.parametrize("threads, rows", [(1, 4), (4, 4), (4, 1), (3, 10), (2, 1 << 18)])
    def test_row_blocks_share_the_rows(self, monkeypatch, threads, rows):
        monkeypatch.setenv("BELLLAB_THREADS", str(threads))
        for n in (0, 1, rows, 3 * rows + 2):
            blocks = row_blocks(n, rows)
            assert [b for block in blocks for b in range(*block)] == list(range(n))
            sizes = [stop - start for start, stop in blocks]
            assert all(size == max(rows // threads, 1) for size in sizes[:-1])
