"""Coincidence pairing, post-selection, and window sweeps."""

import itertools

import numpy as np
import pytest
from helpers import _match_greedy as greedy_oracle
from helpers import _match_lattice as lattice_oracle
from helpers import greedy_indices, lattice_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

from belllab import pipeline
from belllab.core import CANONICAL_ANGLES, CONTEXTS, ContextTable, SettingPair, chsh, estimate
from belllab.couplings import QuantumSingletModel, pearle_model
from belllab.pipeline import (
    CoincidencePolicy,
    PairedRawData,
    RawEventStream,
    _match_greedy,
    _match_lattice,
    _merge,
    match_coincidences,
    postselect,
    window_sweep,
)
from belllab.protocol import SourceProtocolConfig, run_source_experiment


def make_stream(station, events):
    """events: list of (time, setting, outcome)."""
    if events:
        t, s, o = zip(*events)
    else:
        t = s = o = []
    return RawEventStream(station=station, times=np.array(t, dtype=np.int64),
                          settings=np.array(s, dtype=np.int8), outcomes=np.array(o, dtype=np.int8))


def optimal_matching(times_a, times_b, w):
    """Oracle: exhaustive matching maximizing pairs, then minimizing total |dt|."""
    best = None
    n_a, n_b = len(times_a), len(times_b)
    indices_b = list(range(n_b))
    for k in range(min(n_a, n_b), -1, -1):
        for subset_a in itertools.combinations(range(n_a), k):
            for subset_b in itertools.permutations(indices_b, k):
                if all(abs(times_a[i] - times_b[j]) <= w for i, j in zip(subset_a, subset_b)):
                    cost = sum(abs(times_a[i] - times_b[j]) for i, j in zip(subset_a, subset_b))
                    cand = (k, -cost, set(zip(subset_a, subset_b)))
                    if best is None or (cand[0], cand[1]) > (best[0], best[1]):
                        best = cand
        if best is not None and best[0] == k:
            break
    return best[2] if best else set()


class TestLattice:
    def test_identical_tags_all_paired(self):
        events = [(10 * i, i % 2, 1 if i % 3 else -1) for i in range(50)]
        a = make_stream("A", events)
        b = make_stream("B", [(t, (s + 1) % 2, -o) for t, s, o in events])
        for w in (1, 7, 10):
            pairs = match_coincidences(a, b, CoincidencePolicy(window_ns=w))
            assert pairs.meta["matched"] == 50
            assert pairs.meta["dropped_extra_a"] == 0 and pairs.meta["dropped_extra_b"] == 0
            assert int(((pairs.x < 0) | (pairs.y < 0)).sum()) == 0

    def test_disjoint_supports_all_one_sided(self):
        a = make_stream("A", [(0, 0, 1), (15, 1, -1)])
        b = make_stream("B", [(1000, 0, 1), (1015, 1, 1)])
        pairs = match_coincidences(a, b, CoincidencePolicy(window_ns=10))
        assert pairs.meta["matched"] == 0
        assert pairs.meta["one_sided_a"] == 2 and pairs.meta["one_sided_b"] == 2
        assert int(((pairs.x < 0) | (pairs.y < 0)).sum()) == 4
        assert ((pairs.a == 0) | (pairs.b == 0)).all()

    def test_multi_event_bins_keep_earliest_and_count_drops(self):
        # Bin [0, 10): A has events at 3 and 7 -> earliest (3) wins, 1 dropped.
        a = make_stream("A", [(3, 0, 1), (7, 1, -1)])
        b = make_stream("B", [(5, 1, 1)])
        pairs = match_coincidences(a, b, CoincidencePolicy(window_ns=10))
        assert pairs.meta["matched"] == 1
        assert pairs.meta["dropped_extra_a"] == 1
        assert pairs.x.tolist() == [0] and pairs.a.tolist() == [1]

    def test_conservation_audit(self):
        rng = np.random.default_rng(17)
        a = make_stream("A", sorted((int(t), int(rng.integers(0, 2)), int(rng.choice([-1, 1])))
                                    for t in rng.integers(0, 2000, 300)))
        b = make_stream("B", sorted((int(t), int(rng.integers(0, 2)), int(rng.choice([-1, 1])))
                                    for t in rng.integers(0, 2000, 280)))
        pairs = match_coincidences(a, b, CoincidencePolicy(window_ns=16))
        m = pairs.meta
        assert m["matched"] + m["one_sided_a"] + m["dropped_extra_a"] == m["events_a"]
        assert m["matched"] + m["one_sided_b"] + m["dropped_extra_b"] == m["events_b"]

    def test_unsorted_input_rejected_with_diagnostic(self):
        message = "stream B is not time-sorted: data row 2 has time 5, before 10 in data row 1"
        with pytest.raises(ValueError, match=message):
            RawEventStream(station="B", times=np.array([10, 5], dtype=np.int64),
                           settings=np.zeros(2, dtype=np.int8), outcomes=np.ones(2, dtype=np.int8))


EVENTS = st.lists(
    st.tuples(st.integers(-200, 200), st.integers(0, 1), st.sampled_from([-1, 1])), max_size=30
)


class TestAgainstOracles:
    """The index-based pairing core against the set-based and row-tuple originals."""

    @given(EVENTS, EVENTS, st.integers(1, 40), st.sampled_from(["lattice", "greedy"]))
    @settings(max_examples=500)
    def test_same_rows_and_audit(self, events_a, events_b, w, strategy):
        # Sorting by time alone keeps ties in drawn order, as a stream may hold them.
        a = make_stream("A", sorted(events_a, key=lambda e: e[0]))
        b = make_stream("B", sorted(events_b, key=lambda e: e[0]))
        pairs = match_coincidences(a, b, CoincidencePolicy(window_ns=w, strategy=strategy))
        oracle = (lattice_oracle if strategy == "lattice" else greedy_oracle)(a, b, w)
        for k in "xyab":
            assert getattr(pairs, k).tolist() == getattr(oracle, k).tolist()
        assert pairs.meta == oracle.meta
        m = pairs.meta
        for side, column in (("a", pairs.a), ("b", pairs.b)):
            assert int((column != 0).sum()) == m["matched"] + m[f"one_sided_{side}"]
            assert m["matched"] + m[f"one_sided_{side}"] + m[f"dropped_extra_{side}"] == m[f"events_{side}"]


# A cluster is one event at A, at B, or at both, in one lattice bin
# [kW, (k+1)W); the next cluster starts 3 or more bins later, so more than 2W
# separates clusters: (extra empty bins, stations, offsets in the bin, x, y, a, b).
CLUSTERS = st.lists(
    st.tuples(
        st.integers(0, 3), st.sampled_from(["A", "B", "AB"]), st.integers(0, 39), st.integers(0, 39),
        st.integers(0, 1), st.integers(0, 1), st.sampled_from([-1, 1]), st.sampled_from([-1, 1]),
    ),
    max_size=25,
)


@given(CLUSTERS, st.integers(1, 40), st.integers(-50, 50))
@settings(max_examples=300)
def test_lattice_and_greedy_agree_on_isolated_pairs(clusters, w, first_bin):
    events = {"A": [], "B": []}
    k = first_bin
    for gap, stations, off_a, off_b, x, y, out_a, out_b in clusters:
        for station, offset, setting, outcome in (("A", off_a, x, out_a), ("B", off_b, y, out_b)):
            if station in stations:
                events[station].append((k * w + offset % w, setting, outcome))
        k += 3 + gap
    a, b = make_stream("A", events["A"]), make_stream("B", events["B"])
    lattice = match_coincidences(a, b, CoincidencePolicy(window_ns=w, strategy="lattice"))
    greedy = match_coincidences(a, b, CoincidencePolicy(window_ns=w, strategy="greedy"))
    for column in "xyab":
        assert getattr(lattice, column).tolist() == getattr(greedy, column).tolist()
    assert lattice.meta["matched"] == sum(stations == "AB" for _, stations, *_ in clusters)
    assert {**lattice.meta, "strategy": "greedy"} == greedy.meta


def test_time_differences_beyond_int64_do_not_wrap():
    far = 2**62 + 5
    a = make_stream("A", [(-far, 0, 1), (far, 1, 1)])
    b = make_stream("B", [(far, 1, -1)])
    for strategy in ("lattice", "greedy"):
        pairs = match_coincidences(a, b, CoincidencePolicy(window_ns=10, strategy=strategy))
        assert pairs.meta["matched"] == 1 and pairs.meta["one_sided_a"] == 1
        assert pairs.y.tolist() == [-1, 1]


def assert_greedy_matches_loop(ta, tb, w, merged=None):
    ta, tb = np.asarray(ta, dtype=np.int64), np.asarray(tb, dtype=np.int64)
    ia, ib = _match_greedy(*(merged or _merge(ta, tb)), w)
    assert (ia.tolist(), ib.tolist()) == greedy_indices(ta, tb, w)


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# Times within 40 ns of an int64 limit, of +-2**62 or of 0, where a difference
# or a reach t - W leaves int64.
EXTREME_TIMES = st.lists(
    st.builds(
        lambda base, offset: min(max(base + offset, INT64_MIN), INT64_MAX),
        st.sampled_from([INT64_MIN, -(2**62), 0, 2**62, INT64_MAX]),
        st.integers(-40, 40),
    ),
    max_size=20,
).map(sorted)
EXTREME_WINDOWS = st.one_of(
    st.integers(1, 100), st.integers(2**62 - 100, 2**62 + 100), st.integers(2**63 - 100, INT64_MAX)
)


class TestGreedyAgainstLoop:
    """The greedy queue scan against the loop over events it replaced, index for index."""

    @given(EXTREME_TIMES, EXTREME_TIMES, EXTREME_WINDOWS)
    @settings(max_examples=400)
    def test_int64_limits(self, ta, tb, w):
        assert_greedy_matches_loop(ta, tb, w)

    @given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_deep_clusters(self, n_a, n_b, seed):
        # Up to 600 events within 4W: clusters far longer than a scan block,
        # with ties whenever W is small. W is log-uniform in [1, 2**20).
        rng = np.random.default_rng(seed)
        w = int(2 ** rng.uniform(0, 20))
        span = int(rng.integers(0, 4 * w + 1))
        ta, tb = (np.sort(rng.integers(0, span + 1, n)) for n in (n_a, n_b))
        assert_greedy_matches_loop(ta, tb, w)

    def test_one_cluster_of_forty_thousand_events(self):
        # Mean spacing W/20 at each station: no gap exceeds W, yet waiting
        # events fall out of reach as the queue drifts. Every scan level takes part.
        rng = np.random.default_rng(8)
        w = 100
        ta, tb = (np.sort(rng.integers(0, 100_000, 20_000)) for _ in range(2))
        assert np.diff(np.sort(np.concatenate([ta, tb]))).max() <= w
        assert_greedy_matches_loop(ta, tb, w)


def assert_lattice_matches_sets(ta, tb, w, merged=None):
    ta, tb = np.asarray(ta, dtype=np.int64), np.asarray(tb, dtype=np.int64)
    ia, ib = _match_lattice(*(merged or _merge(ta, tb)), w)
    oracle_a, oracle_b, _ = lattice_rows(ta, tb, w)
    assert (ia.tolist(), ib.tolist()) == (oracle_a.tolist(), oracle_b.tolist())


class TestLatticeAgainstSets:
    """The run-start lattice against the set-based oracle, index for index."""

    @given(EXTREME_TIMES, EXTREME_TIMES, EXTREME_WINDOWS)
    @example([], [INT64_MIN, 0, INT64_MAX], INT64_MAX)
    @example([INT64_MIN] * 4 + [INT64_MAX] * 3, [], 1)
    @example([INT64_MIN, INT64_MIN + 1], [INT64_MIN, INT64_MAX - 1, INT64_MAX], INT64_MAX)
    @example([], [], 1)
    @settings(max_examples=400)
    def test_int64_limits(self, ta, tb, w):
        assert_lattice_matches_sets(ta, tb, w)

    @given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=150)
    def test_crowded_bins(self, n_a, n_b, seed):
        # Up to 300 events per station over at most 4W, so bins hold many
        # events at one or both stations. W is log-uniform in [1, 2**60).
        rng = np.random.default_rng(seed)
        w = int(2 ** rng.uniform(0, 60))
        start = int(rng.integers(INT64_MIN, INT64_MAX - 4 * w, endpoint=True))
        ta, tb = (np.sort(rng.integers(start, start + 4 * w, n, endpoint=True)) for n in (n_a, n_b))
        assert_lattice_matches_sets(ta, tb, w)

    def test_twenty_thousand_events_per_station(self):
        rng = np.random.default_rng(9)
        ta, tb = (np.sort(rng.integers(0, 400_000, 20_000)) for _ in range(2))
        for w in (1, 3, 20, 1_000, 10**6):
            assert_lattice_matches_sets(ta, tb, w)


def assert_shared_merge_matches_oracles(ta, tb, widths):
    # Both strategies read one merge at every width, as a window sweep does.
    ta, tb = np.asarray(ta, dtype=np.int64), np.asarray(tb, dtype=np.int64)
    merged = _merge(ta, tb)
    for w in widths:
        assert_lattice_matches_sets(ta, tb, w, merged)
        assert_greedy_matches_loop(ta, tb, w, merged)


class TestSharedMerge:
    """One merge through several widths: no width may change what the next one reads."""

    @given(EXTREME_TIMES, EXTREME_TIMES, st.lists(EXTREME_WINDOWS, min_size=4, max_size=4))
    @settings(max_examples=200)
    def test_int64_limits(self, ta, tb, widths):
        assert_shared_merge_matches_oracles(ta, tb, widths)

    @given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_crowded_bins(self, n_a, n_b, seed):
        # As TestLatticeAgainstSets.test_crowded_bins, at the span's width and
        # at three more widths log-uniform in [1, 2**60).
        rng = np.random.default_rng(seed)
        widths = [int(2 ** x) for x in rng.uniform(0, 60, 4)]
        start = int(rng.integers(INT64_MIN, INT64_MAX - 4 * widths[0], endpoint=True))
        ta, tb = (np.sort(rng.integers(start, start + 4 * widths[0], n, endpoint=True)) for n in (n_a, n_b))
        assert_shared_merge_matches_oracles(ta, tb, widths)

    @given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_deep_clusters(self, n_a, n_b, seed):
        # As TestGreedyAgainstLoop.test_deep_clusters, at the span's width and
        # at three more widths log-uniform in [1, 2**20).
        rng = np.random.default_rng(seed)
        widths = [int(2 ** x) for x in rng.uniform(0, 20, 4)]
        span = int(rng.integers(0, 4 * widths[0] + 1))
        ta, tb = (np.sort(rng.integers(0, span + 1, n)) for n in (n_a, n_b))
        assert_shared_merge_matches_oracles(ta, tb, widths)

    def test_merge_is_read_only(self):
        t, from_b, n_b = _merge(np.array([1, 5], dtype=np.int64), np.array([3, 5], dtype=np.int64))
        assert t.tolist() == [1, 3, 5, 5] and from_b.tolist() == [False, True, False, True]
        # B events among the first i merged positions, i = 0..4.
        assert n_b.tolist() == [0, 0, 1, 1, 2]
        assert not any(column.flags.writeable for column in (t, from_b, n_b))


class TestGreedy:
    def test_six_event_fixture(self):
        # Frozen fixture with W = 2; oracle below confirms the expected
        # pairing is also the exhaustive optimum.
        a = make_stream("A", [(0, 0, 1), (10, 1, -1), (20, 0, 1)])
        b = make_stream("B", [(1, 1, -1), (11, 0, 1), (29, 1, 1)])
        pairs = match_coincidences(a, b, CoincidencePolicy(window_ns=2, strategy="greedy"))
        assert pairs.meta["matched"] == 2
        rows = list(zip(pairs.x.tolist(), pairs.y.tolist(), pairs.a.tolist(), pairs.b.tolist()))
        assert (0, 1, 1, -1) in rows  # (t=0, t=1)
        assert (1, 0, -1, 1) in rows  # (t=10, t=11)
        assert (0, -1, 1, 0) in rows  # A at t=20 unmatched
        assert (-1, 1, 0, 1) in rows  # B at t=29 unmatched

        oracle = optimal_matching([0, 10, 20], [1, 11, 29], w=2)
        assert oracle == {(0, 0), (1, 1)}

    def test_each_event_used_once(self):
        a = make_stream("A", [(0, 0, 1), (1, 1, 1)])
        b = make_stream("B", [(1, 0, -1)])
        pairs = match_coincidences(a, b, CoincidencePolicy(window_ns=5, strategy="greedy"))
        assert pairs.meta["matched"] == 1
        assert pairs.meta["one_sided_a"] == 1
        # Earliest-first: A(0) claims B(1) even though A(1) is closer.
        matched = [(x, y) for x, y, aa, bb in zip(pairs.x, pairs.y, pairs.a, pairs.b) if aa != 0 and bb != 0]
        assert matched == [(0, 0)]

    def test_simultaneous_tie_processes_station_a_first(self):
        a = make_stream("A", [(5, 1, 1)])
        b = make_stream("B", [(5, 0, -1), (6, 1, 1)])
        pairs = match_coincidences(a, b, CoincidencePolicy(window_ns=3, strategy="greedy"))
        rows = list(zip(pairs.x.tolist(), pairs.y.tolist()))
        assert (1, 0) in rows  # paired with the simultaneous B event

    def test_window_saturation_matches_no_windowing(self):
        # Greedy with W beyond the run duration pairs every event in order,
        # so S equals the value computed on the raw emission record.
        cfg = SourceProtocolConfig(pair_rate=5000.0, duration=1.0)
        model = QuantumSingletModel(angles=CANONICAL_ANGLES)
        out = run_source_experiment(cfg, model, seed=2)
        w = int(2e9)
        pairs = match_coincidences(out.stream_a, out.stream_b, CoincidencePolicy(window_ns=w, strategy="greedy"))
        final, _ = postselect(pairs)
        s_window = chsh(estimate(final.to_context_table()))
        s_truth = chsh(estimate(out.truth.to_context_table()))
        assert s_window == pytest.approx(s_truth, abs=1e-12)


class TestPostselect:
    def test_no_zeros_identity(self):
        pairs = PairedRawData(
            x=np.array([0, 1, 0]), y=np.array([1, 1, 0]),
            a=np.array([1, -1, 1]), b=np.array([-1, -1, 1]),
        )
        final, c = postselect(pairs)
        assert len(final) == 3
        assert c[SettingPair(0, 1)] == 1.0 and c[SettingPair(1, 1)] == 1.0
        assert c[SettingPair(1, 0)] is None  # no rows in that context

    def test_all_zero_side_gives_empty_output(self):
        pairs = PairedRawData(
            x=np.zeros(5, dtype=int), y=np.zeros(5, dtype=int),
            a=np.zeros(5, dtype=int), b=np.ones(5, dtype=int),
        )
        final, c = postselect(pairs)
        assert len(final) == 0
        assert c[SettingPair(0, 0)] == 0.0

    def test_mixed_fixture_hand_count(self):
        # 10 pairs, 4 contain a zero -> 6 retained, C = 0.6.
        a = np.array([1, 1, 0, -1, 1, 0, -1, 1, 0, 0])
        b = np.array([1, -1, 1, -1, 1, -1, 1, -1, 1, -1])
        pairs = PairedRawData(x=np.zeros(10, dtype=int), y=np.zeros(10, dtype=int), a=a, b=b)
        final, c = postselect(pairs)
        assert len(final) == 6
        assert c[SettingPair(0, 0)] == pytest.approx(0.6)
        assert final.meta["retained_rows"] + final.meta["dropped_rows"] == 10

    def test_output_never_larger_than_input(self):
        rng = np.random.default_rng(23)
        pairs = PairedRawData(
            x=rng.integers(0, 2, 200), y=rng.integers(0, 2, 200),
            a=rng.choice([-1, 0, 1], 200), b=rng.choice([-1, 0, 1], 200),
        )
        final, c = postselect(pairs)
        assert len(final) <= len(pairs)
        keep = (pairs.a * pairs.b) != 0
        for s in CONTEXTS:
            mask = (pairs.x == s.x) & (pairs.y == s.y)
            assert c[s] == float((keep & mask).sum() / mask.sum())

    @given(
        st.lists(
            st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]),
                      st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1])),
            max_size=60,
        )
    )
    @settings(max_examples=300)
    def test_exact_retention_and_audit(self, rows):
        # Output bytes are the contract: C per context is the exact ratio, by row count.
        columns = (np.array([r[k] for r in rows], dtype=np.int64) for k in range(4))
        final, c = postselect(PairedRawData(*columns))
        kept = [r for r in rows if r[2] != 0 and r[3] != 0]
        for s in CONTEXTS:
            total = sum(1 for r in rows if r[:2] == (s.x, s.y))
            retained = sum(1 for r in kept if r[:2] == (s.x, s.y))
            assert c[s] == (None if total == 0 else retained / total)
        assert list(zip(*(getattr(final, k).tolist() for k in "xyab"))) == kept
        meta = final.meta
        assert (meta["input_rows"], meta["retained_rows"], meta["dropped_rows"]) == (
            len(rows), len(kept), len(rows) - len(kept)
        )
        assert meta["unattributed_rows"] == sum(1 for r in rows if min(r[:2]) < 0)


class TestWindowSweep:
    def test_tiny_window_starves_jittered_streams(self):
        cfg = SourceProtocolConfig(pair_rate=200.0, duration=1.0, jitter_sd=100_000.0)
        out = run_source_experiment(cfg, QuantumSingletModel(angles=CANONICAL_ANGLES), seed=5)
        points = window_sweep(out.stream_a, out.stream_b, [1])
        assert points[0].s is None

    def test_delay_fixture_moves_s_by_more_than_a_tenth(self):
        # Oracle: the same chain run manually at the two extreme widths.
        # Outcome-channel delays on both stations make the retained joint
        # outcome distribution depend on the window width, which moves S.
        cfg = SourceProtocolConfig(
            pair_rate=100_000.0, duration=0.5, jitter_sd=2.0,
            setting_delay_a=(0.0, 4.0), setting_delay_b=(0.0, 6.0),
            outcome_delay_a=(0.0, 8.0), outcome_delay_b=(0.0, 8.0),
        )
        out = run_source_experiment(cfg, pearle_model(CANONICAL_ANGLES), seed=6)
        widths = [4, 15, 60]
        points = window_sweep(out.stream_a, out.stream_b, widths)
        values = [p.s for p in points]
        assert all(v is not None for v in values)
        assert max(values) - min(values) > 0.1
        for w, point in zip((4, 60), (points[0], points[2])):
            pairs = match_coincidences(out.stream_a, out.stream_b, CoincidencePolicy(window_ns=w))
            final, _ = postselect(pairs)
            assert chsh(estimate(final.to_context_table())) == pytest.approx(point.s, abs=1e-12)

    def test_deterministic(self):
        cfg = SourceProtocolConfig(pair_rate=2000.0, duration=0.2, jitter_sd=3.0)
        out = run_source_experiment(cfg, pearle_model(CANONICAL_ANGLES), seed=7)
        p1 = window_sweep(out.stream_a, out.stream_b, [5, 10])
        p2 = window_sweep(out.stream_a, out.stream_b, [5, 10])
        assert [p.s for p in p1] == [p.s for p in p2]
        c1, c2 = ([[p.summary[s].c for s in CONTEXTS] for p in ps] for ps in (p1, p2))
        assert c1 == c2

    @pytest.mark.parametrize("strategy", ["lattice", "greedy"])
    def test_sweep_equals_one_width_calls(self, strategy, monkeypatch):
        # The sweep shares one merge across widths; each width must give what
        # match_coincidences and postselect give for that width alone.
        cfg = SourceProtocolConfig(
            pair_rate=100_000.0, duration=0.05, jitter_sd=2.0,
            setting_delay_a=(0.0, 4.0), setting_delay_b=(0.0, 6.0),
            outcome_delay_a=(0.0, 8.0), outcome_delay_b=(0.0, 8.0),
        )
        out = run_source_experiment(cfg, pearle_model(CANONICAL_ANGLES), seed=11)
        swept = []

        def recording_postselect(pairs):
            swept.append(postselect(pairs))
            return swept[-1]

        monkeypatch.setattr(pipeline, "postselect", recording_postselect)
        widths = [3, 15, 60, 1_000, 15]
        points = window_sweep(out.stream_a, out.stream_b, widths, strategy)
        assert len(swept) == len(points) == len(widths)
        for w, point, (final, c_table) in zip(widths, points, swept):
            policy = CoincidencePolicy(window_ns=w, strategy=strategy)
            alone, alone_c = postselect(match_coincidences(out.stream_a, out.stream_b, policy))
            for k in "xyab":
                assert getattr(final, k).tolist() == getattr(alone, k).tolist()
            assert final.meta == alone.meta == point.meta
            assert c_table == alone_c
            assert np.array_equal(point.table.counts, alone.to_context_table().counts)
            assert {s: point.summary[s].c for s in CONTEXTS} == alone_c

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["lattice", "greedy"]),
        st.sampled_from(["none", "A", "B"]),
    )
    @settings(max_examples=60)
    def test_tables_equal_one_width_chain(self, seed, strategy, empty):
        # The sweep tallies each width's raw rows once and reports that tally
        # as the post-selected rows' table.
        rng = np.random.default_rng(seed)
        streams = []
        for station in "AB":
            n = 0 if station == empty else int(rng.integers(0, 200))
            streams.append(RawEventStream(
                station, np.sort(rng.integers(-50, 400, n)), rng.integers(0, 2, n), rng.choice([-1, 1], n)
            ))
        widths = [int(w) for w in rng.integers(1, 60, 3)]
        for w, point in zip(widths, window_sweep(*streams, widths, strategy)):
            raw = match_coincidences(*streams, CoincidencePolicy(window_ns=w, strategy=strategy))
            final, _ = postselect(raw)
            assert np.array_equal(point.table.counts, final.to_context_table().counts)
            assert point.meta == final.meta

    @pytest.mark.parametrize("strategy", ["lattice", "greedy"])
    def test_one_tally_per_width(self, strategy, monkeypatch):
        # postselect and the point's table share the raw rows' cached tally.
        tallies = []
        tally = ContextTable.from_arrays

        def counting_tally(*columns):
            tallies.append(columns)
            return tally(*columns)

        monkeypatch.setattr(ContextTable, "from_arrays", counting_tally)
        a = make_stream("A", [(1, 0, 1), (9, 1, -1), (30, 0, 1)])
        b = make_stream("B", [(2, 1, 1), (12, 0, -1), (50, 1, 1)])
        widths = [4, 15, 60, 15]
        window_sweep(a, b, widths, strategy)
        assert len(tallies) == len(widths)

    def test_empty_width_list_rejected(self):
        a = make_stream("A", [])
        b = make_stream("B", [])
        with pytest.raises(ValueError):
            window_sweep(a, b, [])

    def test_bad_width_rejected_before_any_pairing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(pipeline, "match_coincidences", lambda *args: calls.append(args))
        a = make_stream("A", [(5, 0, 1)])
        b = make_stream("B", [(6, 0, -1)])
        with pytest.raises(ValueError, match="window width"):
            window_sweep(a, b, [15, 0])
        assert calls == []

    @pytest.mark.parametrize("width", [2.9, 2.0, True, "2"])
    def test_non_integer_width_rejected(self, width):
        # 2.9 would bin by t // 2.9 while the audit records 2.
        a = make_stream("A", [(5, 0, 1)])
        b = make_stream("B", [(6, 0, -1)])
        with pytest.raises(ValueError, match="window width must be an integer"):
            window_sweep(a, b, [width])

    def test_numpy_integer_width_stored_as_int(self):
        policy = CoincidencePolicy(window_ns=np.int64(15))
        assert type(policy.window_ns) is int and policy.window_ns == 15


def test_row_containers_compare_by_identity():
    # A generated __eq__ would compare tuples of numpy columns, which raises
    # on two rows; equality is identity, so == always gives a bool.
    pairs = PairedRawData([0, 1], [1, 0], [1, -1], [1, 0])
    stream = make_stream("A", [(1, 0, 1), (2, 1, -1)])
    for item, twin in ((pairs, PairedRawData([0, 1], [1, 0], [1, -1], [1, 0])),
                       (stream, make_stream("A", [(1, 0, 1), (2, 1, -1)]))):
        assert (item == twin) is False
        assert (item == item) is True
        assert (item != twin) is True
