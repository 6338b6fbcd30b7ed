"""Protocol simulators: event-ready trials and source-based streams."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from belllab import protocol
from belllab.core import CANONICAL_ANGLES, CONTEXTS, AngleAssignment, ContextTable, chsh, estimate
from belllab.couplings import QuantumSingletModel, pearle_model, sample_batch
from belllab.pipeline import RawEventStream
from belllab.protocol import (
    CHUNK,
    EventReadyConfig,
    SourceProtocolConfig,
    run_event_ready,
    run_source_experiment,
)
from belllab.rng import stream

SQRT2 = math.sqrt(2)
SINGLET = QuantumSingletModel(CANONICAL_ANGLES)


class TestEventReady:
    def test_record_count_and_ready_flag(self):
        cfg = EventReadyConfig(1000, herald_prob=0.5)
        run = run_event_ready(cfg, SINGLET, seed=1)
        assert len(run) == 1000
        assert np.isin(run.a, (-1, 1)).all() and np.isin(run.b, (-1, 1)).all()

    def test_tiny_herald_prob_rejected_before_the_count_wraps(self):
        # geometric() saturates at INT64_MAX; a chunk sum of such draws wraps negative.
        for p in (1e-300, 1e-15):
            with pytest.raises(ValueError, match="herald_prob"):
                run_event_ready(EventReadyConfig(CHUNK, herald_prob=p), SINGLET, seed=1)

    def test_herald_attempts_total_beyond_int64_stays_exact(self, monkeypatch):
        # Each chunk sum fits int64, but their total need not.
        monkeypatch.setattr(protocol, "CHUNK", 1)
        run = run_event_ready(EventReadyConfig(200, herald_prob=1e-17), SINGLET, seed=4)
        expected = sum(int(stream(4, "event-ready", i).geometric(1e-17, size=1)[0]) for i in range(200))
        assert run.meta["herald_attempts"] == expected > 2**63

    def test_perfect_case_anticorrelates(self):
        angles = AngleAssignment(alice=(0.2, 0.2), bob=(0.2, 0.2))  # theta = 0 everywhere
        run = run_event_ready(EventReadyConfig(500, herald_prob=1.0), QuantumSingletModel(angles), seed=2)
        assert (run.a == -run.b).all()

    def test_herald_attempts_counted(self):
        run = run_event_ready(EventReadyConfig(400, herald_prob=1.0), SINGLET, seed=3)
        assert run.meta["herald_attempts"] == 400
        run = run_event_ready(EventReadyConfig(10_000, herald_prob=0.25), SINGLET, seed=3)
        attempts = run.meta["herald_attempts"]
        # Mean attempts per trial is 1/p = 4; sd of the total ~ sqrt(n*12).
        assert attempts == pytest.approx(40_000, abs=5 * math.sqrt(10_000 * 12))

    def test_flip_noise_composition(self):
        # Oracle: readout flips compose analytically to
        # E = -(2 Fa - 1)(2 Fb - 1) V cos(theta).
        fa, fb, v = 0.9, 0.8, 0.85
        n = 1_000_000
        cfg = EventReadyConfig(n, herald_prob=1.0, fidelity_a=fa, fidelity_b=fb)
        run = run_event_ready(cfg, QuantumSingletModel(CANONICAL_ANGLES, visibility=v), seed=11)
        summary = estimate(ContextTable.from_arrays(run.x, run.y, run.a, run.b))
        for s in CONTEXTS:
            expected = -(2 * fa - 1) * (2 * fb - 1) * v * math.cos(CANONICAL_ANGLES.alice[s.x] - CANONICAL_ANGLES.bob[s.y])
            est = summary[s].e_ab
            sigma = math.sqrt((1 - expected**2) / summary[s].n_pairs)
            assert est == pytest.approx(expected, abs=5 * sigma)

    def test_zurich_calibration_value(self):
        # V chosen as S_target / (2 sqrt 2) reproduces the reported S.
        target = 2.0747
        model = QuantumSingletModel(CANONICAL_ANGLES, visibility=target / (2 * SQRT2))
        run = run_event_ready(EventReadyConfig(1_000_000, herald_prob=1.0), model, seed=5)
        s = chsh(estimate(ContextTable.from_arrays(run.x, run.y, run.a, run.b)))
        assert abs(s) == pytest.approx(target, abs=0.02)

    def test_readout_fidelities_scale_the_calibrated_s(self):
        # With the reported per-station fidelities, |S| shrinks by
        # (2 Fa - 1)(2 Fb - 1) relative to the unit-fidelity calibration.
        target = 2.0747
        fa, fb = 0.9905, 0.9760
        cfg = EventReadyConfig(1_000_000, herald_prob=1.0, fidelity_a=fa, fidelity_b=fb)
        model = QuantumSingletModel(CANONICAL_ANGLES, visibility=target / (2 * SQRT2))
        run = run_event_ready(cfg, model, seed=15)
        s = chsh(estimate(ContextTable.from_arrays(run.x, run.y, run.a, run.b)))
        assert abs(s) == pytest.approx(target * (2 * fa - 1) * (2 * fb - 1), abs=0.02)

    def test_reproducible_and_chunk_spanning(self):
        n = CHUNK + 1234  # force a partial second chunk
        cfg = EventReadyConfig(n, herald_prob=0.7)
        model = QuantumSingletModel(CANONICAL_ANGLES, visibility=0.9)
        r1 = run_event_ready(cfg, model, seed=9)
        r2 = run_event_ready(cfg, model, seed=9)
        for name in ("x", "y", "a", "b"):
            assert (getattr(r1, name) == getattr(r2, name)).all()
        r3 = run_event_ready(cfg, model, seed=10)
        assert not (r1.a == r3.a).all()

    def test_worker_count_does_not_change_output(self, monkeypatch):
        n = 3 * CHUNK + 17
        cfg = EventReadyConfig(n, herald_prob=0.9)
        monkeypatch.setenv("BELLLAB_THREADS", "1")
        r1 = run_event_ready(cfg, SINGLET, seed=4)
        monkeypatch.setenv("BELLLAB_THREADS", "4")
        r2 = run_event_ready(cfg, SINGLET, seed=4)
        for name in ("x", "y", "a", "b"):
            assert (getattr(r1, name) == getattr(r2, name)).all()
        assert r1.meta == r2.meta

    def test_setting_choices_independent_and_uniform(self):
        run = run_event_ready(EventReadyConfig(100_000, herald_prob=1.0), SINGLET, seed=6)
        n = len(run)
        for s in CONTEXTS:
            count = int(((run.x == s.x) & (run.y == s.y)).sum())
            assert count == pytest.approx(n / 4, abs=5 * math.sqrt(n * 3 / 16))
        corr = np.corrcoef(run.x.astype(float), run.y.astype(float))[0, 1]
        assert abs(corr) < 5 / math.sqrt(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            EventReadyConfig(1, herald_prob=0.0)
        with pytest.raises(ValueError):
            EventReadyConfig(1, herald_prob=0.5, fidelity_a=0.4)
        with pytest.raises(ValueError):
            EventReadyConfig(n_trials=0, herald_prob=0.5)

    @pytest.mark.parametrize("n_trials", [0, protocol.MAX_ITEMS + 1])
    def test_trial_count_checked_by_the_config(self, n_trials):
        # The config owns the size cap, as SourceProtocolConfig owns pair_rate * duration.
        with pytest.raises(ValueError, match=rf"n_trials must be in \[1, {protocol.MAX_ITEMS}\], got {n_trials}$"):
            EventReadyConfig(n_trials=n_trials, herald_prob=1.0)

    @pytest.mark.parametrize("n_trials", [1000.0, True])
    def test_trial_count_must_be_an_integer(self, n_trials):
        # A float count fails only later, in the run; a bool count reads as 1 trial.
        with pytest.raises(ValueError, match=rf"^n_trials must be an integer, got {n_trials!r}$"):
            EventReadyConfig(n_trials=n_trials, herald_prob=1.0)


def _reference_run(cfg, model, seed):
    """Truth columns and both stations' events, rebuilt one emission at a time.

    Oracle: an independent reimplementation of the event loop, consuming the
    documented streams in the documented order. An event is (time, dark,
    sequence number, setting, outcome), so sorting the tuples gives the
    documented order: by time, then detected events in emission order, then
    dark events in draw order.
    """
    n = int(round(cfg.pair_rate * cfg.duration))
    duration_ns = max(int(round(cfg.duration * 1e9)), 1)
    times = np.sort(stream(seed, "source-times").integers(0, duration_ns, size=n)).tolist()
    columns = {name: [] for name in ("x", "y", "a", "b", "jitter_a", "jitter_b")}
    for index, start in enumerate(range(0, n, CHUNK)):
        m = min(CHUNK, n - start)
        x = stream(seed, "source-settings-a", index).integers(0, 2, size=m, dtype=np.int8)
        y = stream(seed, "source-settings-b", index).integers(0, 2, size=m, dtype=np.int8)
        a, b = sample_batch(model, x, y, stream(seed, "source-model", index))
        for name, values in (("x", x), ("y", y), ("a", a), ("b", b)):
            columns[name] += values.tolist()
        for s in "ab":
            # Drawn at jitter_sd 0 too: normal(0, 0) is +0.0.
            g = stream(seed, f"source-jitter-{s}", index)
            columns[f"jitter_{s}"] += g.normal(0.0, cfg.jitter_sd, size=m).tolist()
    events = {}
    for station, settings, outcomes, jitter, d_set, d_out in (
        ("A", columns["x"], columns["a"], columns["jitter_a"], cfg.setting_delay_a, cfg.outcome_delay_a),
        ("B", columns["y"], columns["b"], columns["jitter_b"], cfg.setting_delay_b, cfg.outcome_delay_b),
    ):
        rows = []
        for i in range(n):
            if outcomes[i] != 0:
                shift = jitter[i] + d_set[settings[i]]
                shift += d_out[0] if outcomes[i] == 1 else d_out[1]
                rows.append((times[i] + int(np.rint(shift)), False, i, settings[i], outcomes[i]))
        g = stream(seed, f"source-dark-{station.lower()}")
        n_dark = int(g.poisson(cfg.dark_rate * cfg.duration))
        dark = zip(
            g.integers(0, duration_ns, size=n_dark).tolist(),
            g.integers(0, 2, size=n_dark, dtype=np.int8).tolist(),
            (1 - 2 * g.integers(0, 2, size=n_dark)).tolist(),
        )
        rows += [(t, True, j, s, o) for j, (t, s, o) in enumerate(dark)]
        events[station] = sorted(rows)
    return [columns[name] for name in "xyab"], events


def _assert_matches_reference(out, truth, events):
    for stream_, rows in ((out.stream_a, events["A"]), (out.stream_b, events["B"])):
        assert stream_.times.dtype == np.int64
        assert stream_.settings.dtype == stream_.outcomes.dtype == np.int8
        assert stream_.times.tolist() == [r[0] for r in rows]
        assert stream_.settings.tolist() == [r[3] for r in rows]
        assert stream_.outcomes.tolist() == [r[4] for r in rows]
    assert out.meta["dark_a"] == sum(r[1] for r in events["A"])
    assert out.meta["dark_b"] == sum(r[1] for r in events["B"])
    # The truth record keeps every emission's raw outcomes, zeros included.
    assert [out.truth.x.tolist(), out.truth.y.tolist(), out.truth.a.tolist(), out.truth.b.tolist()] == truth


class TestSourceExperiment:
    def test_lossless_limit(self):
        cfg = SourceProtocolConfig(pair_rate=1000.0, duration=1.0)
        model = QuantumSingletModel(angles=CANONICAL_ANGLES)
        out = run_source_experiment(cfg, model, seed=7)
        assert len(out.stream_a) == 1000 and len(out.stream_b) == 1000
        assert (out.stream_a.times == out.stream_b.times).all()
        assert out.meta["n_emissions"] == 1000
        assert len(out.truth) == 1000
        assert int(((out.truth.x < 0) | (out.truth.y < 0)).sum()) == 0

    def test_dark_only_run(self):
        cfg = SourceProtocolConfig(pair_rate=0.0, duration=1.0, dark_rate=500.0)
        model = QuantumSingletModel(angles=CANONICAL_ANGLES)
        out = run_source_experiment(cfg, model, seed=8)
        assert out.meta["n_emissions"] == 0
        assert len(out.truth) == 0
        assert out.meta["warnings"]
        assert len(out.stream_a) == out.meta["dark_a"]
        assert len(out.stream_b) == out.meta["dark_b"]
        # Poisson sanity at desk scale.
        for n in (out.meta["dark_a"], out.meta["dark_b"]):
            assert n == pytest.approx(500, abs=5 * math.sqrt(500))
        # Dark outcomes are fair coins.
        mean = float(out.stream_a.outcomes.astype(float).mean())
        assert abs(mean) < 5 / math.sqrt(len(out.stream_a))

    def test_streams_time_sorted(self):
        cfg = SourceProtocolConfig(pair_rate=50_000.0, duration=0.5, jitter_sd=5.0, dark_rate=100.0)
        out = run_source_experiment(cfg, pearle_model(CANONICAL_ANGLES), seed=9)
        for stream in (out.stream_a, out.stream_b):
            assert (stream.times[1:] >= stream.times[:-1]).all()

    def test_matches_reference_event_loop(self, monkeypatch):
        # Three chunks of emissions packed into 1e5 ns, so emissions share
        # times and nearly every dark event ties with a detected one.
        n = 2 * CHUNK + 99
        model = pearle_model(CANONICAL_ANGLES, bins=36, threshold_bins=8)
        for jitter_sd in (0.0, 2.0):
            cfg = SourceProtocolConfig(
                pair_rate=n * 1e4,
                duration=1e-4,
                jitter_sd=jitter_sd,
                dark_rate=2e7,
                setting_delay_a=(0.0, 4.0),
                setting_delay_b=(1.0, 0.0),
                outcome_delay_a=(0.0, 2.0),
                outcome_delay_b=(0.5, 0.0),
            )
            truth, events = _reference_run(cfg, model, seed=13)
            dark_times = {t for t, dark, *_ in events["A"] if dark}
            assert any(t in dark_times for t, dark, *_ in events["A"] if not dark)
            for threads in ("1", "2"):
                monkeypatch.setenv("BELLLAB_THREADS", threads)
                out = run_source_experiment(cfg, model, seed=13)
                assert out.meta["n_emissions"] == n
                _assert_matches_reference(out, truth, events)

    def test_reproducible_across_worker_counts(self, monkeypatch):
        cfg = SourceProtocolConfig(pair_rate=float(2 * CHUNK + 99), duration=1.0, jitter_sd=2.0)
        model = QuantumSingletModel(angles=CANONICAL_ANGLES, visibility=0.8)
        monkeypatch.setenv("BELLLAB_THREADS", "1")
        o1 = run_source_experiment(cfg, model, seed=21)
        monkeypatch.setenv("BELLLAB_THREADS", "8")
        o2 = run_source_experiment(cfg, model, seed=21)
        assert (o1.stream_a.times == o2.stream_a.times).all()
        assert (o1.stream_a.outcomes == o2.stream_a.outcomes).all()
        assert (o1.stream_b.times == o2.stream_b.times).all()
        assert (o1.truth.a == o2.truth.a).all()

    def test_truth_supports_raw_analysis(self):
        cfg = SourceProtocolConfig(pair_rate=20_000.0, duration=1.0)
        out = run_source_experiment(cfg, pearle_model(CANONICAL_ANGLES), seed=3)
        table = out.truth.to_context_table()
        assert table.counts.sum() == 20_000
        summary = estimate(table)
        for s in CONTEXTS:
            assert summary[s].c is not None and 0.0 < summary[s].c < 1.0

    def test_warning_on_subunit_expected_pairs(self):
        # No pair is emitted: the streams hold the dark counts alone.
        cfg = SourceProtocolConfig(pair_rate=0.1, duration=1.0, jitter_sd=2.0, dark_rate=300.0)
        model = QuantumSingletModel(angles=CANONICAL_ANGLES)
        out = run_source_experiment(cfg, model, seed=1)
        assert out.meta["warnings"] and out.meta["n_emissions"] == 0
        _assert_matches_reference(out, *_reference_run(cfg, model, seed=1))


def test_source_run_peak_memory_per_emission(monkeypatch):
    # Each chunk turns its own emissions into events, so no per-emission
    # jitter column outlives its chunk and no column is held twice over the
    # whole run. The shipped Pearle source's jitter and delays, at one thread.
    monkeypatch.setenv("BELLLAB_THREADS", "1")
    n = 1 << 20
    cfg = SourceProtocolConfig(
        pair_rate=float(n),
        duration=1.0,
        jitter_sd=2.0,
        setting_delay_a=(0.0, 4.0),
        setting_delay_b=(0.0, 6.0),
        outcome_delay_a=(0.0, 8.0),
        outcome_delay_b=(0.0, 8.0),
    )
    model = pearle_model(CANONICAL_ANGLES)
    run_source_experiment(dataclasses.replace(cfg, pair_rate=10.0), model, seed=1)
    tracemalloc.start()
    try:
        run_source_experiment(cfg, model, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * n, f"{peak / n:.1f} B per emission"


def test_stream_leaves_caller_arrays_writeable():
    t = np.array([1, 2, 3], dtype=np.int64)
    settings = np.array([0, 1, 0], dtype=np.int8)
    outcomes = np.array([1, 1, -1], dtype=np.int8)
    stream = RawEventStream("A", t, settings, outcomes)
    for column in (t, settings, outcomes):
        assert column.flags.writeable
    t[0] = 99
    assert stream.times.tolist() == [1, 2, 3]
    assert not stream.times.flags.writeable


@pytest.mark.parametrize(
    "times",
    [
        np.array([0, math.nan, 2]),
        np.array([0, 1e30, 2]),
        np.array([0, 2**63, 2**63 + 1], dtype=np.uint64),
        [0, 1.5, 2],
    ],
    ids=["nan", "1e30", "uint64_2**63", "1.5"],
)
def test_stream_rejects_times_an_int64_cast_would_change(times):
    with pytest.raises(ValueError, match="stream B times must be integers"):
        RawEventStream("B", times, [0, 1, 0], [1, 1, -1])


def test_stream_accepts_an_empty_list():
    assert len(RawEventStream("A", [], [], [])) == 0
