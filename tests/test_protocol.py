"""Protocol simulators: event-ready trials and source-based streams."""

import math

import numpy as np
import pytest

from belllab.core import CANONICAL_ANGLES, CONTEXTS, AngleAssignment, ContextTable, chsh, estimate
from belllab.couplings import QuantumSingletModel, pearle_model, sample_batch
from belllab.protocol import (
    CHUNK,
    EventReadyConfig,
    SourceProtocolConfig,
    run_event_ready,
    run_source_experiment,
)
from belllab.rng import stream

SQRT2 = math.sqrt(2)


class TestEventReady:
    def test_record_count_and_ready_flag(self):
        cfg = EventReadyConfig(herald_prob=0.5)
        run = run_event_ready(cfg, CANONICAL_ANGLES, 1000, seed=1)
        assert len(run) == 1000
        assert np.isin(run.a, (-1, 1)).all() and np.isin(run.b, (-1, 1)).all()

    def test_tiny_herald_prob_rejected_before_the_count_wraps(self):
        # geometric() saturates at INT64_MAX; a chunk sum of such draws wraps negative.
        for p in (1e-300, 1e-15):
            with pytest.raises(ValueError, match="herald_prob"):
                run_event_ready(EventReadyConfig(herald_prob=p), CANONICAL_ANGLES, CHUNK, seed=1)

    def test_perfect_case_anticorrelates(self):
        angles = AngleAssignment(alice=(0.2, 0.2), bob=(0.2, 0.2))  # theta = 0 everywhere
        run = run_event_ready(EventReadyConfig(herald_prob=1.0), angles, 500, seed=2)
        assert (run.a == -run.b).all()

    def test_herald_attempts_counted(self):
        run = run_event_ready(EventReadyConfig(herald_prob=1.0), CANONICAL_ANGLES, 400, seed=3)
        assert run.metadata["herald_attempts"] == 400
        run = run_event_ready(EventReadyConfig(herald_prob=0.25), CANONICAL_ANGLES, 10_000, seed=3)
        attempts = run.metadata["herald_attempts"]
        # Mean attempts per trial is 1/p = 4; sd of the total ~ sqrt(n*12).
        assert attempts == pytest.approx(40_000, abs=5 * math.sqrt(10_000 * 12))

    def test_flip_noise_composition(self):
        # Oracle: readout flips compose analytically to
        # E = -(2 Fa - 1)(2 Fb - 1) V cos(theta).
        fa, fb, v = 0.9, 0.8, 0.85
        cfg = EventReadyConfig(herald_prob=1.0, visibility=v, fidelity_a=fa, fidelity_b=fb)
        n = 1_000_000
        run = run_event_ready(cfg, CANONICAL_ANGLES, n, seed=11)
        summary = estimate(ContextTable.from_arrays(run.x, run.y, run.a, run.b))
        for s in CONTEXTS:
            expected = -(2 * fa - 1) * (2 * fb - 1) * v * math.cos(CANONICAL_ANGLES.theta(s))
            est = summary[s].e_ab
            sigma = math.sqrt((1 - expected**2) / summary[s].n_pairs)
            assert est == pytest.approx(expected, abs=5 * sigma)

    def test_zurich_calibration_value(self):
        # V chosen as S_target / (2 sqrt 2) reproduces the reported S.
        target = 2.0747
        cfg = EventReadyConfig(herald_prob=1.0, visibility=target / (2 * SQRT2))
        run = run_event_ready(cfg, CANONICAL_ANGLES, 1_000_000, seed=5)
        s = chsh(estimate(ContextTable.from_arrays(run.x, run.y, run.a, run.b)))
        assert abs(s) == pytest.approx(target, abs=0.02)

    def test_readout_fidelities_scale_the_calibrated_s(self):
        # With the reported per-station fidelities, |S| shrinks by
        # (2 Fa - 1)(2 Fb - 1) relative to the unit-fidelity calibration.
        target = 2.0747
        fa, fb = 0.9905, 0.9760
        cfg = EventReadyConfig(
            herald_prob=1.0, visibility=target / (2 * SQRT2), fidelity_a=fa, fidelity_b=fb
        )
        run = run_event_ready(cfg, CANONICAL_ANGLES, 1_000_000, seed=15)
        s = chsh(estimate(ContextTable.from_arrays(run.x, run.y, run.a, run.b)))
        assert abs(s) == pytest.approx(target * (2 * fa - 1) * (2 * fb - 1), abs=0.02)

    def test_reproducible_and_chunk_spanning(self):
        n = CHUNK + 1234  # force a partial second chunk
        cfg = EventReadyConfig(herald_prob=0.7, visibility=0.9)
        r1 = run_event_ready(cfg, CANONICAL_ANGLES, n, seed=9)
        r2 = run_event_ready(cfg, CANONICAL_ANGLES, n, seed=9)
        for name in ("x", "y", "a", "b"):
            assert (getattr(r1, name) == getattr(r2, name)).all()
        r3 = run_event_ready(cfg, CANONICAL_ANGLES, n, seed=10)
        assert not (r1.a == r3.a).all()

    def test_worker_count_does_not_change_output(self, monkeypatch):
        n = 3 * CHUNK + 17
        cfg = EventReadyConfig(herald_prob=0.9)
        monkeypatch.setenv("BELLLAB_THREADS", "1")
        r1 = run_event_ready(cfg, CANONICAL_ANGLES, n, seed=4)
        monkeypatch.setenv("BELLLAB_THREADS", "4")
        r2 = run_event_ready(cfg, CANONICAL_ANGLES, n, seed=4)
        for name in ("x", "y", "a", "b"):
            assert (getattr(r1, name) == getattr(r2, name)).all()
        assert r1.metadata == r2.metadata

    def test_setting_choices_independent_and_uniform(self):
        run = run_event_ready(EventReadyConfig(herald_prob=1.0), CANONICAL_ANGLES, 100_000, seed=6)
        n = len(run)
        for s in CONTEXTS:
            count = int(((run.x == s.x) & (run.y == s.y)).sum())
            assert count == pytest.approx(n / 4, abs=5 * math.sqrt(n * 3 / 16))
        corr = np.corrcoef(run.x.astype(float), run.y.astype(float))[0, 1]
        assert abs(corr) < 5 / math.sqrt(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            EventReadyConfig(herald_prob=0.0)
        with pytest.raises(ValueError):
            EventReadyConfig(herald_prob=0.5, fidelity_a=0.4)
        with pytest.raises(ValueError):
            run_event_ready(EventReadyConfig(herald_prob=0.5), CANONICAL_ANGLES, 0, seed=1)


class TestSourceExperiment:
    def test_lossless_limit(self):
        cfg = SourceProtocolConfig(pair_rate=1000.0, duration=1.0)
        model = QuantumSingletModel(angles=CANONICAL_ANGLES)
        out = run_source_experiment(cfg, model, seed=7)
        assert len(out.stream_a) == 1000 and len(out.stream_b) == 1000
        assert (out.stream_a.times == out.stream_b.times).all()
        assert out.metadata["n_emissions"] == 1000
        assert len(out.truth) == 1000
        assert out.truth.n_unattributed == 0

    def test_dark_only_run(self):
        cfg = SourceProtocolConfig(pair_rate=0.0, duration=1.0, dark_rate=500.0)
        model = QuantumSingletModel(angles=CANONICAL_ANGLES)
        out = run_source_experiment(cfg, model, seed=8)
        assert out.metadata["n_emissions"] == 0
        assert len(out.truth) == 0
        assert out.metadata["warnings"]
        assert len(out.stream_a) == out.metadata["dark_a"]
        assert len(out.stream_b) == out.metadata["dark_b"]
        # Poisson sanity at desk scale.
        for n in (out.metadata["dark_a"], out.metadata["dark_b"]):
            assert n == pytest.approx(500, abs=5 * math.sqrt(500))
        # Dark outcomes are fair coins.
        mean = float(out.stream_a.outcomes.astype(float).mean())
        assert abs(mean) < 5 / math.sqrt(len(out.stream_a))

    def test_streams_time_sorted(self):
        cfg = SourceProtocolConfig(pair_rate=50_000.0, duration=0.5, jitter_sd=5.0, dark_rate=100.0)
        out = run_source_experiment(cfg, pearle_model(CANONICAL_ANGLES), seed=9)
        assert out.stream_a.is_sorted() and out.stream_b.is_sorted()

    def test_matches_reference_event_loop(self):
        # Oracle: an independent per-emission reimplementation of the event
        # loop, consuming the documented streams in the documented order.
        cfg = SourceProtocolConfig(
            pair_rate=50.0,
            duration=1.0,
            jitter_sd=3.0,
            setting_delay_a=(0.0, 4.0),
            setting_delay_b=(1.0, 0.0),
            outcome_delay_a=(0.0, 2.0),
            outcome_delay_b=(0.5, 0.0),
        )
        model = pearle_model(CANONICAL_ANGLES, bins=36, threshold_bins=8)
        seed = 13
        out = run_source_experiment(cfg, model, seed=seed)

        n = 50
        duration_ns = int(round(cfg.duration * 1e9))
        times = np.sort(stream(seed, "source-times").integers(0, duration_ns, size=n))
        x = stream(seed, "source-settings-a", 0).integers(0, 2, size=n, dtype=np.int8)
        y = stream(seed, "source-settings-b", 0).integers(0, 2, size=n, dtype=np.int8)
        a, b = sample_batch(model, x, y, stream(seed, "source-model", 0))
        jit_a = stream(seed, "source-jitter-a", 0).normal(0.0, cfg.jitter_sd, size=n)
        jit_b = stream(seed, "source-jitter-b", 0).normal(0.0, cfg.jitter_sd, size=n)

        events_a = []
        for i in range(n):
            if a[i] != 0:
                shift = jit_a[i] + cfg.setting_delay_a[x[i]]
                shift += cfg.outcome_delay_a[0] if a[i] == 1 else cfg.outcome_delay_a[1]
                events_a.append((int(times[i] + np.rint(shift)), int(x[i]), int(a[i]), i))
        events_a.sort(key=lambda e: (e[0], e[3]))
        assert [e[0] for e in events_a] == out.stream_a.times.tolist()
        assert [e[1] for e in events_a] == out.stream_a.settings.tolist()
        assert [e[2] for e in events_a] == out.stream_a.outcomes.tolist()

        events_b = []
        for i in range(n):
            if b[i] != 0:
                shift = jit_b[i] + cfg.setting_delay_b[y[i]]
                shift += cfg.outcome_delay_b[0] if b[i] == 1 else cfg.outcome_delay_b[1]
                events_b.append((int(times[i] + np.rint(shift)), int(y[i]), int(b[i]), i))
        events_b.sort(key=lambda e: (e[0], e[3]))
        assert [e[0] for e in events_b] == out.stream_b.times.tolist()
        # Truth record preserves the per-emission raw outcomes.
        assert (out.truth.x == x).all() and (out.truth.y == y).all()
        assert (out.truth.a == a).all() and (out.truth.b == b).all()

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
        cfg = SourceProtocolConfig(pair_rate=0.1, duration=1.0)
        out = run_source_experiment(cfg, QuantumSingletModel(angles=CANONICAL_ANGLES), seed=1)
        assert out.metadata["warnings"]
