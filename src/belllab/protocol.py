"""Experimental protocol simulators.

Two families are simulated:

* Source-based runs: a source emits pairs at a configured rate over a run of
  fixed duration; each station independently chooses a setting per emission,
  the coupling model produces raw outcomes (0 = no detection), and detected
  outcomes become time-tagged events with Gaussian jitter plus optional
  deterministic shifts per local setting (``setting_delay``) and per outcome
  channel (``outcome_delay``, the "registration delay" of the +1 and -1
  detectors). Dark counts are appended per station as independent events.
  The per-emission truth record (settings and raw outcomes, zeros included)
  is returned alongside the streams: it is the raw paired data that the
  detection streams alone cannot reconstruct, and the input to raw-data
  no-signalling checks.

* Event-ready runs: heralded preparation with retry, uniform setting
  choices, singlet readout at a configured visibility, and independent
  readout-flip noise per station. Every heralded trial yields a valid
  readout, so the record count equals the trial count exactly.

Setting choices at the two stations come from separate random streams, and
are independent of each other and of all model draws. Generation is chunked
with one counter-based stream per (seed, purpose, chunk), so identical
(config, model, seed) give bit-identical output for any worker count.

The delay and rejection knobs are hypothesis mechanisms for reported
coincidence anomalies, not claims about what produced them in any actual
experiment.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import rng as _rng
from .core import MAX_ITEMS, AngleAssignment
from .couplings import CouplingModel, QuantumSingletModel, sample_batch
from .errors import ConfigError
from .pipeline import PairedRawData

__all__ = [
    "SourceProtocolConfig",
    "EventReadyConfig",
    "RawEventStream",
    "SourceRun",
    "EventReadyRun",
    "run_source_experiment",
    "run_event_ready",
    "worker_count",
]

#: Trials/emissions are generated in independent chunks of this size. The
#: value is part of the reproducibility contract: changing it changes
#: bit-level output.
CHUNK = 1 << 16


def worker_count() -> int:
    """Worker cap from BELLLAB_THREADS (default: all cores). Never affects results."""
    raw = os.environ.get("BELLLAB_THREADS")
    if not raw:
        return os.cpu_count() or 1
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ConfigError("BELLLAB_THREADS", f"must be an integer >= 1, got {raw!r}")
    return int(raw)


def _run_chunks(n_items: int, make_chunk) -> list:
    """Evaluate make_chunk(start, stop, index) over CHUNK-sized ranges, in order."""
    spans = [
        (start, min(start + CHUNK, n_items), i)
        for i, start in enumerate(range(0, n_items, CHUNK))
    ]
    workers = min(worker_count(), max(len(spans), 1))
    if workers <= 1 or len(spans) <= 1:
        return [make_chunk(*span) for span in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda span: make_chunk(*span), spans))


@dataclass(frozen=True)
class SourceProtocolConfig:
    """Source-based run parameters. Times are seconds; delays/jitter are ns.

    ``setting_delay_*`` shift a station's event times by local setting label
    (index 0, 1); ``outcome_delay_*`` by outcome channel (index 0 for +1,
    index 1 for -1). Both default to no shift.
    """

    pair_rate: float
    duration: float
    jitter_sd: float = 0.0
    dark_rate: float = 0.0
    setting_delay_a: tuple[float, float] = (0.0, 0.0)
    setting_delay_b: tuple[float, float] = (0.0, 0.0)
    outcome_delay_a: tuple[float, float] = (0.0, 0.0)
    outcome_delay_b: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("pair_rate", "dark_rate", "jitter_sd"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        # Emission times are int64 nanoseconds.
        if not 0 < self.duration * 1e9 < 2**63:
            raise ValueError(f"duration must be in (0, 2**63 ns), got {self.duration!r}")
        for name in ("pair_rate", "dark_rate"):
            count = getattr(self, name) * self.duration
            if count > MAX_ITEMS:
                raise ValueError(f"{name} * duration must be <= {MAX_ITEMS}, got {count!r}")


@dataclass(frozen=True)
class EventReadyConfig:
    """Event-ready run parameters: heralding, visibility, readout fidelities."""

    herald_prob: float
    visibility: float = 1.0
    fidelity_a: float = 1.0
    fidelity_b: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.herald_prob <= 1.0):
            raise ValueError(f"herald_prob must be in (0, 1], got {self.herald_prob}")
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")
        for name, f in (("fidelity_a", self.fidelity_a), ("fidelity_b", self.fidelity_b)):
            if not (0.5 <= f <= 1.0):
                raise ValueError(f"{name} must be in [0.5, 1], got {f}")


@dataclass(frozen=True)
class RawEventStream:
    """One station's time-tagged detections, sorted by (time, sequence number)."""

    station: str
    times: np.ndarray
    settings: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        if self.station not in ("A", "B"):
            raise ValueError("station must be 'A' or 'B'")
        times = np.asarray(self.times, dtype=np.int64)
        settings = np.asarray(self.settings)
        outcomes = np.asarray(self.outcomes)
        if not (len(times) == len(settings) == len(outcomes)):
            raise ValueError("stream columns must have equal length")
        # Check the values as given, before narrowing: int8(257) would read as 1.
        if not np.isin(settings, (0, 1)).all():
            raise ValueError("stream settings must be 0 or 1")
        if not np.isin(outcomes, (-1, 1)).all():
            raise ValueError("stream outcomes must be +/-1")
        settings = settings.astype(np.int8)
        outcomes = outcomes.astype(np.int8)
        for arr in (times, settings, outcomes):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "outcomes", outcomes)

    def __len__(self) -> int:
        return len(self.times)

    def is_sorted(self) -> bool:
        return bool((np.diff(self.times) >= 0).all()) if len(self) > 1 else True


@dataclass(frozen=True)
class SourceRun:
    """Output of a source-based run: two streams plus the emission truth record."""

    stream_a: RawEventStream
    stream_b: RawEventStream
    truth: PairedRawData
    metadata: dict = field(default_factory=dict)


class EventReadyRun:
    """Event-ready trial results as parallel columns; every trial is ready."""

    def __init__(self, x: np.ndarray, y: np.ndarray, a: np.ndarray, b: np.ndarray, metadata: dict):
        self.x = np.asarray(x, dtype=np.int8)
        self.y = np.asarray(y, dtype=np.int8)
        self.a = np.asarray(a, dtype=np.int8)
        self.b = np.asarray(b, dtype=np.int8)
        self.metadata = metadata
        for arr in (self.x, self.y, self.a, self.b):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.x)


def run_event_ready(
    cfg: EventReadyConfig,
    angles: AngleAssignment,
    n_trials: int,
    seed: int,
) -> EventReadyRun:
    """Simulate ``n_trials`` heralded trials.

    Per trial: the herald retries until success (attempt counts go to
    metadata), both settings are drawn uniformly and independently, the
    singlet model at the configured visibility produces (a, b), and each
    outcome is flipped independently with probability 1 - fidelity. All
    records are ready=True and the record count equals ``n_trials``.

    Per-chunk draw order: herald attempts, x, y, model draws, flip draws.
    """
    if not 1 <= n_trials <= MAX_ITEMS:
        raise ValueError(f"n_trials must be in [1, {MAX_ITEMS}], got {n_trials}")
    model = QuantumSingletModel(angles=angles, visibility=cfg.visibility)

    def make_chunk(start: int, stop: int, index: int):
        m = stop - start
        g = _rng.stream(seed, "event-ready", index)
        attempts = g.geometric(cfg.herald_prob, size=m)
        if attempts.max() > np.iinfo(np.int64).max // m:
            # geometric() saturates at INT64_MAX and the chunk sum would wrap.
            raise ValueError(
                f"herald_prob={cfg.herald_prob!r} is too small: herald attempt counts overflow"
            )
        x = g.integers(0, 2, size=m, dtype=np.int8)
        y = g.integers(0, 2, size=m, dtype=np.int8)
        a, b = sample_batch(model, x, y, g)
        flip_a = g.random(m) < (1.0 - cfg.fidelity_a)
        flip_b = g.random(m) < (1.0 - cfg.fidelity_b)
        a = np.where(flip_a, -a, a).astype(np.int8)
        b = np.where(flip_b, -b, b).astype(np.int8)
        return int(attempts.sum()), x, y, a, b

    chunks = _run_chunks(n_trials, make_chunk)
    total_attempts = sum(c[0] for c in chunks)
    x = np.concatenate([c[1] for c in chunks])
    y = np.concatenate([c[2] for c in chunks])
    a = np.concatenate([c[3] for c in chunks])
    b = np.concatenate([c[4] for c in chunks])
    metadata = {
        "n_trials": int(n_trials),
        "herald_attempts": int(total_attempts),
        "seed": int(seed),
    }
    return EventReadyRun(x, y, a, b, metadata)


def _emission_events(
    emit_times: np.ndarray,
    settings: np.ndarray,
    outcomes: np.ndarray,
    jitter: np.ndarray,
    setting_delay: tuple[float, float],
    outcome_delay: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    detected = outcomes != 0
    t = emit_times[detected]
    s = settings[detected]
    o = outcomes[detected]
    shift = (
        jitter[detected]
        + np.take(setting_delay, s)
        + np.take(outcome_delay, np.where(o == 1, 0, 1))
    )
    times = t + np.rint(shift).astype(np.int64)
    seq = np.flatnonzero(detected)
    return times, s, o, seq


def run_source_experiment(
    cfg: SourceProtocolConfig, model: CouplingModel, seed: int
) -> SourceRun:
    """Simulate a source-based run, returning both streams and the truth record.

    Exactly round(pair_rate * duration) pairs are emitted at i.i.d. uniform
    integer-ns times. Per emission each station draws its setting uniformly
    from its own stream; the model is sampled at the realized context; a
    nonzero outcome becomes an event at emission time + rounded(jitter +
    setting delay + outcome-channel delay); zero outcomes emit nothing.
    Dark counts (Poisson, uniform times, uniform setting and outcome) are
    appended per station. Events are sorted by time with ties broken by
    emission sequence number, dark events last.
    """
    n_emit = int(round(cfg.pair_rate * cfg.duration))
    duration_ns = max(int(round(cfg.duration * 1e9)), 1)
    warnings = []
    if n_emit < 1:
        warnings.append("expected pair count below 1; streams contain only dark counts")

    emit_times = np.sort(
        _rng.stream(seed, "source-times").integers(0, duration_ns, size=n_emit)
    ).astype(np.int64)

    def make_chunk(start: int, stop: int, index: int):
        m = stop - start
        x = _rng.stream(seed, "source-settings-a", index).integers(0, 2, size=m, dtype=np.int8)
        y = _rng.stream(seed, "source-settings-b", index).integers(0, 2, size=m, dtype=np.int8)
        a, b = sample_batch(model, x, y, _rng.stream(seed, "source-model", index))
        jit_a = _rng.stream(seed, "source-jitter-a", index).normal(0.0, cfg.jitter_sd, size=m)
        jit_b = _rng.stream(seed, "source-jitter-b", index).normal(0.0, cfg.jitter_sd, size=m)
        return x, y, a.astype(np.int8), b.astype(np.int8), jit_a, jit_b

    chunks = _run_chunks(n_emit, make_chunk)
    if chunks:
        x = np.concatenate([c[0] for c in chunks])
        y = np.concatenate([c[1] for c in chunks])
        a = np.concatenate([c[2] for c in chunks])
        b = np.concatenate([c[3] for c in chunks])
        jit_a = np.concatenate([c[4] for c in chunks])
        jit_b = np.concatenate([c[5] for c in chunks])
    else:
        x = y = a = b = np.zeros(0, dtype=np.int8)
        jit_a = jit_b = np.zeros(0)

    streams = {}
    dark_counts = {}
    for station, settings, outcomes, jitter, d_set, d_out in (
        ("A", x, a, jit_a, cfg.setting_delay_a, cfg.outcome_delay_a),
        ("B", y, b, jit_b, cfg.setting_delay_b, cfg.outcome_delay_b),
    ):
        times, s_det, o_det, seq = _emission_events(
            emit_times, settings, outcomes, jitter, d_set, d_out
        )
        g = _rng.stream(seed, f"source-dark-{station.lower()}")
        n_dark = int(g.poisson(cfg.dark_rate * cfg.duration))
        dark_times = g.integers(0, duration_ns, size=n_dark).astype(np.int64)
        dark_settings = g.integers(0, 2, size=n_dark, dtype=np.int8)
        dark_outcomes = (1 - 2 * g.integers(0, 2, size=n_dark)).astype(np.int8)
        dark_counts[station] = n_dark

        all_times = np.concatenate([times, dark_times])
        all_settings = np.concatenate([s_det, dark_settings])
        all_outcomes = np.concatenate([o_det, dark_outcomes])
        all_seq = np.concatenate([seq, n_emit + np.arange(n_dark)])
        order = np.lexsort((all_seq, all_times))
        streams[station] = RawEventStream(
            station=station,
            times=all_times[order],
            settings=all_settings[order],
            outcomes=all_outcomes[order],
        )

    truth = PairedRawData(x=x, y=y, a=a, b=b, meta={"source": "emission-truth"})
    metadata = {
        "n_emissions": int(n_emit),
        "dark_a": dark_counts["A"],
        "dark_b": dark_counts["B"],
        "events_a": len(streams["A"]),
        "events_b": len(streams["B"]),
        "seed": int(seed),
        "warnings": warnings,
    }
    return SourceRun(
        stream_a=streams["A"], stream_b=streams["B"], truth=truth, metadata=metadata
    )
