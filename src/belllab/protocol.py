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
  choices, readout by the given singlet model (its angles and visibility),
  and independent readout-flip noise per station. Every heralded trial
  yields a valid readout, so the record count equals the trial count exactly.

Both simulators take their model as an argument, built by the caller; no
model is constructed here.

Setting choices at the two stations come from separate random streams, and
are independent of each other and of all model draws. Generation is chunked
with one counter-based stream per (seed, purpose, chunk), so identical
(config, model, seed) give bit-identical output for any worker count. A
source chunk returns its truth columns and each station's detected events
(int64 times, int8 settings and outcomes), so its jitter draws die with it.

The delay and rejection knobs are hypothesis mechanisms for reported
coincidence anomalies, not claims about what produced them in any actual
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .core import MAX_ITEMS, ordered_map
from .couplings import CouplingModel, QuantumSingletModel, sample_batch
from .pipeline import PairedRawData, RawEventStream

__all__ = [
    "SourceProtocolConfig",
    "EventReadyConfig",
    "SourceRun",
    "run_source_experiment",
    "run_event_ready",
]

#: Trials/emissions are generated in independent chunks of this size. The
#: value is part of the reproducibility contract: changing it changes
#: bit-level output.
CHUNK = 1 << 16


def _run_chunks(n_items: int, make_chunk) -> list[tuple[np.ndarray, ...]]:
    """Evaluate make_chunk(start, stop, index) over CHUNK-sized ranges, on ``ordered_map``'s workers.

    ``make_chunk`` returns a sequence of arrays, its columns. The result holds
    one tuple per column, of that column's chunks in order, for the caller to
    join. An empty run is one empty chunk, so the columns keep their dtypes.
    """
    starts = range(0, n_items, CHUNK) or [0]
    spans = [(start, min(start + CHUNK, n_items), i) for i, start in enumerate(starts)]
    return list(zip(*ordered_map(lambda span: make_chunk(*span), spans)))


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
        # A time tag is an emission time shifted by jitter plus one setting and
        # one outcome delay; it must fit int64 after the cast. A float64 normal
        # draw stays below 64 sd, and 2**62 leaves room for float rounding.
        for s in ("a", "b"):
            delays = (getattr(self, f"setting_delay_{s}"), getattr(self, f"outcome_delay_{s}"))
            reach = float(self.duration * 1e9 + np.abs(delays).sum() + 64 * self.jitter_sd)
            if not reach < 2**62:
                raise ValueError(
                    f"setting_delay_{s}, outcome_delay_{s} and jitter_sd must keep "
                    f"time tags within 2**62 ns, got a reach of {reach!r} ns"
                )


@dataclass(frozen=True)
class EventReadyConfig:
    """Event-ready run parameters: trial count, heralding, readout fidelities."""

    n_trials: int
    herald_prob: float
    fidelity_a: float = 1.0
    fidelity_b: float = 1.0

    def __post_init__(self) -> None:
        if isinstance(self.n_trials, bool) or not isinstance(self.n_trials, (int, np.integer)):
            raise ValueError(f"n_trials must be an integer, got {self.n_trials!r}")
        if not 1 <= self.n_trials <= MAX_ITEMS:
            raise ValueError(f"n_trials must be in [1, {MAX_ITEMS}], got {self.n_trials}")
        if not (0.0 < self.herald_prob <= 1.0):
            raise ValueError(f"herald_prob must be in (0, 1], got {self.herald_prob}")
        for name, f in (("fidelity_a", self.fidelity_a), ("fidelity_b", self.fidelity_b)):
            if not (0.5 <= f <= 1.0):
                raise ValueError(f"{name} must be in [0.5, 1], got {f}")


@dataclass(frozen=True)
class SourceRun:
    """Output of a source-based run: two streams plus the emission truth record."""

    stream_a: RawEventStream
    stream_b: RawEventStream
    truth: PairedRawData
    meta: dict


def run_event_ready(cfg: EventReadyConfig, model: QuantumSingletModel, seed: int) -> PairedRawData:
    """Simulate ``cfg.n_trials`` heralded trials, as paired rows with counts in ``meta``.

    Per trial: the herald retries until success (attempt counts go to
    ``meta``), both settings are drawn uniformly and independently, the
    singlet ``model`` produces (a, b), and each outcome is flipped
    independently with probability 1 - fidelity. All records are ready=True
    and the record count equals ``cfg.n_trials``.

    Per-chunk draw order: herald attempts, x, y, model draws, flip draws.
    """

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
        return attempts.sum(keepdims=True), x, y, a, b

    attempts, x, y, a, b = map(np.concatenate, _run_chunks(cfg.n_trials, make_chunk))
    meta = {
        "n_trials": int(cfg.n_trials),
        # Python ints: the chunk sums fit int64, their total need not.
        "herald_attempts": sum(attempts.tolist()),
        "seed": int(seed),
    }
    return PairedRawData(x, y, a, b, meta=meta)


def _emission_events(
    emit_times: np.ndarray,
    settings: np.ndarray,
    outcomes: np.ndarray,
    jitter: np.ndarray | float,
    setting_delay: tuple[float, float],
    outcome_delay: tuple[float, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One station's events in one chunk; ``jitter`` is one draw per emission, or 0.0."""
    detected = outcomes != 0
    s = np.compress(detected, settings)
    o = np.compress(detected, outcomes)
    if np.ndim(jitter):
        jitter = np.compress(detected, jitter)
    shift = jitter + np.take(setting_delay, s) + np.take(outcome_delay, np.where(o == 1, 0, 1))
    return np.compress(detected, emit_times) + np.rint(shift).astype(np.int64), s, o


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

    emit_times = _rng.stream(seed, "source-times").integers(0, duration_ns, size=n_emit)
    emit_times.sort()

    def make_chunk(start: int, stop: int, index: int):
        m = stop - start
        x = _rng.stream(seed, "source-settings-a", index).integers(0, 2, size=m, dtype=np.int8)
        y = _rng.stream(seed, "source-settings-b", index).integers(0, 2, size=m, dtype=np.int8)
        a, b = sample_batch(model, x, y, _rng.stream(seed, "source-model", index))
        columns = [x, y, a, b]
        for station, settings, outcomes, d_set, d_out in (
            ("a", x, a, cfg.setting_delay_a, cfg.outcome_delay_a),
            ("b", y, b, cfg.setting_delay_b, cfg.outcome_delay_b),
        ):
            # A jitter stream feeds nothing else, and normal(0, 0) draws +0.0.
            g = _rng.stream(seed, f"source-jitter-{station}", index)
            jitter = g.normal(0.0, cfg.jitter_sd, size=m) if cfg.jitter_sd else 0.0
            columns += _emission_events(
                emit_times[start:stop], settings, outcomes, jitter, d_set, d_out
            )
        return columns

    # Each column's chunks are popped as they are joined, so no chunk outlives its join.
    columns = _run_chunks(n_emit, make_chunk)
    del emit_times
    truth = PairedRawData(*(np.concatenate(columns.pop(0)) for _ in "xyab"))

    streams = {}
    dark_counts = {}
    for station in ("A", "B"):
        g = _rng.stream(seed, f"source-dark-{station.lower()}")
        n_dark = int(g.poisson(cfg.dark_rate * cfg.duration))
        dark_counts[station] = n_dark
        dark = (
            g.integers(0, duration_ns, size=n_dark),
            g.integers(0, 2, size=n_dark, dtype=np.int8),
            (1 - 2 * g.integers(0, 2, size=n_dark)).astype(np.int8),
        )
        times, settings, outcomes = (np.concatenate((*columns.pop(0), d)) for d in dark)
        # Detected events come in emission order, then the dark events, so a
        # stable sort breaks time ties by emission, dark events last. Sorting
        # the times in place gives the same values as gathering them.
        order = np.argsort(times, kind="stable")
        settings, outcomes = settings[order], outcomes[order]
        del order
        times.sort()
        streams[station] = RawEventStream(station, times, settings, outcomes)
        del times, settings, outcomes  # the stream holds copies; free these before B's join

    meta = {
        "n_emissions": int(n_emit),
        "dark_a": dark_counts["A"],
        "dark_b": dark_counts["B"],
        "events_a": len(streams["A"]),
        "events_b": len(streams["B"]),
        "seed": int(seed),
        "warnings": warnings,
    }
    return SourceRun(stream_a=streams["A"], stream_b=streams["B"], truth=truth, meta=meta)
