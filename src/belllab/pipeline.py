"""Coincidence pairing and post-selection: streams -> raw pairs -> final pairs.

Two time-tagged detection streams are converted into raw paired data using a
coincidence window of width W, then the nonzero-outcome pairs are extracted
("post-selection") with the retained fraction C reported per context.

Two pairing strategies are provided because "synchronized time windows" can
be read either way; the strategy used is recorded in the pairing metadata:

* ``lattice`` (default): the time axis is cut into fixed bins [kW, (k+1)W);
  a bin with at least one event at each station yields exactly one pair (the
  earliest event per station wins; extra events in the bin are dropped and
  counted), a bin with events on one side only yields a one-sided row.
* ``greedy``: both streams are scanned in time order (ties process station A
  first) and the earliest unconsumed event pairs with the first available
  opposite event within W; each event is used at most once.

One-sided rows from stream pairing carry a -1 sentinel for the remote
station's setting: that information never enters the detection streams and
cannot be reconstructed. Such rows are excluded from per-context tables and
tracked in metadata. Rows from an emission truth record always carry both
settings.

All functions here are pure: identical inputs give identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .core import CONTEXTS, ContextTable, CorrelationSummary, SettingPair, chsh, estimate
from .errors import PipelineError

if TYPE_CHECKING:  # only for annotations; protocol imports this module
    from .protocol import RawEventStream

__all__ = [
    "CoincidencePolicy",
    "PairedRawData",
    "WindowPoint",
    "match_coincidences",
    "postselect",
    "window_sweep",
]

#: Sentinel for "remote setting unknown" in pairs built from streams.
UNKNOWN_SETTING = -1


@dataclass(frozen=True)
class CoincidencePolicy:
    """Window width (ns) and pairing strategy."""

    window_ns: int
    strategy: str = "lattice"

    def __post_init__(self) -> None:
        if self.window_ns <= 0:
            raise PipelineError(f"window width must be positive, got {self.window_ns}")
        if self.strategy not in ("lattice", "greedy"):
            raise PipelineError(f"unknown pairing strategy: {self.strategy!r}")


@dataclass(frozen=True)
class PairedRawData:
    """Rows of (x, y, a, b) with outcomes in {-1, 0, +1}.

    A 0 outcome marks an unmatched slot. Settings are 0/1, or -1 when the
    remote side of a one-sided stream row is unknown; ``n_unattributed``
    counts such rows.
    """

    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        arrays = {name: np.asarray(getattr(self, name)) for name in ("x", "y", "a", "b")}
        lengths = {len(v) for v in arrays.values()}
        if len(lengths) > 1:
            raise PipelineError("paired-data columns must have equal length")
        # Check the values as given, before narrowing: int8(255) would read as -1.
        if not np.isin(arrays["a"], (-1, 0, 1)).all() or not np.isin(arrays["b"], (-1, 0, 1)).all():
            raise PipelineError("outcomes must be in {-1, 0, +1}")
        for name in ("x", "y"):
            if not np.isin(arrays[name], (UNKNOWN_SETTING, 0, 1)).all():
                raise PipelineError("settings must be 0, 1 or the unknown sentinel")
        for name, arr in arrays.items():
            arr = arr.astype(np.int8)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.x)

    @property
    def attributed(self) -> np.ndarray:
        """Boolean mask of rows with both settings known."""
        return (self.x >= 0) & (self.y >= 0)

    @property
    def n_unattributed(self) -> int:
        return int((~self.attributed).sum())

    def to_context_table(self) -> ContextTable:
        """Tally attributed rows into a ContextTable (zeros included)."""
        m = self.attributed
        return ContextTable.from_arrays(self.x[m], self.y[m], self.a[m], self.b[m])


def _require_sorted(stream: "RawEventStream") -> None:
    t = stream.times
    if len(t) > 1:
        bad = np.flatnonzero(np.diff(t) < 0)
        if bad.size:
            i = int(bad[0])
            raise PipelineError(
                f"stream {stream.station} is not time-sorted at index {i + 1} "
                f"(t[{i}]={int(t[i])}, t[{i + 1}]={int(t[i + 1])})"
            )


def _match_lattice(a: "RawEventStream", b: "RawEventStream", w: int) -> PairedRawData:
    bins_a = a.times // w
    bins_b = b.times // w
    # Streams are sorted, so the first index in each bin is the earliest event.
    ua, first_a, counts_a = np.unique(bins_a, return_index=True, return_counts=True)
    ub, first_b, counts_b = np.unique(bins_b, return_index=True, return_counts=True)
    common, ia, ib = np.intersect1d(ua, ub, assume_unique=True, return_indices=True)
    only_a = ~np.isin(ua, common, assume_unique=False)
    only_b = ~np.isin(ub, common, assume_unique=False)

    rows_bin = np.concatenate([common, ua[only_a], ub[only_b]])
    rows_x = np.concatenate(
        [
            a.settings[first_a[ia]],
            a.settings[first_a[only_a]],
            np.full(int(only_b.sum()), UNKNOWN_SETTING, dtype=np.int8),
        ]
    )
    rows_y = np.concatenate(
        [
            b.settings[first_b[ib]],
            np.full(int(only_a.sum()), UNKNOWN_SETTING, dtype=np.int8),
            b.settings[first_b[only_b]],
        ]
    )
    rows_a = np.concatenate(
        [
            a.outcomes[first_a[ia]],
            a.outcomes[first_a[only_a]],
            np.zeros(int(only_b.sum()), dtype=np.int8),
        ]
    )
    rows_b = np.concatenate(
        [
            b.outcomes[first_b[ib]],
            np.zeros(int(only_a.sum()), dtype=np.int8),
            b.outcomes[first_b[only_b]],
        ]
    )
    order = np.argsort(rows_bin, kind="stable")
    dropped_a = int((counts_a - 1).sum())
    dropped_b = int((counts_b - 1).sum())
    meta = {
        "strategy": "lattice",
        "window_ns": int(w),
        "events_a": len(a),
        "events_b": len(b),
        "matched": int(len(common)),
        "one_sided_a": int(only_a.sum()),
        "one_sided_b": int(only_b.sum()),
        "dropped_extra_a": dropped_a,
        "dropped_extra_b": dropped_b,
    }
    return PairedRawData(
        x=rows_x[order], y=rows_y[order], a=rows_a[order], b=rows_b[order], meta=meta
    )


def _match_greedy(a: "RawEventStream", b: "RawEventStream", w: int) -> PairedRawData:
    ta, tb = a.times, b.times
    na, nb = len(ta), len(tb)
    rows: list[tuple[int, int, int, int]] = []
    i = j = 0
    matched = 0
    while i < na and j < nb:
        # Earliest-first; simultaneous events process station A first.
        if ta[i] <= tb[j]:
            if tb[j] - ta[i] <= w:
                rows.append((a.settings[i], b.settings[j], a.outcomes[i], b.outcomes[j]))
                matched += 1
                i += 1
                j += 1
            else:
                rows.append((a.settings[i], UNKNOWN_SETTING, a.outcomes[i], 0))
                i += 1
        else:
            if ta[i] - tb[j] <= w:
                rows.append((a.settings[i], b.settings[j], a.outcomes[i], b.outcomes[j]))
                matched += 1
                i += 1
                j += 1
            else:
                rows.append((UNKNOWN_SETTING, b.settings[j], 0, b.outcomes[j]))
                j += 1
    for k in range(i, na):
        rows.append((a.settings[k], UNKNOWN_SETTING, a.outcomes[k], 0))
    for k in range(j, nb):
        rows.append((UNKNOWN_SETTING, b.settings[k], 0, b.outcomes[k]))
    arr = np.asarray(rows, dtype=np.int8).reshape(-1, 4)
    meta = {
        "strategy": "greedy",
        "window_ns": int(w),
        "events_a": na,
        "events_b": nb,
        "matched": matched,
        "one_sided_a": int(na - matched),
        "one_sided_b": int(nb - matched),
        "dropped_extra_a": 0,
        "dropped_extra_b": 0,
    }
    return PairedRawData(x=arr[:, 0], y=arr[:, 1], a=arr[:, 2], b=arr[:, 3], meta=meta)


def match_coincidences(
    stream_a: "RawEventStream", stream_b: "RawEventStream", policy: CoincidencePolicy
) -> PairedRawData:
    """Pair two detection streams into raw data under the given policy.

    Every event enters exactly one output row or a drop counter; the
    metadata carries the conservation audit (matched, one-sided, dropped).
    Unsorted streams are rejected.
    """
    _require_sorted(stream_a)
    _require_sorted(stream_b)
    if policy.strategy == "lattice":
        return _match_lattice(stream_a, stream_b, policy.window_ns)
    return _match_greedy(stream_a, stream_b, policy.window_ns)


def postselect(
    pairs: PairedRawData,
) -> tuple[PairedRawData, dict[SettingPair, float | None]]:
    """Extract rows with both outcomes nonzero; report retention per context.

    Returns the final data (no zeros) and C per context: retained/total over
    the rows attributed to that context, ``None`` for contexts with no rows.
    Row conservation (retained + dropped = input) is recorded in metadata.
    """
    keep = (pairs.a.astype(np.int16) * pairs.b.astype(np.int16)) != 0
    c_table: dict[SettingPair, float | None] = {}
    for s in CONTEXTS:
        in_ctx = (pairs.x == s.x) & (pairs.y == s.y)
        total = int(in_ctx.sum())
        c_table[s] = None if total == 0 else float((keep & in_ctx).sum() / total)
    meta = {
        "input_rows": len(pairs),
        "retained_rows": int(keep.sum()),
        "dropped_rows": int((~keep).sum()),
        "unattributed_rows": pairs.n_unattributed,
        "pairing": pairs.meta,
    }
    final = PairedRawData(
        x=pairs.x[keep], y=pairs.y[keep], a=pairs.a[keep], b=pairs.b[keep], meta=meta
    )
    return final, c_table


@dataclass(frozen=True)
class WindowPoint:
    """One window-sweep row: width, post-selected summary, S, retention."""

    window_ns: int
    summary: CorrelationSummary
    s: float | None
    c_by_context: dict
    meta: dict

    def to_json(self) -> dict:
        return {
            "window_ns": self.window_ns,
            "S": self.s,
            "summary": self.summary.to_json(),
            "c_by_context": self.c_by_context,
        }


def window_sweep(
    stream_a: "RawEventStream",
    stream_b: "RawEventStream",
    w_values: Sequence[int],
    strategy: str = "lattice",
) -> list[WindowPoint]:
    """Run the pairing + post-selection + estimation chain per window width.

    Starved contexts propagate as ``None`` values of S.
    """
    if len(w_values) == 0:
        raise PipelineError("window sweep needs at least one width")
    points = []
    for w in w_values:
        policy = CoincidencePolicy(window_ns=int(w), strategy=strategy)
        raw = match_coincidences(stream_a, stream_b, policy)
        final, c_table = postselect(raw)
        summary = estimate(final.to_context_table())
        points.append(
            WindowPoint(
                window_ns=int(w),
                summary=summary,
                s=chsh(summary),
                c_by_context={s.key(): c_table[s] for s in CONTEXTS},
                meta=final.meta,
            )
        )
    return points
