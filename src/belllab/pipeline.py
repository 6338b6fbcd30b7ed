"""Coincidence pairing and post-selection: streams -> raw pairs -> final pairs.

Two time-tagged detection streams are converted into raw paired data using a
coincidence window of width W, then the nonzero-outcome pairs are extracted
("post-selection") with the retained fraction C reported per context.

Streams are validated as time-sorted when they are built or read (see
``RawEventStream``), so pairing never sorts or checks them again. Each
strategy decides only which events share a row, as one event index per row
and station (-1 where that station has none); one row builder turns those
indices into columns and the conservation audit.

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

from .core import CONTEXTS, ContextTable, CorrelationSummary, SettingPair, chsh, codes, estimate
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
        # Bins and time differences are int64 nanoseconds.
        if not 0 < self.window_ns < 2**63:
            raise PipelineError(f"window width must be in (0, 2**63) ns, got {self.window_ns}")
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
        if len({len(np.asarray(getattr(self, name))) for name in "xyab"}) > 1:
            raise PipelineError("paired-data columns must have equal length")
        settings, outcomes = (UNKNOWN_SETTING, 0, 1), (-1, 0, 1)
        for name in "xy":
            object.__setattr__(self, name, codes("settings", getattr(self, name), settings))
        for name in "ab":
            object.__setattr__(self, name, codes("outcomes", getattr(self, name), outcomes))

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


def _paired(
    a: "RawEventStream", b: "RawEventStream", ia: np.ndarray, ib: np.ndarray, strategy: str, w: int
) -> PairedRawData:
    """Rows from per-row event indices of each station, -1 where a station has none.

    The audit follows from the indices: an event in no row was dropped as an extra.
    """
    ia = np.asarray(ia, dtype=np.intp)
    ib = np.asarray(ib, dtype=np.intp)
    has_a, has_b = ia >= 0, ib >= 0
    matched = int((has_a & has_b).sum())
    rows_a, rows_b = int(has_a.sum()), int(has_b.sum())
    meta = {
        "strategy": strategy,
        "window_ns": int(w),
        "events_a": len(a),
        "events_b": len(b),
        "matched": matched,
        "one_sided_a": rows_a - matched,
        "one_sided_b": rows_b - matched,
        "dropped_extra_a": len(a) - rows_a,
        "dropped_extra_b": len(b) - rows_b,
    }
    # Index -1 picks the appended entry: the unknown setting, or a zero outcome.
    return PairedRawData(
        x=np.append(a.settings, UNKNOWN_SETTING)[ia],
        y=np.append(b.settings, UNKNOWN_SETTING)[ib],
        a=np.append(a.outcomes, 0)[ia],
        b=np.append(b.outcomes, 0)[ib],
        meta=meta,
    )


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``values`` that differ from the one before."""
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = values[1:] != values[:-1]
    return starts


def _match_lattice(ta: np.ndarray, tb: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    # Streams are sorted, so bins are too: a bin's first event is its earliest.
    bins_a, bins_b = ta // w, tb // w
    first_a = np.flatnonzero(_run_starts(bins_a))
    first_b = np.flatnonzero(_run_starts(bins_b))
    occupied = np.concatenate([bins_a[first_a], bins_b[first_b]])
    # Sorting puts a bin occupied at both stations as two adjacent entries,
    # which form one row; every other entry is a row of its own. The stable
    # sort joins the two sorted runs in linear time.
    order = np.argsort(occupied, kind="stable")
    starts = _run_starts(occupied[order])
    row = np.cumsum(starts) - 1
    from_b = order >= len(first_a)
    ia = np.full(int(starts.sum()), -1, dtype=np.intp)
    ib = ia.copy()
    ia[row[~from_b]] = first_a[order[~from_b]]
    ib[row[from_b]] = first_b[order[from_b] - len(first_a)]
    return ia, ib


def _match_greedy(ta: np.ndarray, tb: np.ndarray, w: int) -> tuple[list[int], list[int]]:
    ta, tb = ta.tolist(), tb.tolist()
    na, nb = len(ta), len(tb)
    ia: list[int] = []
    ib: list[int] = []
    i = j = 0
    while i < na and j < nb:
        # Earliest-first; simultaneous events process station A first.
        if abs(ta[i] - tb[j]) <= w:
            ia.append(i)
            ib.append(j)
            i += 1
            j += 1
        elif ta[i] <= tb[j]:
            ia.append(i)
            ib.append(-1)
            i += 1
        else:
            ia.append(-1)
            ib.append(j)
            j += 1
    ia += list(range(i, na)) + [-1] * (nb - j)
    ib += [-1] * (na - i) + list(range(j, nb))
    return ia, ib


def match_coincidences(
    stream_a: "RawEventStream", stream_b: "RawEventStream", policy: CoincidencePolicy
) -> PairedRawData:
    """Pair two detection streams into raw data under the given policy.

    Every event enters exactly one output row or a drop counter; the
    metadata carries the conservation audit (matched, one-sided, dropped).
    """
    match = _match_lattice if policy.strategy == "lattice" else _match_greedy
    ia, ib = match(stream_a.times, stream_b.times, policy.window_ns)
    return _paired(stream_a, stream_b, ia, ib, policy.strategy, policy.window_ns)


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
