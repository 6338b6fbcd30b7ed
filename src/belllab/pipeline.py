"""Coincidence pairing and post-selection: streams -> raw pairs -> final pairs.

Two time-tagged detection streams are converted into raw paired data using a
coincidence window of width W, then the nonzero-outcome pairs are extracted
("post-selection") with the retained fraction C reported per context.

Streams are validated as time-sorted when they are built or read (see
``RawEventStream``), so pairing never checks them again and sorts only their
union, once per sweep. Each strategy decides only which events share a row,
as one event index per row and station (-1 where that station has none); one
row builder turns those indices into columns and the conservation audit.

Two pairing strategies are provided because "synchronized time windows" can
be read either way; the strategy used is recorded in the pairing metadata:

* ``lattice`` (default): the time axis is cut into fixed bins [kW, (k+1)W);
  a bin with at least one event at each station yields exactly one pair (the
  earliest event per station wins; extra events in the bin are dropped and
  counted), a bin with events on one side only yields a one-sided row.
  One stable sort merges the two streams' times per sweep, since their time
  order does not depend on W, and one running count of station B's events
  goes with it. Per width, each run of equal bins in the merge is a row. A
  station's count before a run is the index of its earliest event in that
  bin, if the count grows before the next run starts; else the station has
  no event in the row.
* ``greedy``: both streams are scanned in time order (ties process station A
  first) and the earliest unconsumed event pairs with the first available
  opposite event within W; each event is used at most once.

  No loop runs over events. In merged time order the unconsumed events all
  belong to one station, a queue whose signed count z (+q A or -q B events
  waiting) is the whole state. Each arrival is a map z -> clip(z + s, lo, hi)
  that drops the waiting events out of reach, then pairs or joins. These maps
  compose in closed form, so after a binary search per event in the sweep's
  merge z comes from an O(n) scan at any W: serial in blocks of 32, recursive
  over blocks. The merge's B count gives each event's own index and the
  queue's bounds, so neither strategy counts events again per width.

One-sided rows from stream pairing carry a -1 sentinel for the remote
station's setting: that information never enters the detection streams and
cannot be reconstructed. Such rows belong to no context: a ContextTable
counts them in none, and post-selection metadata counts them as unattributed.
Rows from an emission truth record always carry both settings.

A window sweep tallies each width's raw rows once (``postselect`` reads the
cached tally), and that tally is also the post-selected rows' table: stream
outcomes are +-1, so a zero outcome only fills the empty side of a one-sided
row, whose unknown remote setting keeps it out of every context.

All functions here are pure: identical inputs give identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import CONTEXTS, ContextTable, CorrelationSummary, SettingPair, chsh, codes, estimate

__all__ = [
    "CoincidencePolicy",
    "PairedRawData",
    "RawEventStream",
    "WindowPoint",
    "match_coincidences",
    "postselect",
    "window_sweep",
]

#: Sentinel for "remote setting unknown" in pairs built from streams.
UNKNOWN_SETTING = -1


@dataclass(frozen=True)
class CoincidencePolicy:
    """Window width, an integer number of ns kept as a Python int, and pairing strategy."""

    window_ns: int
    strategy: str = "lattice"

    def __post_init__(self) -> None:
        w = self.window_ns
        if isinstance(w, bool) or not isinstance(w, (int, np.integer)):
            raise ValueError(f"window width must be an integer, got {w!r}")
        # Bins and time differences are int64 nanoseconds.
        if not 0 < w < 2**63:
            raise ValueError(f"window width must be in (0, 2**63) ns, got {w}")
        object.__setattr__(self, "window_ns", int(w))
        if self.strategy not in ("lattice", "greedy"):
            raise ValueError(f"unknown pairing strategy: {self.strategy!r}")


@dataclass(frozen=True, eq=False)
class PairedRawData:
    """Rows of (x, y, a, b) with outcomes in {-1, 0, +1}.

    A 0 outcome marks an unmatched slot. Settings are 0/1, or -1 when the
    remote side of a one-sided stream row is unknown.
    """

    x: np.ndarray
    y: np.ndarray
    a: np.ndarray
    b: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len({len(np.asarray(getattr(self, name))) for name in "xyab"}) > 1:
            raise ValueError("paired-data columns must have equal length")
        settings, outcomes = (UNKNOWN_SETTING, 0, 1), (-1, 0, 1)
        for name in "xy":
            object.__setattr__(self, name, codes("settings", getattr(self, name), settings))
        for name in "ab":
            object.__setattr__(self, name, codes("outcomes", getattr(self, name), outcomes))

    def __len__(self) -> int:
        return len(self.x)

    def to_context_table(self) -> ContextTable:
        """The rows' tally, zeros included, with a row of unknown (-1) setting in no context; the
        columns are read-only, so the first call's table is returned again by every later one."""
        return self._table

    @cached_property
    def _table(self) -> ContextTable:
        return ContextTable.from_arrays(self.x, self.y, self.a, self.b)


@dataclass(frozen=True, eq=False)
class RawEventStream:
    """One station's time-tagged detections, sorted by (time, sequence number).

    Times must be non-decreasing; the pairing strategies rely on it.
    """

    station: str
    times: np.ndarray
    settings: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        if self.station not in ("A", "B"):
            raise ValueError("station must be 'A' or 'B'")
        # Checked as given (a cast makes NaN or 2**63 INT64_MIN); the cast copies the caller's array.
        given = np.asarray(self.times)
        with np.errstate(invalid="ignore"):
            times = given.astype(np.int64)
        if given.dtype.kind not in "iuf" or not (times == given).all():
            raise ValueError(f"stream {self.station} times must be integers in int64 range")
        settings = codes("stream settings", self.settings, (0, 1))
        outcomes = codes("stream outcomes", self.outcomes, (-1, 1))
        if not (len(times) == len(settings) == len(outcomes)):
            raise ValueError("stream columns must have equal length")
        bad = np.flatnonzero(times[1:] < times[:-1])
        if bad.size:
            i = int(bad[0])
            # Events are named by position from 1, as a time-tag file's data rows are.
            raise ValueError(
                f"stream {self.station} is not time-sorted: data row {i + 2} has time "
                f"{int(times[i + 1])}, before {int(times[i])} in data row {i + 1}"
            )
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "outcomes", outcomes)

    def __len__(self) -> int:
        return len(self.times)


def _paired(
    a: RawEventStream, b: RawEventStream, ia: np.ndarray, ib: np.ndarray, strategy: str, w: int
) -> PairedRawData:
    """Rows from per-row event indices of each station, -1 where a station has none.

    The audit follows from the indices: an event in no row was dropped as an extra.
    """
    has_a, has_b = ia >= 0, ib >= 0
    matched = int((has_a & has_b).sum())
    rows_a, rows_b = int(has_a.sum()), int(has_b.sum())
    meta = {
        "strategy": strategy,
        "window_ns": w,
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
        x=np.append(a.settings, np.int8(UNKNOWN_SETTING))[ia],
        y=np.append(b.settings, np.int8(UNKNOWN_SETTING))[ib],
        a=np.append(a.outcomes, np.int8(0))[ia],
        b=np.append(b.outcomes, np.int8(0))[ib],
        meta=meta,
    )


def _run_bounds(values: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of sorted ``values`` starts, then ``len(values)``."""
    edge = np.ones(len(values) + 1, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=edge[1:-1])
    return np.flatnonzero(edge)


def _merge(ta: np.ndarray, tb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both stations' times in one time order, station B's positions, and B's count.

    ``from_b`` masks station B's merged positions, and ``n_b[i]`` is the
    number of B events among the first i merged positions (``n_b[-1]`` counts
    them all). The stable sort puts station A first on ties and keeps each
    station's own order, so a station's events appear in the merge in index
    order: at merged position i, the next B event has index ``n_b[i]`` and
    the next A event ``i - n_b[i]``. The merge does not depend on the window
    width; a sweep builds it once, and its arrays are read-only so that no
    width can change what the next reads.
    """
    t = np.concatenate([ta, tb])
    order = np.argsort(t, kind="stable")
    from_b = order >= len(ta)
    # Cast, then sum in place: about twice as fast as summing bool through a buffered cast.
    n_b = np.zeros(len(t) + 1, dtype=np.intp)
    n_b[1:] = from_b
    np.cumsum(n_b, out=n_b)
    merged = t[order], from_b, n_b
    for column in merged:
        column.setflags(write=False)
    return merged


def _match_lattice(
    t: np.ndarray, from_b: np.ndarray, n_b: np.ndarray, w: int
) -> tuple[np.ndarray, np.ndarray]:
    # Merged times are sorted, so bins are too: each run of equal bins is one
    # row. A station's count before a run is the index of its first event in
    # the run, the earliest in that bin, if the count grows by the next run.
    # ``n_b`` carries all of ``from_b`` that this needs.
    bounds = _run_bounds(t // w)
    ib = n_b[bounds]
    ia = bounds - ib
    for count in (ia, ib):
        # An index beats a mask here: 1 ms against 3.5 ms at 4e5 rows (numpy 2.4.6).
        count[np.flatnonzero(count[1:] == count[:-1])] = -1
    return ia[:-1], ib[:-1]


#: A clamp bound beyond any queue count, so it never binds.
_UNBOUNDED = 2**62
#: Maps per block of the queue scan: each block is composed serially, all blocks at once.
_BLOCK = 32


def _queue_counts(s: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """z after each map z -> clip(z + s, lo, hi) of a sequence applied from z = 0."""
    n, m = len(s), -(-len(s) // _BLOCK)
    # Row c holds the c-th map of every block; the padding is never read back.
    s, lo, hi = (np.pad(x, (0, m * _BLOCK - n)).reshape(m, _BLOCK).T.copy() for x in (s, lo, hi))
    for c in range(1, _BLOCK):
        # Map c - 1 then map c: (s' + s, clip(lo' + s, lo, hi), clip(hi' + s, lo, hi)).
        lo[c], hi[c] = np.clip(lo[c - 1] + s[c], lo[c], hi[c]), np.clip(hi[c - 1] + s[c], lo[c], hi[c])
        s[c] += s[c - 1]
    # The z entering each block is the same scan over the blocks' whole maps.
    z_in = np.zeros(m, dtype=np.int64)
    if m > 1:
        z_in[1:] = _queue_counts(s[-1, :-1], lo[-1, :-1], hi[-1, :-1])
    return np.clip(z_in + s, lo, hi).T.reshape(-1)[:n]


def _match_greedy(
    t: np.ndarray, from_b: np.ndarray, n_b: np.ndarray, w: int
) -> tuple[np.ndarray, np.ndarray]:
    # A gap of more than w empties the queue, so only later events of a cluster
    # are scanned. The uint64 difference of sorted int64 times cannot wrap.
    inner = np.flatnonzero(np.diff(t.view(np.uint64)) <= w) + 1
    # First merged position in reach of each scanned event: time >= t - w.
    first = np.searchsorted(t, np.maximum(t[inner], np.iinfo(np.int64).min + w) - w)
    is_b = from_b[inner]
    nb_k, nb_f = n_b[inner], n_b[first]
    na_k = inner - nb_k
    # An A arrival keeps the waiting B events in reach and takes the earliest,
    # or joins the queue: z -> max(z, nb_f - nb_k) + 1. B mirrors it.
    s = np.where(is_b, -1, 1)
    lo = np.where(is_b, -_UNBOUNDED, nb_f - nb_k + 1)
    hi = np.where(is_b, na_k - (first - nb_f) - 1, _UNBOUNDED)
    del first, nb_f
    # A cluster's second event finds its first alone in the queue. Its map is
    # therefore a constant, which resets the scan between clusters.
    second = np.diff(inner, prepend=-1) != 1
    z = np.clip(np.where(from_b[inner[second] - 1], -1, 1) + s[second], lo[second], hi[second])
    s[second], lo[second], hi[second] = 0, z, z
    z = _queue_counts(s, lo, hi)
    del s, lo, hi
    # An A arrival that leaves z <= 0 took the earliest B in reach, index
    # nb_k + z - 1, whose row it joins. B mirrors it.
    pa, pb = ~is_b & (z <= 0), is_b & (z >= 0)
    # Every event but the paired arrivals starts a row, in merged order, which
    # is the loop's order: each row holds the earliest event not yet consumed.
    before = n_b[:-1]
    ia = np.where(from_b, -1, np.arange(len(from_b)) - before)  # an A event's own index
    ib = np.where(from_b, before, -1)
    ia[np.flatnonzero(from_b)[nb_k[pa] + z[pa] - 1]] = na_k[pa]
    ib[np.flatnonzero(~from_b)[na_k[pb] - z[pb] - 1]] = nb_k[pb]
    keep = np.ones(len(from_b), dtype=bool)
    keep[inner] = ~(pa | pb)
    # The scan's columns go before the two copies, which set the call's peak.
    del inner, is_b, nb_k, na_k, z, pa, pb
    return np.compress(keep, ia), np.compress(keep, ib)


def match_coincidences(
    stream_a: RawEventStream,
    stream_b: RawEventStream,
    policy: CoincidencePolicy,
    merged: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> PairedRawData:
    """Pair two detection streams into raw data under the given policy.

    Every event enters exactly one output row or a drop counter; the
    metadata carries the conservation audit (matched, one-sided, dropped).
    ``merged`` is ``_merge(stream_a.times, stream_b.times)``, built here when
    not given; a caller that pairs the same streams at several widths passes
    one merge to every call.
    """
    if merged is None:
        merged = _merge(stream_a.times, stream_b.times)
    match = _match_lattice if policy.strategy == "lattice" else _match_greedy
    ia, ib = match(*merged, policy.window_ns)
    return _paired(stream_a, stream_b, ia, ib, policy.strategy, policy.window_ns)


def postselect(pairs: PairedRawData) -> tuple[PairedRawData, dict[SettingPair, float | None]]:
    """Extract rows with both outcomes nonzero; report retention per context.

    Returns the final data (no zeros) and C per context, as ``estimate`` gives
    it for ``pairs.to_context_table()``, the rows' cached tally, which a caller
    that needs the table shares: retained/total over the rows of that context,
    ``None`` for contexts with no rows. Row conservation (retained + dropped =
    input) and the rows in no context are recorded in metadata.
    """
    rows = np.flatnonzero((pairs.a != 0) & (pairs.b != 0))
    summary = estimate(pairs.to_context_table())
    c_table = {s: summary[s].c for s in CONTEXTS}
    meta = {
        "input_rows": len(pairs),
        "retained_rows": len(rows),
        "dropped_rows": len(pairs) - len(rows),
        "unattributed_rows": len(pairs) - sum(summary[s].n_total for s in CONTEXTS),
        "pairing": pairs.meta,
    }
    final = PairedRawData(*(c.take(rows) for c in (pairs.x, pairs.y, pairs.a, pairs.b)), meta=meta)
    return final, c_table


@dataclass(frozen=True)
class WindowPoint:
    """One window-sweep row: width, post-selected table and summary, S; C is the summary's."""

    window_ns: int
    table: ContextTable
    summary: CorrelationSummary
    s: float | None
    meta: dict

    def to_json(self) -> dict:
        return {
            "window_ns": self.window_ns,
            "S": self.s,
            "summary": self.summary,
            "c_by_context": {s.key(): self.summary[s].c for s in CONTEXTS},
        }


def window_sweep(
    stream_a: RawEventStream,
    stream_b: RawEventStream,
    w_values: Sequence[int],
    strategy: str = CoincidencePolicy.strategy,
) -> list[WindowPoint]:
    """Run the pairing + post-selection + estimation chain per window width.

    Starved contexts propagate as ``None`` values of S.
    """
    if len(w_values) == 0:
        raise ValueError("window sweep needs at least one width")
    # Every width is checked before the first is paired.
    policies = [CoincidencePolicy(window_ns=w, strategy=strategy) for w in w_values]
    # The time order of the two streams does not depend on the width.
    merged = _merge(stream_a.times, stream_b.times)
    points = []
    for policy in policies:
        raw = match_coincidences(stream_a, stream_b, policy, merged)
        # postselect's C estimates the same cached tally as the summary does.
        final, _ = postselect(raw)
        # The raw rows' table is also the final rows' table (module docstring).
        table = raw.to_context_table()
        summary = estimate(table)
        points.append(
            WindowPoint(
                window_ns=policy.window_ns,
                table=table,
                summary=summary,
                s=chsh(summary),
                meta=final.meta,
            )
        )
    return points
