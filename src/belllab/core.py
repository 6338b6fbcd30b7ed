"""Shared domain types, columnar trial tallying, and the CHSH statistic.

A Bell-test run produces trials labelled by a setting pair (x, y), with
x, y in {0, 1} (0 = unprimed, 1 = primed). Outcomes are +1, -1, or 0,
where 0 means "no detection". Trials, held as parallel arrays, fold into a
ContextTable of 9-cell counts per context (``ContextTable.from_arrays``, the
one place rows become counts); a row whose setting is -1, unknown, belongs to
no context and is counted in none. Estimation conditions pairwise
expectations on the nonzero-pair subset and reports the retained fraction C
per context (``estimate``, the one definition of C).

Sign convention: the minus sign of the CHSH combination sits on the
(1, 1) context, i.e. S = E00 + E01 + E10 - E11. Callers that compare
against bounds should use |S|; the labelling of contexts is arbitrary.

Contexts that retain no nonzero pairs yield ``None`` expectations rather
than NaN, so starvation cannot silently propagate through arithmetic.

Work whose results do not depend on the order in which they are computed
runs through ``ordered_map``, on up to ``worker_count()`` threads
(``BELLLAB_THREADS``): the protocol chunks, the points of a theta sweep and
the row blocks of the CSV writers.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import ConfigError

__all__ = [
    "SettingPair",
    "CONTEXTS",
    "CHSH_SIGNS",
    "AngleAssignment",
    "CANONICAL_ANGLES",
    "ContextTable",
    "ContextEstimate",
    "CorrelationSummary",
    "estimate",
    "chsh",
    "codes",
    "worker_count",
    "ordered_map",
    "row_blocks",
]

#: The outcomes +1, -1, 0 (a table's order) as positions in the order -1, 0, +1.
_TABLE_ORDER = [2, 0, 1]


def codes(name: str, values, allowed: tuple[int, ...]) -> np.ndarray:
    """A read-only int8 copy of ``values``, every one of which must be in ``allowed``.

    The values are checked as given, before narrowing: int8 would read 257 as
    1, 255 as -1 and 1.5 as 1. Raises ``ValueError`` naming ``name`` otherwise;
    a column's message also names its first offending entry as ``data row N``,
    counted from 1 as a file's data rows are, and its value.
    """
    values = np.asarray(values)
    if values.dtype.kind in "biuf":
        with np.errstate(invalid="ignore"):  # NaN and huge floats fail the round trip
            out = values.astype(np.int8)
        permitted = out == allowed[0]
        for value in allowed[1:]:
            permitted |= out == value
        if values.dtype != np.int8:
            permitted &= out == values
        if permitted.all():
            out.setflags(write=False)
            return out
        if values.ndim == 1:
            i = int(np.argmin(permitted))
            raise ValueError(f"{name} must be in {allowed}: data row {i + 1} has {values[i]}")
    raise ValueError(f"{name} must be in {allowed}")


@dataclass(frozen=True, order=True)
class SettingPair:
    """One of the four measurement contexts, as a pair of binary labels."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if self.x not in (0, 1) or self.y not in (0, 1):
            raise ValueError(f"setting labels must be 0 or 1, got ({self.x}, {self.y})")

    def key(self) -> str:
        return f"{self.x}{self.y}"


#: The four contexts in fixed (x, y) lexicographic order.
CONTEXTS = (SettingPair(0, 0), SettingPair(0, 1), SettingPair(1, 0), SettingPair(1, 1))

#: Largest number of trials, emissions, expected dark counts or table entries
#: one run may ask for. Sizes read from a config are checked against it before
#: anything is allocated, so a typo is an input error, not an out-of-memory kill.
#: At the cap a Pearle source `simulate` peaks near 5.3 GB of RSS (about 53 B per
#: emission), and a window sweep over its streams near 8.6 GB (about 86 B).
MAX_ITEMS = 10**8

#: CHSH sign per context: +1 everywhere except the (1, 1) context.
CHSH_SIGNS = {s: (-1.0 if (s.x, s.y) == (1, 1) else 1.0) for s in CONTEXTS}


@dataclass(frozen=True)
class AngleAssignment:
    """Analyzer angles (radians) per setting label for each station."""

    alice: tuple[float, float]
    bob: tuple[float, float]

    def __post_init__(self) -> None:
        for theta in (*self.alice, *self.bob):
            if not math.isfinite(theta):
                raise ValueError("angles must be finite")


#: Angle assignment at which the singlet reaches |S| = 2*sqrt(2) (S negative
#: under this package's sign convention).
CANONICAL_ANGLES = AngleAssignment(
    alice=(0.0, math.pi / 2), bob=(math.pi / 4, -math.pi / 4)
)


@dataclass(frozen=True, eq=False)
class ContextTable:
    """Outcome counts n(a, b) for each of the four contexts.

    ``counts`` is a read-only int64 copy of shape (2, 2, 3, 3) indexed
    ``[x, y, a, b]``, with the outcomes of ``a`` and ``b`` in the order
    (+1, -1, 0). Compare two tables by ``np.array_equal(t.counts, u.counts)``:
    ``==`` on tables is identity.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        if counts.shape != (2, 2, 3, 3):
            raise ValueError(f"counts must have shape (2, 2, 3, 3), got {counts.shape}")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_arrays(
        cls, x: np.ndarray, y: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> "ContextTable":
        """Tally parallel arrays of settings and outcomes in one pass.

        Settings in ``x`` and ``y`` are 0 or 1, or -1 where the setting is
        unknown: such a row belongs to no context and is counted in none.
        Outcome encoding in ``a`` and ``b`` is the value itself (+1, -1, 0).
        """
        x, y = (codes("settings", v, (-1, 0, 1)) for v in (x, y))
        a, b = (codes("outcomes", v, (-1, 0, 1)) for v in (a, b))
        # Base-3 digits of (x, y, a, b) + 1: the largest code is 80, so int8 cannot wrap.
        flat = (((x + 1) * 3 + y + 1) * 3 + a + 1) * 3 + b + 1
        counts = np.bincount(flat, minlength=81).reshape(3, 3, 3, 3)
        return cls(counts[1:, 1:, _TABLE_ORDER][..., _TABLE_ORDER])


@dataclass(frozen=True)
class ContextEstimate:
    """Estimated moments for one context.

    ``e_ab``, ``e_a`` and ``e_b`` condition on the nonzero-pair subset and
    are ``None`` when that subset is empty. ``c`` is the retained fraction
    P(a*b != 0), ``None`` only when the context saw no trials at all.
    """

    e_ab: float | None
    e_a: float | None
    e_b: float | None
    c: float | None
    n_pairs: int
    n_total: int


class CorrelationSummary:
    """Per-context moment estimates, keyed by SettingPair."""

    __slots__ = ("_contexts",)

    def __init__(self, contexts: Mapping[SettingPair, ContextEstimate]):
        missing = [s for s in CONTEXTS if s not in contexts]
        if missing:
            raise ValueError(f"summary missing contexts: {missing}")
        self._contexts = {s: contexts[s] for s in CONTEXTS}

    def __getitem__(self, s: SettingPair) -> ContextEstimate:
        return self._contexts[s]


def estimate(table: ContextTable) -> CorrelationSummary:
    """Estimate per-context moments from a ContextTable.

    Pairwise and marginal expectations are computed on pairs with both
    outcomes nonzero:

        E_ab = sum over a,b != 0 of a*b*n(a, b) / n_pairs

    and analogously for E_a, E_b. C is n_pairs / N. Contexts with no
    nonzero pairs carry ``None`` expectations (explicit starvation marker).
    """
    out: dict[SettingPair, ContextEstimate] = {}
    sign = np.array([1.0, -1.0])  # outcome value at index 0, 1
    for s in CONTEXTS:
        block = table.counts[s.x, s.y]
        n_total = int(block.sum())
        nz = block[:2, :2].astype(np.float64)
        n_pairs = int(nz.sum())
        if n_pairs == 0:
            e_ab = e_a = e_b = None
        else:
            e_ab = float(np.einsum("i,j,ij->", sign, sign, nz) / n_pairs)
            e_a = float(sign @ nz.sum(axis=1) / n_pairs)
            e_b = float(sign @ nz.sum(axis=0) / n_pairs)
        c = None if n_total == 0 else n_pairs / n_total
        out[s] = ContextEstimate(e_ab, e_a, e_b, c, n_pairs, n_total)
    return CorrelationSummary(out)


def chsh(summary: CorrelationSummary) -> float | None:
    """CHSH combination S = E00 + E01 + E10 - E11; ``None`` if any context's E_ab is undefined."""
    total = 0.0
    for s in CONTEXTS:
        e = summary[s].e_ab
        if e is None:
            return None
        total += CHSH_SIGNS[s] * e
    return total


# --- worker threads ---------------------------------------------------------

_T = TypeVar("_T")
_R = TypeVar("_R")


def worker_count() -> int:
    """Worker cap from BELLLAB_THREADS (default: all cores). Never affects results."""
    raw = os.environ.get("BELLLAB_THREADS")
    if not raw:
        return os.cpu_count() or 1
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ConfigError("BELLLAB_THREADS", f"must be an integer >= 1, got {raw!r}")
    return int(raw)


def ordered_map(fn: Callable[[_T], _R], items: Sequence[_T]) -> Iterator[_R]:
    """``fn(item)`` for each of ``items``, yielded in input order.

    With more than one worker the calls run on a pool of up to
    ``worker_count()`` threads, and at most that many items are in flight,
    counting the one whose result the caller holds: the next call is
    submitted when the caller asks for the next result. A call's exception
    is raised when its result is due, so the first failing item in input
    order raises, as it would in a loop. ``fn`` must not depend on the order
    in which the calls run.
    """
    workers = min(worker_count(), len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    # Imported here, after numpy: loaded before it, concurrent.futures raised
    # the peak RSS of every command by about 0.5 MB.
    from concurrent.futures import ThreadPoolExecutor

    rest = iter(items)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(fn, item) for item in islice(rest, workers))
        while pending:
            yield pending.popleft().result()
            pending.extend(pool.submit(fn, item) for item in islice(rest, 1))


def row_blocks(n_rows: int, rows: int) -> list[tuple[int, int]]:
    """``(start, stop)`` blocks covering ``range(n_rows)`` in order, for ``ordered_map``.

    A block holds ``rows // worker_count()`` rows (at least one), so the
    blocks in flight hold at most ``rows`` rows together.
    """
    size = max(rows // worker_count(), 1)
    return [(start, min(start + size, n_rows)) for start in range(0, n_rows, size)]
