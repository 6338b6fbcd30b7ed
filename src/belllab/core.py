"""Shared domain types, columnar trial tallying, and the CHSH statistic.

A Bell-test run produces trials labelled by a setting pair (x, y), with
x, y in {0, 1} (0 = unprimed, 1 = primed). Outcomes are +1, -1, or 0,
where 0 means "no detection". Trials, held as parallel arrays, fold into a
ContextTable of 9-cell counts per context (``ContextTable.from_arrays``);
estimation conditions pairwise expectations on the nonzero-pair subset and
reports the retained fraction C per context.

Sign convention: the minus sign of the CHSH combination sits on the
(1, 1) context, i.e. S = E00 + E01 + E10 - E11. Callers that compare
against bounds should use |S|; the labelling of contexts is arbitrary.

Contexts that retain no nonzero pairs yield ``None`` expectations rather
than NaN, so starvation cannot silently propagate through arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

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
]

#: Row/column position of each outcome in a ContextTable cell block.
OUTCOME_INDEX = {1: 0, -1: 1, 0: 2}


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

    def theta(self, s: SettingPair) -> float:
        """Relative angle theta_x - theta_y for context ``s``."""
        return self.alice[s.x] - self.bob[s.y]


#: Angle assignment at which the singlet reaches |S| = 2*sqrt(2) (S negative
#: under this package's sign convention).
CANONICAL_ANGLES = AngleAssignment(
    alice=(0.0, math.pi / 2), bob=(math.pi / 4, -math.pi / 4)
)


class ContextTable:
    """Outcome counts n(a, b) for each of the four contexts.

    Backed by an int64 array of shape (2, 2, 3, 3) indexed
    ``[x, y, outcome_index(a), outcome_index(b)]`` with outcome order
    (+1, -1, 0). Instances are immutable; ``merge`` returns a new table,
    so tallying can run as an associative, commutative reduction.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: np.ndarray | None = None):
        if counts is None:
            counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (2, 2, 3, 3):
            raise ValueError(f"counts must have shape (2, 2, 3, 3), got {counts.shape}")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        counts = counts.copy()
        counts.setflags(write=False)
        self._counts = counts

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    def count(self, s: SettingPair, a: int, b: int) -> int:
        return int(self._counts[s.x, s.y, OUTCOME_INDEX[a], OUTCOME_INDEX[b]])

    def n_total(self, s: SettingPair) -> int:
        return int(self._counts[s.x, s.y].sum())

    def merge(self, other: "ContextTable") -> "ContextTable":
        return ContextTable(self._counts + other._counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContextTable):
            return NotImplemented
        return bool(np.array_equal(self._counts, other._counts))

    def __repr__(self) -> str:
        totals = {s.key(): self.n_total(s) for s in CONTEXTS}
        return f"ContextTable(N={totals})"

    def to_json(self) -> dict:
        return {s.key(): self._counts[s.x, s.y].tolist() for s in CONTEXTS}

    @classmethod
    def from_json(cls, obj: Mapping[str, object]) -> "ContextTable":
        counts = np.zeros((2, 2, 3, 3), dtype=np.int64)
        for s in CONTEXTS:
            counts[s.x, s.y] = np.asarray(obj[s.key()], dtype=np.int64)
        return cls(counts)

    @classmethod
    def from_arrays(
        cls, x: np.ndarray, y: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> "ContextTable":
        """Tally parallel arrays of settings and outcomes in one pass.

        Outcome encoding in ``a`` and ``b`` is the value itself (+1, -1, 0).
        """
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        ai = _outcome_indices(a)
        bi = _outcome_indices(b)
        if not ((x >= 0) & (x <= 1)).all() or not ((y >= 0) & (y <= 1)).all():
            raise ValueError("setting labels must be 0 or 1")
        flat = ((x * 2 + y) * 3 + ai) * 3 + bi
        counts = np.bincount(flat, minlength=36).reshape(2, 2, 3, 3)
        return cls(counts)


def _outcome_indices(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.int64)
    idx = np.full(v.shape, -1, dtype=np.int64)
    idx[v == 1] = 0
    idx[v == -1] = 1
    idx[v == 0] = 2
    if (idx < 0).any():
        raise ValueError("outcomes must be +1, -1 or 0")
    return idx


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

    def to_json(self) -> dict:
        return {
            "e_ab": self.e_ab,
            "e_a": self.e_a,
            "e_b": self.e_b,
            "c": self.c,
            "n_pairs": self.n_pairs,
            "n_total": self.n_total,
        }


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

    def __iter__(self) -> Iterator[SettingPair]:
        return iter(CONTEXTS)

    def to_json(self) -> dict:
        return {s.key(): self._contexts[s].to_json() for s in CONTEXTS}

    @classmethod
    def from_json(cls, obj: Mapping[str, Mapping]) -> "CorrelationSummary":
        contexts = {}
        for s in CONTEXTS:
            d = obj[s.key()]
            contexts[s] = ContextEstimate(
                e_ab=d["e_ab"],
                e_a=d["e_a"],
                e_b=d["e_b"],
                c=d["c"],
                n_pairs=int(d["n_pairs"]),
                n_total=int(d["n_total"]),
            )
        return cls(contexts)


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
    """CHSH combination S = E00 + E01 + E10 - E11.

    Returns ``None`` if any context's pairwise expectation is undefined.
    """
    total = 0.0
    for s in CONTEXTS:
        e = summary[s].e_ab
        if e is None:
            return None
        total += CHSH_SIGNS[s] * e
    return total


def chsh_from_expectations(e: Mapping[SettingPair, float]) -> float:
    """CHSH combination from exact per-context expectations."""
    return sum(CHSH_SIGNS[s] * e[s] for s in CONTEXTS)
