"""The five coupling-model families and their exact/sampled laws.

Each family answers two questions: what is its exact law, and how do I draw
one trial? ``law()`` is a read-only float (2, 2, 3, 3) array indexed
[x, y, a, b], outcomes (+1, -1, 0), the layout of ``ContextTable.counts``: a
closed form for the singlet, a sum over the tabulated hidden values of each
station's response law P(outcome | label, hidden value) for the others. Every
exact value is read from it. Samplers are vectorized and consume a fixed
sequence of uniform draws per batch so that runs are reproducible.

Families:

* ``QuantumSingletModel`` - singlet correlations E = -V*cos(theta) with a
  Werner-style visibility V scaling the correlation amplitude linearly.
* ``DeterministicLHVModel`` - deterministic local responses A_x, B_y of a
  finite hidden value; bounded by |S| <= 2.
* ``StochasticLHVModel`` - conditionally independent +/-1 outcomes given the
  hidden value; same bound.
* ``ContextualModel`` - adds instrument variables drawn by context, the label
  ``2 * x + y`` of ``_draw``; outcomes stay locally generated but
  statistical independence fails, so |S| may exceed 2.
* ``PostSelectionModel`` - instrument values drawn by each station's own
  setting; responses may be 0 ("no detection") and reported expectations
  condition on both outcomes being nonzero, normalized by the retained
  fraction C; post-selected |S| is bounded only by 4.

All hidden-variable sets are finite and explicitly tabulated. No contextual
instance shipped here reproduces the full singlet law without post-selection;
none is known to us and we do not attempt a construction.

A tabulated value is drawn by inverse CDF through one function, ``_draw``:
per uniform u it returns the first entry above u of the cumulative of one
law, or of the law its row's label picks. It finds that entry through a
guide table of four buckets per entry (Chen & Asau 1974), starting one
bucket below u's own to cover the rounding of the bucket edges, and falls
back to one binary search per label for laws whose entries crowd a few
buckets, or a batch shorter than the table. Both give the same index, so
every stream a model draws is the one a search over the whole cumulative
gives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import CHSH_SIGNS, CONTEXTS, MAX_ITEMS, AngleAssignment, codes

__all__ = [
    "QuantumSingletModel",
    "DeterministicLHVModel",
    "StochasticLHVModel",
    "ContextualModel",
    "PostSelectionModel",
    "CouplingModel",
    "exact_chsh",
    "sample_batch",
    "max_deterministic_chsh",
    "deterministic_strategies",
    "statistical_dependence",
    "pearle_model",
    "disjoint_support_model",
    "rejection_curve",
]

#: Weights smaller than this are treated as exactly 0 in normalization checks.
WEIGHT_EPS = 1e-15

#: Probability tables must sum to 1 within this tolerance.
NORM_TOL = 1e-9

#: The outcomes in the order of a law's last two axes, the first two of them as floats.
_OUTCOMES, _SIGN = np.array([1, -1, 0]), np.array([1.0, -1.0])


def _law(name: str, values, ndim: int, lead: tuple[int, ...] = ()) -> np.ndarray:
    """A read-only float64 copy of ``values``, one probability law per index into ``lead``.

    ``values`` must have ``ndim`` nonempty axes, the first of them of shape
    ``lead``, and every entry must be finite and in [0, 1]. Each slice over
    the remaining axes, the law's own, must sum to 1; a table with no axes of
    its own holds one P(+1) per entry. A (2,) or (2, 2) ``lead`` indexes
    setting labels or contexts, and the message names the one whose law does
    not sum to 1.
    """
    values = np.array(values, dtype=np.float64)
    if values.ndim != ndim or values.shape[: len(lead)] != lead or values.size == 0:
        dims = ", ".join(map(str, lead + ("m",) * (ndim - len(lead))))
        raise ValueError(f"{name} must be a nonempty table of shape ({dims}), got {values.shape}")
    if not ((values >= -WEIGHT_EPS) & (values <= 1.0 + WEIGHT_EPS)).all():
        raise ValueError(f"{name} entries must be finite and in [0, 1]")
    if ndim > len(lead):
        totals = values.sum(axis=tuple(range(len(lead), ndim)))
        off = np.abs(totals - 1.0) > NORM_TOL
        if off.any():
            index = np.unravel_index(np.argmax(off), off.shape)
            label = "".join(map(str, index))
            where = {0: "", 1: f" for setting {label}", 2: f" for context {label}"}[len(lead)]
            raise ValueError(f"{name}{where} must sum to 1, got {float(totals[index])!r}")
    values.setflags(write=False)
    return values


def _responses(name: str, values, shape: tuple[int, ...], allowed: tuple[int, ...]) -> np.ndarray:
    """``core.codes`` of ``name``'s response table, which must have ``shape``."""
    table = codes(f"{name} responses", values, allowed)
    if table.shape != shape:
        raise ValueError(f"{name} responses must have shape {shape}, got {table.shape}")
    return table


#: Guide-table buckets per entry of the widest cumulative a table serves.
_GUIDE_BUCKETS = 4

#: A guide table whose widest three-bucket window holds more entries than this
#: is not built; the draw falls back to a binary search. Eight steps cost about
#: what a binary search over four entries does.
_GUIDE_STEPS = 8


def _support(law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of ``law``'s positive entries and their normalized cumulative."""
    flat = law.ravel()
    support = np.flatnonzero(flat > 0.0)
    cum = np.cumsum(flat[support])
    cum /= cum[-1]
    return support, cum


def _guided_search(cum: np.ndarray, u: np.ndarray, labels: np.ndarray | None = None) -> np.ndarray | None:
    """``searchsorted(cum[labels[i]], u[i], side="right")`` per uniform, as a flat index into ``cum``.

    ``cum`` holds one sorted cumulative per row, ending at 1.0 and padded
    with +inf; ``labels`` is None for one row. A guide table (Chen & Asau
    1974; Devroye 1986, III.2.4) of K = _GUIDE_BUCKETS * width buckets holds
    ``g[k] = searchsorted(row, k / K, side="right")``. Each uniform starts at
    ``g[b - 1]``, b = floor(u * K), and steps up once per entry not above u,
    as often as the widest window ``g[b + 2] - g[b - 1]`` holds entries. The
    bucket of margin on each side covers the rounding of ``u * K`` and
    ``k / K``: the start is never past the answer, the answer never past the
    window, and a step stops at the first entry above u, so the result is the
    search's. Returns None, for a binary search instead, when K exceeds
    ``len(u)`` (so the table never outgrows the batch) or the widest window
    holds more than _GUIDE_STEPS entries, as a skewed law's does.
    """
    rows, width = cum.shape
    k = _GUIDE_BUCKETS * width
    if k > len(u):
        return None
    edges = np.arange(k + 1) / k
    guide = np.stack([np.searchsorted(row, edges, side="right") for row in cum])
    bucket = np.arange(k)
    start = guide[:, np.maximum(bucket - 1, 0)]
    steps = int((guide[:, np.minimum(bucket + 2, k)] - start).max())
    if steps > _GUIDE_STEPS:
        return None
    start += np.arange(rows)[:, None] * width
    start = start.T.ravel()  # [bucket * rows + row]
    # In place throughout: the draw holds one index, one float and one flag per uniform.
    idx = np.empty(len(u), dtype=np.intp)
    np.multiply(u, k, out=idx, casting="unsafe")
    if labels is not None:
        idx *= rows
        idx += labels
    np.take(start, idx, out=idx, mode="clip")
    flat = cum.ravel()
    at = np.empty(len(u))
    up = np.empty(len(u), dtype=bool)
    for _ in range(steps):
        np.take(flat, idx, out=at, mode="clip")
        idx += np.less_equal(at, u, out=up)
    return idx


def _draw(laws: np.ndarray, u: np.ndarray, labels: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """One draw per uniform in ``u``, as an index array per axis of a law.

    ``laws`` is one law, or with ``labels`` one law per label on its leading
    axis, and ``u[i]`` draws from ``laws[labels[i]]``. Each label's cumulative
    runs over its positive entries only, and the search result is mapped back
    to their indices. That returns the index a search over the whole
    cumulative would: adding 0.0 leaves a float partial sum unchanged, and a
    right-side search lands only where the cumulative steps up, which is on a
    positive entry. Entries in [-WEIGHT_EPS, 0] carry no weight. Every row is
    searched in one pass through one guide table per label, on a common
    bucket count set by the widest support (``_guided_search``); where that
    falls back, by one binary search per label over the same cumulative. Both
    give the same index.
    """
    if labels is None:
        laws = laws[None]
    parts = [_support(law) for law in laws]
    width = max(len(support) for support, _ in parts)
    supports = np.zeros((len(laws), width), dtype=np.intp)
    cum = np.full((len(laws), width), np.inf)
    for label, (support, c) in enumerate(parts):
        supports[label, : len(support)] = support
        cum[label, : len(c)] = c
    idx = _guided_search(cum, u, labels)
    if idx is None and labels is None:
        idx = np.searchsorted(cum[0], u, side="right")
    elif idx is None:
        idx = np.empty(len(u), dtype=np.intp)
        for label, row in enumerate(cum):
            rows = np.flatnonzero(labels == label)
            found = np.searchsorted(row, u[rows], side="right")
            found += label * width
            idx[rows] = found
    return np.unravel_index(np.take(supports, idx, out=idx, mode="clip"), laws.shape[1:])


def _one_hot(responses: np.ndarray) -> np.ndarray:
    """The response law of deterministic ``responses``: a float one-hot over ``_OUTCOMES`` on a new last axis."""
    return (responses[..., None] == _OUTCOMES).astype(np.float64)


def _pair_law(alice: np.ndarray, bob: np.ndarray, source: np.ndarray) -> np.ndarray:
    """The law of independent responses ``alice[x, k1, a]``, ``bob[y, k2, b]`` to ``source[k1, k2]``.

    A 1-d ``source[k]`` is one hidden value both stations read. Each cell is
    one pairwise sum over k1: a BLAS product's running sum over the 720 Pearle
    values was off by up to ten times more.
    """
    left = alice.transpose(0, 2, 1).reshape(6, -1)  # [(x, a), k1]
    right = bob.transpose(0, 2, 1).reshape(6, -1)  # [(y, b), k2]
    right = right * source if source.ndim == 1 else right @ source.T  # [(y, b), k1]
    joint = np.ascontiguousarray(left[:, None, :] * right[None, :, :]).sum(axis=-1)
    return _law("law", joint.reshape(2, 3, 2, 3).transpose(0, 2, 1, 3), 4, (2, 2))


def _kept(law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per context, the +/-1 block [a, b] of ``law`` given both outcomes nonzero, and its mass C.

    A C at or below WEIGHT_EPS reads as 0: the context starves, and its block is not normalized.
    """
    block = law[:, :, :2, :2]
    kept = block.sum(axis=(2, 3))
    kept[kept <= WEIGHT_EPS] = 0.0
    return block / np.where(kept > 0.0, kept, 1.0)[..., None, None], kept


@dataclass(frozen=True)
class QuantumSingletModel:
    """Visibility-degraded singlet: joint law p(a, b) = (1 - V*a*b*cos theta)/4."""

    angles: AngleAssignment
    visibility: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")

    def law(self) -> np.ndarray:
        cos = np.array([[math.cos(a - b) for b in self.angles.bob] for a in self.angles.alice])
        law = np.zeros((2, 2, 3, 3))
        law[:, :, :2, :2] = (1.0 - self.visibility * cos[:, :, None, None] * np.outer(_SIGN, _SIGN)) / 4.0
        return _law("law", law, 4, (2, 2))

    def sample_batch(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        # Draw order: one uniform vector for a's sign, one for the b|a branch.
        n = len(x)
        u_sign = rng.random(n)
        u_corr = rng.random(n)
        theta = np.take(self.angles.alice, x) - np.take(self.angles.bob, y)
        a = np.where(u_sign < 0.5, 1, -1).astype(np.int8)
        p_anti = 0.5 * (1.0 + self.visibility * np.cos(theta))
        b = np.where(u_corr < p_anti, -a, a).astype(np.int8)
        return a, b


@dataclass(frozen=True)
class DeterministicLHVModel:
    """Deterministic local responses of a finite hidden value.

    ``alice[x, k]`` and ``bob[y, k]`` are the +/-1 outputs for setting label
    x (resp. y) when the hidden value is k; ``weights[k]`` is its probability.
    """

    weights: np.ndarray
    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _law("weights", self.weights, 1))
        shape = (2,) + self.weights.shape
        for name in ("alice", "bob"):
            object.__setattr__(self, name, _responses(name, getattr(self, name), shape, (-1, 1)))

    def law(self) -> np.ndarray:
        return _pair_law(_one_hot(self.alice), _one_hot(self.bob), self.weights)

    def sample_batch(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        # Draw order: one uniform vector for the hidden value.
        (lam,) = _draw(self.weights, rng.random(len(x)))
        return self.alice[x, lam], self.bob[y, lam]


@dataclass(frozen=True)
class StochasticLHVModel:
    """Conditionally independent outcomes given the hidden value.

    ``alice_plus[x, k]`` is P(a = +1 | x, hidden value k), likewise
    ``bob_plus``; outcomes are conditionally independent given k.
    """

    weights: np.ndarray
    alice_plus: np.ndarray
    bob_plus: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _law("weights", self.weights, 1))
        lead = (2,) + self.weights.shape
        for name in ("alice_plus", "bob_plus"):
            object.__setattr__(self, name, _law(name, getattr(self, name), 2, lead))

    def law(self) -> np.ndarray:
        alice, bob = (np.stack([p, 1.0 - p, np.zeros_like(p)], axis=-1) for p in (self.alice_plus, self.bob_plus))
        return _pair_law(alice, bob, self.weights)

    def sample_batch(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        # Draw order: hidden value, then a's coin, then b's coin.
        n = len(x)
        (lam,) = _draw(self.weights, rng.random(n))
        u_a = rng.random(n)
        u_b = rng.random(n)
        a = np.where(u_a < self.alice_plus[x, lam], 1, -1).astype(np.int8)
        b = np.where(u_b < self.bob_plus[y, lam], 1, -1).astype(np.int8)
        return a, b


@dataclass(frozen=True)
class ContextualModel:
    """Hidden source values plus instrument values with context-dependent law.

    ``source_weights[k1, k2]`` is the joint law of the two source-side hidden
    values; it does not depend on the context. ``instrument_weights[x, y]``
    is the joint law of the two instrument values under context (x, y) - the
    context dependence lives here and only here. Responses are local and
    deterministic: ``alice[x, k1, m]`` in {-1, +1} depends on Alice's label,
    her source value and her instrument value only.
    """

    source_weights: np.ndarray
    instrument_weights: np.ndarray
    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "source_weights", _law("source_weights", self.source_weights, 2))
        object.__setattr__(
            self, "instrument_weights", _law("instrument_weights", self.instrument_weights, 4, (2, 2))
        )
        (n1, n2), (mx, my) = self.source_weights.shape, self.instrument_weights.shape[2:]
        object.__setattr__(self, "alice", _responses("alice", self.alice, (2, n1, mx), (-1, 1)))
        object.__setattr__(self, "bob", _responses("bob", self.bob, (2, n2, my), (-1, 1)))

    def law(self) -> np.ndarray:
        # The instrument law is the context's own, so the stations do not factor.
        w, p, a, b = self.source_weights, self.instrument_weights, _one_hot(self.alice), _one_hot(self.bob)
        return _law("law", np.einsum("lm,xyuv,xlua,ymvb->xyab", w, p, a, b, optimize=True), 4, (2, 2))

    def sample_batch(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        # Draw order: source pair, then instrument pair. Both uniforms are
        # drawn for the whole batch up front; the per-context transform
        # consumes no extra randomness, so the draw count is context-free.
        n = len(x)
        u_src = rng.random(n)
        u_ins = rng.random(n)
        k1, k2 = _draw(self.source_weights, u_src)
        # The label is the context, 2 * x + y, its position in CONTEXTS: both settings pick the law.
        laws = self.instrument_weights.reshape(4, *self.instrument_weights.shape[2:])
        mu_x, mu_y = _draw(laws, u_ins, 2 * x + y)
        return self.alice[x, k1, mu_x], self.bob[y, k2, mu_y]


@dataclass(frozen=True)
class PostSelectionModel:
    """Data-rejection model: outcomes may be 0, expectations condition on a*b != 0.

    The hidden law factorizes as P(source pair) * P(Alice instrument | x) *
    P(Bob instrument | y): each station's instrument value depends only on
    its local setting. ``alice[x, k1, m]`` is in {-1, 0, +1}; 0 means the
    trial produces no detection on that side.
    """

    source_weights: np.ndarray
    alice_instrument: np.ndarray
    bob_instrument: np.ndarray
    alice: np.ndarray
    bob: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "source_weights", _law("source_weights", self.source_weights, 2))
        for name in ("alice_instrument", "bob_instrument"):
            object.__setattr__(self, name, _law(name, getattr(self, name), 2, (2,)))
        n1, n2 = self.source_weights.shape
        mx, my = self.alice_instrument.shape[1], self.bob_instrument.shape[1]
        object.__setattr__(self, "alice", _responses("alice", self.alice, (2, n1, mx), (-1, 0, 1)))
        object.__setattr__(self, "bob", _responses("bob", self.bob, (2, n2, my), (-1, 0, 1)))
        if not _kept(self.law())[1].any():
            raise ValueError("all contexts starve: no context retains any pairs")

    def law(self) -> np.ndarray:
        # Each station's response law averages its responses over its own instrument
        # law, an outcome at a time: a one-hot of the Pearle tables cost more than the product.
        alice, bob = (
            np.stack([np.einsum("xkm,xm->xk", r == v, p) for v in _OUTCOMES], axis=-1)
            for r, p in ((self.alice, self.alice_instrument), (self.bob, self.bob_instrument))
        )
        return _pair_law(alice, bob, self.source_weights)

    def sample_batch(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        # Draw order: source pair, Alice instrument, Bob instrument.
        n = len(x)
        u_src = rng.random(n)
        u_a = rng.random(n)
        u_b = rng.random(n)
        k1, k2 = _draw(self.source_weights, u_src)
        # The label is the station's own setting: neither law sees the other setting.
        (mu_x,) = _draw(self.alice_instrument, u_a, x)
        (mu_y,) = _draw(self.bob_instrument, u_b, y)
        return self.alice[x, k1, mu_x], self.bob[y, k2, mu_y]


CouplingModel = Union[
    QuantumSingletModel,
    DeterministicLHVModel,
    StochasticLHVModel,
    ContextualModel,
    PostSelectionModel,
]


def exact_chsh(model: CouplingModel) -> float | None:
    """CHSH combination of the exact pairwise expectations (None if a context starves)."""
    block, kept = _kept(model.law())
    e = _SIGN @ block @ _SIGN  # [x, y]
    return sum(CHSH_SIGNS[s] * float(e[s.x, s.y]) for s in CONTEXTS) if kept.all() else None


def sample_batch(
    model: CouplingModel, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized trial draws at per-trial contexts (x[i], y[i])."""
    x = codes("settings", x, (0, 1))
    y = codes("settings", y, (0, 1))
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    return model.sample_batch(x, y, rng)


def deterministic_strategies() -> list[tuple[tuple[int, int, int, int], float]]:
    """All 16 deterministic local strategies with their CHSH values.

    A strategy fixes (a0, a1, b0, b1) in {+1, -1}^4; its CHSH value is
    a0*b0 + a0*b1 + a1*b0 - a1*b1.
    """
    return [
        ((a0, a1, b0, b1), float(a0 * b0 + a0 * b1 + a1 * b0 - a1 * b1))
        for a0, a1, b0, b1 in itertools.product((1, -1), repeat=4)
    ]


def max_deterministic_chsh() -> float:
    """Largest |S| over the 16 deterministic local strategies (exactly 2)."""
    return max(abs(s) for _, s in deterministic_strategies())


def statistical_dependence(model: ContextualModel | PostSelectionModel) -> float:
    """Largest total-variation distance between instrument laws of two contexts.

    Zero iff the instrument-pair distribution is the same in all four
    contexts, i.e. the model satisfies statistical independence at the
    instrument level. (For post-selection models this says nothing about the
    post-selected expectations: setting-dependent retention alone can push
    |S| beyond 2.)
    """
    if isinstance(model, ContextualModel):
        laws = model.instrument_weights
    elif isinstance(model, PostSelectionModel):
        laws = model.alice_instrument[:, None, :, None] * model.bob_instrument[None, :, None, :]
    else:
        raise TypeError("statistical dependence is defined for instrument-variable models")
    tables = laws.reshape(4, *laws.shape[2:])
    return max(0.5 * float(np.abs(p - q).sum()) for p, q in itertools.combinations(tables, 2))


def rejection_curve(kind: str, *, max_reject: float = 0.8, exponent: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Named decreasing rejection curves r(c) on c = |cos| in [0, 1].

    ``power``:  r(c) = max_reject * (1 - c) ** exponent.
    ``linear``: the power curve at exponent 1, the only exponent it takes.
    """
    if not (0.0 <= max_reject < 1.0):
        raise ValueError(f"max_reject must be in [0, 1), got {max_reject!r}")
    if not exponent > 0:
        raise ValueError(f"exponent must be positive, got {exponent!r}")
    if kind not in ("linear", "power"):
        raise ValueError(f"unknown rejection curve kind: {kind!r}")
    if kind == "linear" and exponent != 1.0:
        raise ValueError(f"a linear curve has exponent 1, got {exponent!r}")
    return lambda c: max_reject * (1.0 - c) ** exponent


def pearle_model(
    angles: AngleAssignment,
    rejection: Callable[[np.ndarray], np.ndarray] | None = None,
    *,
    bins: int = 720,
    threshold_bins: int = 64,
) -> PostSelectionModel:
    """Data-rejection preset: shared hidden angle, sign readout, angle-dependent rejection.

    The two source values are one shared angle, uniform on a circle of
    ``bins`` points. Station responses are sign(cos(angle - theta_setting)),
    replaced by 0 with probability rejection(|cos|), realized through a
    uniform instrument value quantized to ``threshold_bins`` levels. The
    rejection curve should be decreasing so borderline outcomes are rejected
    preferentially, which strengthens post-selected correlations.
    """
    if bins < 2 or threshold_bins < 1:
        raise ValueError("bins must be >= 2 and threshold_bins >= 1")
    if bins * max(bins, threshold_bins) > MAX_ITEMS:
        raise ValueError(f"bins * max(bins, threshold_bins) must be <= {MAX_ITEMS}")
    if rejection is None:
        rejection = rejection_curve("linear", max_reject=0.8)
    centers = (np.arange(bins) + 0.5) * (2.0 * math.pi / bins)
    thresholds = (np.arange(threshold_bins) + 0.5) / threshold_bins

    def responses(theta_by_label: tuple[float, float]) -> np.ndarray:
        table = np.zeros((2, bins, threshold_bins), dtype=np.int8)
        for lbl in (0, 1):
            c = np.cos(centers - theta_by_label[lbl])
            sign = np.where(c >= 0.0, 1, -1).astype(np.int8)
            reject = _law("rejection curve", rejection(np.abs(c)), 1, (bins,))
            keep = thresholds[None, :] >= reject[:, None]
            table[lbl] = np.where(keep, sign[:, None], 0)
        return table

    source = np.zeros((bins, bins))
    np.fill_diagonal(source, 1.0 / bins)
    uniform = np.full((2, threshold_bins), 1.0 / threshold_bins)
    return PostSelectionModel(
        source_weights=source,
        alice_instrument=uniform,
        bob_instrument=uniform,
        alice=responses(angles.alice),
        bob=responses(angles.bob),
    )


def disjoint_support_model() -> PostSelectionModel:
    """Preset with context-disjoint retained supports reaching |S| = 4.

    The shared source value encodes a context (u, v) uniformly; station A
    detects only when u matches its setting, station B only when v matches
    its own, so context (x, y) retains exactly the source value (x, y) and
    the retained sub-ensembles are pairwise disjoint. Retained outcomes are
    deterministic with product +1 on the three plus-signed contexts and -1
    on the (1, 1) context, so the post-selected CHSH value is exactly 4
    while every raw marginal is independent of the remote setting (the
    hidden law factorizes and responses are local).
    """
    source = np.zeros((4, 4))
    np.fill_diagonal(source, 0.25)
    singleton = np.ones((2, 1))
    alice = np.zeros((2, 4, 1), dtype=np.int8)
    bob = np.zeros((2, 4, 1), dtype=np.int8)
    for k in range(4):
        u, v = divmod(k, 2)
        alice[u, k, 0] = 1
        bob[v, k, 0] = -1 if (u, v) == (1, 1) else 1
    return PostSelectionModel(
        source_weights=source,
        alice_instrument=singleton,
        bob_instrument=singleton,
        alice=alice,
        bob=bob,
    )
