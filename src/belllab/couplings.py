"""The five coupling-model families and their exact/sampled laws.

Each family answers two questions for a context (x, y): what are the exact
moments (pairwise expectation, marginals, retained fraction), and how do I
draw one trial? Exact values come from closed forms or finite sums over the
tabulated hidden values; samplers are vectorized and consume a fixed sequence
of uniform draws per batch so that runs are reproducible.

Families:

* ``QuantumSingletModel`` - singlet correlations E = -V*cos(theta) with a
  Werner-style visibility V scaling the correlation amplitude linearly.
* ``DeterministicLHVModel`` - deterministic local responses A_x, B_y of a
  finite hidden value; bounded by |S| <= 2.
* ``StochasticLHVModel`` - conditionally independent +/-1 outcomes given the
  hidden value; same bound.
* ``ContextualModel`` - adds instrument variables whose joint distribution
  depends on the context; outcomes stay locally generated but statistical
  independence fails, so |S| may exceed 2.
* ``PostSelectionModel`` - responses may be 0 ("no detection") and reported
  expectations condition on both outcomes being nonzero, normalized by the
  retained fraction C; post-selected |S| is bounded only by 4.

All hidden-variable sets are finite and explicitly tabulated. No contextual
instance shipped here reproduces the full singlet law without post-selection;
none is known to us and we do not attempt a construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .core import CONTEXTS, MAX_ITEMS, AngleAssignment, SettingPair, chsh_from_expectations

__all__ = [
    "ExactMoments",
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
    "rotation_invariant_contextual",
    "pearle_model",
    "disjoint_support_model",
    "rejection_curve",
]

#: Weights smaller than this are treated as exactly 0 in normalization checks.
WEIGHT_EPS = 1e-15

#: Probability tables must sum to 1 within this tolerance.
NORM_TOL = 1e-9


@dataclass(frozen=True)
class ExactMoments:
    """Exact per-context moments. Expectations are ``None`` iff ``c == 0``."""

    e_ab: float | None
    e_a: float | None
    e_b: float | None
    c: float


def _as_readonly(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def _responses(name: str, table: np.ndarray, allowed: tuple[int, ...]) -> np.ndarray:
    """A read-only int8 copy of a response table whose entries must lie in ``allowed``."""
    table = np.asarray(table)
    # Check the values as given, before narrowing: int8(255) would read as -1.
    if not np.isin(table, allowed).all():
        raise ValueError(f"{name} responses must be in {allowed}")
    return _as_readonly(table, np.int8)


def _check_distribution(name: str, w: np.ndarray) -> None:
    if not np.isfinite(w).all():
        raise ValueError(f"{name}: weights must be finite")
    if (w < -WEIGHT_EPS).any():
        raise ValueError(f"{name}: weights must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"{name}: weights must sum to 1, got {total!r}")


def _cumulative(w: np.ndarray) -> np.ndarray:
    cum = np.cumsum(np.clip(np.asarray(w, dtype=np.float64).ravel(), 0.0, None))
    cum /= cum[-1]
    return cum


def _categorical(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.searchsorted(cum, u, side="right")


@dataclass(frozen=True)
class QuantumSingletModel:
    """Visibility-degraded singlet: joint law p(a, b) = (1 - V*a*b*cos theta)/4."""

    angles: AngleAssignment
    visibility: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")

    def exact_expectation(self, s: SettingPair) -> ExactMoments:
        return ExactMoments(
            e_ab=-self.visibility * math.cos(self.angles.theta(s)),
            e_a=0.0,
            e_b=0.0,
            c=1.0,
        )

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
        object.__setattr__(self, "weights", _as_readonly(self.weights, np.float64))
        for name in ("alice", "bob"):
            object.__setattr__(self, name, _responses(name, getattr(self, name), (-1, 1)))
        n = self.weights.shape[0]
        if self.weights.ndim != 1 or n == 0:
            raise ValueError("weights must be a nonempty vector")
        _check_distribution("hidden weights", self.weights)
        for name, table in (("alice", self.alice), ("bob", self.bob)):
            if table.shape != (2, n):
                raise ValueError(f"{name} responses must have shape (2, {n})")

    def exact_expectation(self, s: SettingPair) -> ExactMoments:
        a = self.alice[s.x].astype(np.float64)
        b = self.bob[s.y].astype(np.float64)
        w = self.weights
        return ExactMoments(
            e_ab=float(w @ (a * b)), e_a=float(w @ a), e_b=float(w @ b), c=1.0
        )

    def sample_batch(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        # Draw order: one uniform vector for the hidden value.
        lam = _categorical(_cumulative(self.weights), rng.random(len(x)))
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
        object.__setattr__(self, "weights", _as_readonly(self.weights, np.float64))
        object.__setattr__(self, "alice_plus", _as_readonly(self.alice_plus, np.float64))
        object.__setattr__(self, "bob_plus", _as_readonly(self.bob_plus, np.float64))
        n = self.weights.shape[0]
        if self.weights.ndim != 1 or n == 0:
            raise ValueError("weights must be a nonempty vector")
        _check_distribution("hidden weights", self.weights)
        for name, table in (("alice_plus", self.alice_plus), ("bob_plus", self.bob_plus)):
            if table.shape != (2, n):
                raise ValueError(f"{name} must have shape (2, {n})")
            if ((table < -WEIGHT_EPS) | (table > 1.0 + WEIGHT_EPS)).any():
                raise ValueError(f"{name} entries must be probabilities")

    def exact_expectation(self, s: SettingPair) -> ExactMoments:
        ea = 2.0 * self.alice_plus[s.x] - 1.0
        eb = 2.0 * self.bob_plus[s.y] - 1.0
        w = self.weights
        return ExactMoments(
            e_ab=float(w @ (ea * eb)), e_a=float(w @ ea), e_b=float(w @ eb), c=1.0
        )

    def sample_batch(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        # Draw order: hidden value, then a's coin, then b's coin.
        n = len(x)
        lam = _categorical(_cumulative(self.weights), rng.random(n))
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
        object.__setattr__(self, "source_weights", _as_readonly(self.source_weights, np.float64))
        object.__setattr__(self, "instrument_weights", _as_readonly(self.instrument_weights, np.float64))
        for name in ("alice", "bob"):
            object.__setattr__(self, name, _responses(name, getattr(self, name), (-1, 1)))
        if self.source_weights.ndim != 2:
            raise ValueError("source_weights must be a 2-d joint table")
        n1, n2 = self.source_weights.shape
        _check_distribution("source weights", self.source_weights)
        if self.instrument_weights.ndim != 4 or self.instrument_weights.shape[:2] != (2, 2):
            raise ValueError("instrument_weights must have shape (2, 2, mx, my)")
        mx, my = self.instrument_weights.shape[2:]
        for s in CONTEXTS:
            _check_distribution(
                f"instrument weights for context {s.key()}",
                self.instrument_weights[s.x, s.y],
            )
        if self.alice.shape != (2, n1, mx):
            raise ValueError(f"alice responses must have shape (2, {n1}, {mx})")
        if self.bob.shape != (2, n2, my):
            raise ValueError(f"bob responses must have shape (2, {n2}, {my})")

    def exact_expectation(self, s: SettingPair) -> ExactMoments:
        w = self.source_weights
        p = self.instrument_weights[s.x, s.y]
        a = self.alice[s.x].astype(np.float64)  # (n1, mx)
        b = self.bob[s.y].astype(np.float64)  # (n2, my)
        e_ab = float(np.einsum("lm,uv,lu,mv->", w, p, a, b))
        e_a = float(np.einsum("lm,uv,lu->", w, p, a))
        e_b = float(np.einsum("lm,uv,mv->", w, p, b))
        return ExactMoments(e_ab=e_ab, e_a=e_a, e_b=e_b, c=1.0)

    def sample_batch(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        # Draw order: source pair, then instrument pair. Both uniforms are
        # drawn for the whole batch up front; the per-context transform
        # consumes no extra randomness, so the draw count is context-free.
        n = len(x)
        n1, n2 = self.source_weights.shape
        my = self.instrument_weights.shape[3]
        u_src = rng.random(n)
        u_ins = rng.random(n)
        flat_src = _categorical(_cumulative(self.source_weights), u_src)
        k1, k2 = np.divmod(flat_src, n2)
        mu_x = np.empty(n, dtype=np.int64)
        mu_y = np.empty(n, dtype=np.int64)
        for s in CONTEXTS:
            mask = (x == s.x) & (y == s.y)
            if not mask.any():
                continue
            flat = _categorical(
                _cumulative(self.instrument_weights[s.x, s.y]), u_ins[mask]
            )
            mu_x[mask], mu_y[mask] = np.divmod(flat, my)
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
        object.__setattr__(self, "source_weights", _as_readonly(self.source_weights, np.float64))
        object.__setattr__(self, "alice_instrument", _as_readonly(self.alice_instrument, np.float64))
        object.__setattr__(self, "bob_instrument", _as_readonly(self.bob_instrument, np.float64))
        for name in ("alice", "bob"):
            object.__setattr__(self, name, _responses(name, getattr(self, name), (-1, 0, 1)))
        if self.source_weights.ndim != 2:
            raise ValueError("source_weights must be a 2-d joint table")
        n1, n2 = self.source_weights.shape
        _check_distribution("source weights", self.source_weights)
        for name, table in (
            ("alice_instrument", self.alice_instrument),
            ("bob_instrument", self.bob_instrument),
        ):
            if table.ndim != 2 or table.shape[0] != 2:
                raise ValueError(f"{name} must have shape (2, m)")
            for lbl in (0, 1):
                _check_distribution(f"{name}[{lbl}]", table[lbl])
        mx = self.alice_instrument.shape[1]
        my = self.bob_instrument.shape[1]
        if self.alice.shape != (2, n1, mx):
            raise ValueError(f"alice responses must have shape (2, {n1}, {mx})")
        if self.bob.shape != (2, n2, my):
            raise ValueError(f"bob responses must have shape (2, {n2}, {my})")
        if all(self.exact_expectation(s).c <= 0.0 for s in CONTEXTS):
            raise ValueError("all contexts starve: no context retains any pairs")

    def _station_sums(self, s: SettingPair) -> tuple[np.ndarray, ...]:
        # Per source value: signed response sum and keep probability, with
        # the instrument value integrated out.
        pa = self.alice_instrument[s.x]
        pb = self.bob_instrument[s.y]
        a = self.alice[s.x].astype(np.float64)
        b = self.bob[s.y].astype(np.float64)
        signed_a = a @ pa
        signed_b = b @ pb
        keep_a = (a != 0).astype(np.float64) @ pa
        keep_b = (b != 0).astype(np.float64) @ pb
        return signed_a, signed_b, keep_a, keep_b

    def exact_expectation(self, s: SettingPair) -> ExactMoments:
        signed_a, signed_b, keep_a, keep_b = self._station_sums(s)
        w = self.source_weights
        c = float(np.einsum("lm,l,m->", w, keep_a, keep_b))
        if c <= WEIGHT_EPS:
            return ExactMoments(e_ab=None, e_a=None, e_b=None, c=0.0)
        e_ab = float(np.einsum("lm,l,m->", w, signed_a, signed_b)) / c
        e_a = float(np.einsum("lm,l,m->", w, signed_a, keep_b)) / c
        e_b = float(np.einsum("lm,l,m->", w, keep_a, signed_b)) / c
        return ExactMoments(e_ab=e_ab, e_a=e_a, e_b=e_b, c=c)

    def raw_moments(self, s: SettingPair) -> tuple[float, float, float]:
        """Unconditioned moments (zeros contribute 0): E[AB], E[A], E[B]."""
        signed_a, signed_b, _, _ = self._station_sums(s)
        w = self.source_weights
        e_ab = float(np.einsum("lm,l,m->", w, signed_a, signed_b))
        e_a = float(signed_a @ w.sum(axis=1))
        e_b = float(w.sum(axis=0) @ signed_b)
        return e_ab, e_a, e_b

    def sample_batch(
        self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        # Draw order: source pair, Alice instrument, Bob instrument.
        n = len(x)
        n2 = self.source_weights.shape[1]
        u_src = rng.random(n)
        u_a = rng.random(n)
        u_b = rng.random(n)
        flat_src = _categorical(_cumulative(self.source_weights), u_src)
        k1, k2 = np.divmod(flat_src, n2)
        mu_x = np.empty(n, dtype=np.int64)
        mu_y = np.empty(n, dtype=np.int64)
        cum_a = [_cumulative(self.alice_instrument[lbl]) for lbl in (0, 1)]
        cum_b = [_cumulative(self.bob_instrument[lbl]) for lbl in (0, 1)]
        for lbl in (0, 1):
            mask = x == lbl
            mu_x[mask] = _categorical(cum_a[lbl], u_a[mask])
            mask = y == lbl
            mu_y[mask] = _categorical(cum_b[lbl], u_b[mask])
        return self.alice[x, k1, mu_x], self.bob[y, k2, mu_y]


CouplingModel = Union[
    QuantumSingletModel,
    DeterministicLHVModel,
    StochasticLHVModel,
    ContextualModel,
    PostSelectionModel,
]


def exact_chsh(model: CouplingModel) -> float | None:
    """CHSH combination of the exact pairwise expectations (None if starved)."""
    e = {}
    for s in CONTEXTS:
        m = model.exact_expectation(s)
        if m.e_ab is None:
            return None
        e[s] = m.e_ab
    return chsh_from_expectations(e)


def sample_batch(
    model: CouplingModel, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized trial draws at per-trial contexts (x[i], y[i])."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    return model.sample_batch(x, y, rng)


def deterministic_strategies() -> list[tuple[tuple[int, int, int, int], float]]:
    """All 16 deterministic local strategies with their CHSH values.

    A strategy fixes (a0, a1, b0, b1) in {+1, -1}^4; its CHSH value is
    a0*b0 + a0*b1 + a1*b0 - a1*b1.
    """
    out = []
    for a0 in (1, -1):
        for a1 in (1, -1):
            for b0 in (1, -1):
                for b1 in (1, -1):
                    s = float(a0 * b0 + a0 * b1 + a1 * b0 - a1 * b1)
                    out.append(((a0, a1, b0, b1), s))
    return out


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
        tables = [model.instrument_weights[s.x, s.y] for s in CONTEXTS]
    elif isinstance(model, PostSelectionModel):
        tables = [
            np.outer(model.alice_instrument[s.x], model.bob_instrument[s.y])
            for s in CONTEXTS
        ]
    else:
        raise TypeError("statistical dependence is defined for instrument-variable models")
    worst = 0.0
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            worst = max(worst, 0.5 * float(np.abs(tables[i] - tables[j]).sum()))
    return worst


def rotation_invariant_contextual(
    n_source: int,
    source_weights: np.ndarray,
    alice: np.ndarray,
    bob: np.ndarray,
    angles: AngleAssignment,
    instrument_law: Callable[[float], np.ndarray],
) -> ContextualModel:
    """Build a ContextualModel whose instrument law depends on theta_xy only.

    ``instrument_law(theta)`` must return an (mx, my) probability table; it is
    evaluated at theta_x - theta_y for each context, which enforces the
    rotational-invariance constraint structurally.
    """
    tables = [instrument_law(angles.theta(s)) for s in CONTEXTS]
    mx, my = np.asarray(tables[0]).shape
    instrument_weights = np.zeros((2, 2, mx, my))
    for s, t in zip(CONTEXTS, tables):
        instrument_weights[s.x, s.y] = t
    return ContextualModel(
        source_weights=source_weights,
        instrument_weights=instrument_weights,
        alice=alice,
        bob=bob,
    )


def rejection_curve(kind: str = "linear", *, max_reject: float = 0.8, exponent: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Named decreasing rejection curves r(c) on c = |cos| in [0, 1].

    ``linear``: r(c) = max_reject * (1 - c).
    ``power``:  r(c) = max_reject * (1 - c) ** exponent.
    """
    if not (0.0 <= max_reject < 1.0):
        raise ValueError(f"max_reject must be in [0, 1), got {max_reject!r}")
    if not exponent > 0:
        raise ValueError(f"exponent must be positive, got {exponent!r}")
    if kind == "linear":
        return lambda c: max_reject * (1.0 - c)
    if kind == "power":
        return lambda c: max_reject * (1.0 - c) ** exponent
    raise ValueError(f"unknown rejection curve kind: {kind!r}")


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
            reject = np.asarray(rejection(np.abs(c)), dtype=np.float64)
            if ((reject < -WEIGHT_EPS) | (reject > 1.0 + WEIGHT_EPS)).any():
                raise ValueError("rejection curve must map into [0, 1]")
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
