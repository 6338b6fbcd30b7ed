"""Shared test utilities: random model generators and independent oracles.

The brute-force expectation oracles deliberately use plain Python loops over
the hidden-value grids, independent of the vectorized implementations they
check.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from belllab.analysis import HypothesisReport, lhv_pvalue
from belllab.core import CONTEXTS, AngleAssignment, ContextTable, SettingPair, chsh, estimate
from belllab.couplings import (
    WEIGHT_EPS,
    ContextualModel,
    DeterministicLHVModel,
    PostSelectionModel,
    QuantumSingletModel,
    StochasticLHVModel,
)
from belllab.pipeline import UNKNOWN_SETTING, PairedRawData, RawEventStream


def savetxt_int_csv(header: str, columns: dict[str, np.ndarray]) -> bytes:
    """An integer CSV file as ``np.savetxt`` formats it: the writers' reference."""
    buf = io.StringIO()
    buf.write(f"{header}\n{','.join(columns)}\n")
    rows = np.column_stack([np.asarray(v, dtype=np.int64) for v in columns.values()])
    np.savetxt(buf, rows, fmt="%d", delimiter=",")
    return buf.getvalue().encode()


# The two pairing strategies as they were first written: a set-based lattice
# and a row-tuple greedy loop. They are the references for the pipeline's
# index-based pairing core.


def lattice_rows(ta: np.ndarray, tb: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Lattice pairing as a set computation on bin numbers.

    Returns per-row event indices of each station in bin order, -1 where a
    station has no event in the row's bin, and the audit counts.
    """
    # Streams are sorted, so the first index in each bin is the earliest event.
    ua, first_a, counts_a = np.unique(ta // w, return_index=True, return_counts=True)
    ub, first_b, counts_b = np.unique(tb // w, return_index=True, return_counts=True)
    common, ca, cb = np.intersect1d(ua, ub, assume_unique=True, return_indices=True)
    only_a = ~np.isin(ua, common, assume_unique=False)
    only_b = ~np.isin(ub, common, assume_unique=False)
    rows_bin = np.concatenate([common, ua[only_a], ub[only_b]])
    ia = np.concatenate([first_a[ca], first_a[only_a], np.full(int(only_b.sum()), -1)])
    ib = np.concatenate([first_b[cb], np.full(int(only_a.sum()), -1), first_b[only_b]])
    order = np.argsort(rows_bin, kind="stable")
    audit = {
        "matched": int(len(common)),
        "one_sided_a": int(only_a.sum()),
        "one_sided_b": int(only_b.sum()),
        "dropped_extra_a": int((counts_a - 1).sum()),
        "dropped_extra_b": int((counts_b - 1).sum()),
    }
    return ia[order], ib[order], audit


def _match_lattice(a: RawEventStream, b: RawEventStream, w: int) -> PairedRawData:
    ia, ib, audit = lattice_rows(a.times, b.times, w)

    def column(values: np.ndarray, rows: np.ndarray, missing: int) -> np.ndarray:
        return np.array([values[i] if i >= 0 else missing for i in rows.tolist()], dtype=np.int8)

    meta = {"strategy": "lattice", "window_ns": int(w), "events_a": len(a), "events_b": len(b), **audit}
    return PairedRawData(
        x=column(a.settings, ia, UNKNOWN_SETTING),
        y=column(b.settings, ib, UNKNOWN_SETTING),
        a=column(a.outcomes, ia, 0),
        b=column(b.outcomes, ib, 0),
        meta=meta,
    )


def _match_greedy(a: RawEventStream, b: RawEventStream, w: int) -> PairedRawData:
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


def greedy_indices(ta: np.ndarray, tb: np.ndarray, w: int) -> tuple[list[int], list[int]]:
    """Greedy pairing as the loop over events it replaced: per-row event indices.

    It subtracts Python ints, so it can judge any int64 times, where the
    row-tuple oracle above subtracts numpy int64 scalars.
    """
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


def full_cumulative_draw(law: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Categorical draws as ``couplings._draw`` first made them: a search over the
    cumulative of every entry of ``law``, negative entries clipped to 0."""
    cum = np.cumsum(np.clip(law.ravel(), 0.0, None))
    cum /= cum[-1]
    return np.unravel_index(np.searchsorted(cum, u, side="right"), law.shape)


# The instrument draws as the two instrument-variable samplers first wrote
# them, one loop over the contexts or over the setting labels, each label's
# rows drawn by ``full_cumulative_draw``: the references for ``couplings._draw``
# with labels.


def contextual_batch_by_context(
    model: ContextualModel, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``ContextualModel.sample_batch`` with a draw of the instrument pair per context."""
    n = len(x)
    u_src = rng.random(n)
    u_ins = rng.random(n)
    k1, k2 = full_cumulative_draw(model.source_weights, u_src)
    mu_x = np.empty(n, dtype=np.int64)
    mu_y = np.empty(n, dtype=np.int64)
    for s in CONTEXTS:
        rows = np.flatnonzero((x == s.x) & (y == s.y))
        mu_x[rows], mu_y[rows] = full_cumulative_draw(model.instrument_weights[s.x, s.y], u_ins[rows])
    return model.alice[x, k1, mu_x], model.bob[y, k2, mu_y]


def postselection_batch_by_setting(
    model: PostSelectionModel, x: np.ndarray, y: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``PostSelectionModel.sample_batch`` with a draw per station and setting label."""
    n = len(x)
    u_src = rng.random(n)
    u_a = rng.random(n)
    u_b = rng.random(n)
    k1, k2 = full_cumulative_draw(model.source_weights, u_src)
    mu_x = np.empty(n, dtype=np.int64)
    mu_y = np.empty(n, dtype=np.int64)
    for lbl in (0, 1):
        rows = np.flatnonzero(x == lbl)
        (mu_x[rows],) = full_cumulative_draw(model.alice_instrument[lbl], u_a[rows])
        rows = np.flatnonzero(y == lbl)
        (mu_y[rows],) = full_cumulative_draw(model.bob_instrument[lbl], u_b[rows])
    return model.alice[x, k1, mu_x], model.bob[y, k2, mu_y]


def random_deterministic_model(rng: np.random.Generator, n_hidden: int = 6) -> DeterministicLHVModel:
    w = rng.dirichlet(np.ones(n_hidden))
    return DeterministicLHVModel(
        weights=w,
        alice=rng.choice([-1, 1], size=(2, n_hidden)),
        bob=rng.choice([-1, 1], size=(2, n_hidden)),
    )


def random_stochastic_model(rng: np.random.Generator, n_hidden: int = 6) -> StochasticLHVModel:
    w = rng.dirichlet(np.ones(n_hidden))
    return StochasticLHVModel(
        weights=w,
        alice_plus=rng.random((2, n_hidden)),
        bob_plus=rng.random((2, n_hidden)),
    )


def random_contextual_model(
    rng: np.random.Generator, n1: int = 2, n2: int = 3, mx: int = 2, my: int = 2
) -> ContextualModel:
    src = rng.dirichlet(np.ones(n1 * n2)).reshape(n1, n2)
    iw = np.zeros((2, 2, mx, my))
    for s in CONTEXTS:
        iw[s.x, s.y] = rng.dirichlet(np.ones(mx * my)).reshape(mx, my)
    return ContextualModel(
        source_weights=src,
        instrument_weights=iw,
        alice=rng.choice([-1, 1], size=(2, n1, mx)),
        bob=rng.choice([-1, 1], size=(2, n2, my)),
    )


def random_postselection_model(
    rng: np.random.Generator, n1: int = 2, n2: int = 3, mx: int = 2, my: int = 2
) -> PostSelectionModel:
    src = rng.dirichlet(np.ones(n1 * n2)).reshape(n1, n2)
    return PostSelectionModel(
        source_weights=src,
        alice_instrument=np.stack([rng.dirichlet(np.ones(mx)) for _ in range(2)]),
        bob_instrument=np.stack([rng.dirichlet(np.ones(my)) for _ in range(2)]),
        alice=rng.choice([-1, 0, 1], size=(2, n1, mx)),
        bob=rng.choice([-1, 0, 1], size=(2, n2, my)),
    )


@dataclass(frozen=True)
class Moments:
    """One context's moments: E_ab, E_a, E_b given both outcomes nonzero (None iff C == 0) and C."""

    e_ab: float | None
    e_a: float | None
    e_b: float | None
    c: float


def _independent_moments(w: np.ndarray, ea: np.ndarray, eb: np.ndarray) -> Moments:
    """Moments of outcomes independent given the hidden value: ``w`` its law, ``ea``, ``eb`` their means."""
    return Moments(e_ab=float(w @ (ea * eb)), e_a=float(w @ ea), e_b=float(w @ eb), c=1.0)


def reference_moments(model, s: SettingPair) -> Moments:
    """The exact moments of ``model`` at context ``s``, by each family's own closed form.

    These are the formulas the families first computed their moments with, one
    per family, before every exact value was read from ``law()``: the oracle
    for the laws.
    """
    if isinstance(model, QuantumSingletModel):
        return Moments(e_ab=-model.visibility * math.cos(model.angles.alice[s.x] - model.angles.bob[s.y]), e_a=0.0, e_b=0.0, c=1.0)
    if isinstance(model, DeterministicLHVModel):
        a = model.alice[s.x].astype(np.float64)
        b = model.bob[s.y].astype(np.float64)
        return _independent_moments(model.weights, a, b)
    if isinstance(model, StochasticLHVModel):
        ea = 2.0 * model.alice_plus[s.x] - 1.0
        eb = 2.0 * model.bob_plus[s.y] - 1.0
        return _independent_moments(model.weights, ea, eb)
    if isinstance(model, ContextualModel):
        w = model.source_weights
        p = model.instrument_weights[s.x, s.y]
        a = model.alice[s.x].astype(np.float64)  # (n1, mx)
        b = model.bob[s.y].astype(np.float64)  # (n2, my)
        e_ab = float(np.einsum("lm,uv,lu,mv->", w, p, a, b))
        e_a = float(np.einsum("lm,uv,lu->", w, p, a))
        e_b = float(np.einsum("lm,uv,mv->", w, p, b))
        return Moments(e_ab=e_ab, e_a=e_a, e_b=e_b, c=1.0)
    # Per source value: signed response sum and keep probability, with
    # the instrument value integrated out.
    pa = model.alice_instrument[s.x]
    pb = model.bob_instrument[s.y]
    a = model.alice[s.x].astype(np.float64)
    b = model.bob[s.y].astype(np.float64)
    signed_a = a @ pa
    signed_b = b @ pb
    keep_a = (a != 0).astype(np.float64) @ pa
    keep_b = (b != 0).astype(np.float64) @ pb
    w = model.source_weights
    c = float(np.einsum("lm,l,m->", w, keep_a, keep_b))
    if c <= WEIGHT_EPS:
        return Moments(e_ab=None, e_a=None, e_b=None, c=0.0)
    e_ab = float(np.einsum("lm,l,m->", w, signed_a, signed_b)) / c
    e_a = float(np.einsum("lm,l,m->", w, signed_a, keep_b)) / c
    e_b = float(np.einsum("lm,l,m->", w, keep_a, signed_b)) / c
    return Moments(e_ab=e_ab, e_a=e_a, e_b=e_b, c=c)


def law_moments(law: np.ndarray, s: SettingPair) -> Moments:
    """The moments of context ``s`` read from a (2, 2, 3, 3) law, outcomes (+1, -1, 0).

    C is the mass of the +/-1 block; at or below WEIGHT_EPS the context starves.
    """
    block = law[s.x, s.y, :2, :2]
    c = float(block.sum())
    if c <= WEIGHT_EPS:
        return Moments(e_ab=None, e_a=None, e_b=None, c=0.0)
    sign = np.array([1.0, -1.0])
    e_ab = float(sign @ block @ sign) / c
    return Moments(e_ab=e_ab, e_a=float(sign @ block.sum(axis=1)) / c, e_b=float(block.sum(axis=0) @ sign) / c, c=c)


def brute_force_contextual(model: ContextualModel, s: SettingPair) -> tuple[float, float, float]:
    """(E_ab, E_a, E_b) by explicit enumeration of the hidden-value grid."""
    n1, n2 = model.source_weights.shape
    mx, my = model.instrument_weights.shape[2:]
    e_ab = e_a = e_b = 0.0
    for k1, k2, u, v in itertools.product(range(n1), range(n2), range(mx), range(my)):
        p = model.source_weights[k1, k2] * model.instrument_weights[s.x, s.y, u, v]
        a = int(model.alice[s.x, k1, u])
        b = int(model.bob[s.y, k2, v])
        e_ab += p * a * b
        e_a += p * a
        e_b += p * b
    return e_ab, e_a, e_b


def brute_force_postselection(
    model: PostSelectionModel, s: SettingPair
) -> tuple[float | None, float | None, float | None, float]:
    """(E_ab, E_a, E_b, C) conditioned on both outcomes nonzero, by enumeration."""
    n1, n2 = model.source_weights.shape
    mx = model.alice_instrument.shape[1]
    my = model.bob_instrument.shape[1]
    num_ab = num_a = num_b = c = 0.0
    for k1, k2, u, v in itertools.product(range(n1), range(n2), range(mx), range(my)):
        p = (
            model.source_weights[k1, k2]
            * model.alice_instrument[s.x, u]
            * model.bob_instrument[s.y, v]
        )
        a = int(model.alice[s.x, k1, u])
        b = int(model.bob[s.y, k2, v])
        if a != 0 and b != 0:
            c += p
            num_ab += p * a * b
            num_a += p * a
            num_b += p * b
    if c == 0.0:
        return None, None, None, 0.0
    return num_ab / c, num_a / c, num_b / c, c


def raw_moments(model: PostSelectionModel, s: SettingPair) -> tuple[float, float, float]:
    """Unconditioned moments of a post-selection model (zeros contribute 0): E[AB], E[A], E[B].

    The hidden law factorizes per station, so each station's response is
    averaged over its own instrument value before the source law joins them.
    """
    signed_a = model.alice[s.x].astype(np.float64) @ model.alice_instrument[s.x]
    signed_b = model.bob[s.y].astype(np.float64) @ model.bob_instrument[s.y]
    w = model.source_weights
    return float(signed_a @ w @ signed_b), float(signed_a @ w.sum(axis=1)), float(w.sum(axis=0) @ signed_b)


def rotation_invariant_contextual(
    source_weights: np.ndarray,
    alice: np.ndarray,
    bob: np.ndarray,
    angles: AngleAssignment,
    instrument_law: Callable[[float], np.ndarray],
) -> ContextualModel:
    """A ContextualModel whose instrument law depends on theta_xy only.

    ``instrument_law(theta)`` must return an (mx, my) probability table; it is
    evaluated at theta_x - theta_y for each context, which enforces the
    rotational-invariance constraint structurally.
    """
    tables = [np.asarray(instrument_law(angles.alice[s.x] - angles.bob[s.y])) for s in CONTEXTS]
    instrument_weights = np.zeros((2, 2, *tables[0].shape))
    for s, t in zip(CONTEXTS, tables):
        instrument_weights[s.x, s.y] = t
    return ContextualModel(
        source_weights=source_weights, instrument_weights=instrument_weights, alice=alice, bob=bob
    )


def random_nosignalling_tables(rng: np.random.Generator, denom: int = 16) -> np.ndarray:
    """Random no-signalling context tables on a rational grid, indexed [x, y, a, b].

    Marginals depend on the local setting only; correlations are free.
    Rejection-samples until every cell probability is nonnegative.
    """
    while True:
        ea = rng.integers(-denom, denom + 1, size=2) / denom
        eb = rng.integers(-denom, denom + 1, size=2) / denom
        eab = rng.integers(-denom, denom + 1, size=(2, 2)) / denom
        tables = np.zeros((2, 2, 2, 2))
        ok = True
        for s in CONTEXTS:
            t = np.zeros((2, 2))
            for ai, a in enumerate((1, -1)):
                for bi, b in enumerate((1, -1)):
                    t[ai, bi] = (1 + a * ea[s.x] + b * eb[s.y] + a * b * eab[s.x, s.y]) / 4
            if (t < 0).any():
                ok = False
                break
            tables[s.x, s.y] = t
        if ok:
            return tables


def tables_from_expectations(e_a, e_b, e_ab) -> np.ndarray:
    """Context tables, indexed [x, y, a, b], from per-setting marginals and per-context correlations."""
    tables = np.zeros((2, 2, 2, 2))
    for s in CONTEXTS:
        t = np.zeros((2, 2))
        for ai, a in enumerate((1, -1)):
            for bi, b in enumerate((1, -1)):
                t[ai, bi] = (1 + a * e_a[s] + b * e_b[s] + a * b * e_ab[s]) / 4
        tables[s.x, s.y] = t
    return tables


def two_sided_by_relabelling(table: ContextTable) -> HypothesisReport:
    """The two-sided local-bound test as first written, the reference for ``analysis.report``.

    When S < 0, Alice's outcome channels are relabelled (+1 <-> -1), which
    flips the sign of S, and the relabelled table is estimated again. The
    one-sided test of the oriented table then has its p-value doubled, a union
    bound over the two orientations. Raises where ``lhv_pvalue`` refuses.
    """
    summary = estimate(table)
    s = chsh(summary)
    if s is not None and s < 0:
        summary = estimate(ContextTable(table.counts[:, :, [1, 0, 2], :]))
    rep = lhv_pvalue(summary)
    return HypothesisReport(
        s_hat=rep.s_hat, n=rep.n, p_value=min(1.0, 2.0 * rep.p_value), method="hoeffding-two-sided"
    )


def reference_phase1_simplex(a: np.ndarray, b: np.ndarray) -> tuple[float, list[int], np.ndarray]:
    """The phase-1 simplex as first written, cell by cell: the reference for ``analysis``.

    Minimize the artificial-variable sum for A q = b, q >= 0 (b >= 0).
    Bland's rule throughout (no cycling). Returns the optimal objective,
    the final basis (column indices into [A | I]), and the final tableau.
    """
    n_rows, n_cols = a.shape
    tableau = np.hstack([a, np.eye(n_rows), b.reshape(-1, 1)])
    basis = list(range(n_cols, n_cols + n_rows))
    cost = np.concatenate([np.zeros(n_cols), np.ones(n_rows)])
    for _ in range(10_000):
        reduced = cost.copy()
        for i, var in enumerate(basis):
            if cost[var] != 0.0:
                reduced -= cost[var] * tableau[i, :-1]
        entering = -1
        for j in range(n_cols + n_rows):
            if reduced[j] < -1e-11:
                entering = j
                break
        if entering < 0:
            break
        col = tableau[:, entering]
        ratios = [
            (tableau[i, -1] / col[i], basis[i], i) for i in range(n_rows) if col[i] > 1e-11
        ]
        if not ratios:
            raise AssertionError("phase-1 objective is bounded; no pivot row found")
        _, _, row = min(ratios)
        pivot = tableau[row, entering]
        tableau[row] /= pivot
        for i in range(n_rows):
            if i != row and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[row]
        basis[row] = entering
    else:
        raise AssertionError("phase-1 simplex did not terminate")
    objective = float(sum(tableau[i, -1] for i, var in enumerate(basis) if var >= n_cols))
    return objective, basis, tableau
