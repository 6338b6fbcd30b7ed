"""Shared test utilities: random model generators and independent oracles.

The brute-force expectation oracles deliberately use plain Python loops over
the hidden-value grids, independent of the vectorized implementations they
check.
"""

from __future__ import annotations

import io
import itertools

import numpy as np

from belllab.core import CONTEXTS, SettingPair
from belllab.couplings import (
    ContextualModel,
    DeterministicLHVModel,
    PostSelectionModel,
    StochasticLHVModel,
)


def savetxt_int_csv(header: str, columns: dict[str, np.ndarray]) -> bytes:
    """An integer CSV file as ``np.savetxt`` formats it: the writers' reference."""
    buf = io.StringIO()
    buf.write(f"{header}\n{','.join(columns)}\n")
    rows = np.column_stack([np.asarray(v, dtype=np.int64) for v in columns.values()])
    np.savetxt(buf, rows, fmt="%d", delimiter=",")
    return buf.getvalue().encode()


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


def random_nosignalling_tables(rng: np.random.Generator, denom: int = 16) -> dict:
    """Random no-signalling context tables on a rational grid.

    Marginals depend on the local setting only; correlations are free.
    Rejection-samples until every cell probability is nonnegative.
    """
    while True:
        ea = rng.integers(-denom, denom + 1, size=2) / denom
        eb = rng.integers(-denom, denom + 1, size=2) / denom
        eab = rng.integers(-denom, denom + 1, size=(2, 2)) / denom
        tables = {}
        ok = True
        for s in CONTEXTS:
            t = np.zeros((2, 2))
            for ai, a in enumerate((1, -1)):
                for bi, b in enumerate((1, -1)):
                    t[ai, bi] = (1 + a * ea[s.x] + b * eb[s.y] + a * b * eab[s.x, s.y]) / 4
            if (t < 0).any():
                ok = False
                break
            tables[s] = t
        if ok:
            return tables


def tables_from_expectations(e_a, e_b, e_ab) -> dict:
    """Context tables from per-setting marginals and per-context correlations."""
    tables = {}
    for s in CONTEXTS:
        t = np.zeros((2, 2))
        for ai, a in enumerate((1, -1)):
            for bi, b in enumerate((1, -1)):
                t[ai, bi] = (1 + a * e_a[s] + b * e_b[s] + a * b * e_ab[s]) / 4
        tables[s] = t
    return tables
