"""Statistical inference and coupling-feasibility analysis.

Four operations:

* ``lhv_pvalue`` - a Hoeffding tail bound on the trial-averaged CHSH score
  under the hypothesis that some local hidden-variable coupling generated
  the data with uniform, fixed setting probabilities. One-sided: p = 1
  whenever the estimate does not exceed the local bound 2.
* ``nosignalling_test`` - two-proportion z-tests comparing each party's
  +1 marginal across the remote setting, computed separately on raw
  (zeros included in the denominator) and post-selected tables, plus a
  Bonferroni family-wise block p-value per table.
* ``coupling_feasibility`` - a linear-program feasibility check for a joint
  distribution over the 16 deterministic local strategies reproducing four
  given context distributions, with a witness when feasible and a
  separating linear functional when not. The solver is a self-contained
  phase-1 simplex; the problem is 16 equations in 16 unknowns, far too
  small to warrant an external solver.
* ``theta_sweep`` - exact or Monte-Carlo correlation curves over a grid of
  relative analyzer angles.

All operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import stats

from . import rng as _rng
from .core import (
    CHSH_SIGNS,
    CONTEXTS,
    MAX_ITEMS,
    ContextTable,
    CorrelationSummary,
    SettingPair,
)
from .couplings import CouplingModel, deterministic_strategies, sample_batch
from .errors import AnalysisError

__all__ = [
    "HypothesisReport",
    "MarginalComparison",
    "NoSignallingReport",
    "FeasibilityCertificate",
    "FeasibilityResult",
    "lhv_pvalue",
    "nosignalling_test",
    "coupling_feasibility",
    "pairwise_tables",
    "chsh_combinations",
    "theta_sweep",
    "SweepPoint",
    "STRATEGY_ORDER",
]

#: LP feasibility tolerance (phase-1 objective threshold and slack floor).
LP_TOL = 1e-9

#: Refusal threshold for the uniform-settings guard in lhv_pvalue.
UNIFORMITY_ALPHA = 1e-9


@dataclass(frozen=True)
class HypothesisReport:
    """Result of the local-bound hypothesis test."""

    s_hat: float
    n: int
    p_value: float
    method: str = "hoeffding"

    def to_json(self) -> dict:
        return {"s_hat": self.s_hat, "n": self.n, "p_value": self.p_value, "method": self.method}


def lhv_pvalue(summary: CorrelationSummary) -> HypothesisReport:
    """Hoeffding bound on the probability of the observed CHSH estimate under LHV.

    The per-trial score is 4*a*b*c(x, y) with c = +1 except c(1, 1) = -1;
    zero outcomes score 0. Its mean equals the CHSH estimate computed with
    multinomial context weights; under any local coupling with uniform
    setting probabilities the score has mean at most 2 and range [-4, 4],
    so P(S_hat >= 2 + t) <= exp(-N t^2 / 32). Requires every context to be
    populated and refuses grossly non-uniform setting counts.
    """
    n_by_ctx = np.array([summary[s].n_total for s in CONTEXTS], dtype=np.float64)
    if (n_by_ctx == 0).any():
        empty = [s.key() for s in CONTEXTS if summary[s].n_total == 0]
        raise AnalysisError(f"all contexts must be populated; empty: {empty}")
    n = float(n_by_ctx.sum())
    chi2_stat = float(((n_by_ctx - n / 4) ** 2 / (n / 4)).sum())
    p_uniform = float(stats.chi2.sf(chi2_stat, df=3))
    if p_uniform < UNIFORMITY_ALPHA:
        raise AnalysisError(
            "setting counts are inconsistent with the uniform-settings protocol "
            f"(chi2={chi2_stat:.2f}, p={p_uniform:.3g}); the bound assumes P(x,y)=1/4"
        )
    score_sum = 0.0
    for s in CONTEXTS:
        est = summary[s]
        if est.e_ab is not None:
            score_sum += CHSH_SIGNS[s] * est.e_ab * est.n_pairs
    s_hat = 4.0 * score_sum / n
    if s_hat > 2.0:
        p = math.exp(-n * (s_hat - 2.0) ** 2 / 32.0)
    else:
        p = 1.0
    return HypothesisReport(s_hat=s_hat, n=int(n), p_value=p, method="hoeffding")


@dataclass(frozen=True)
class MarginalComparison:
    """One party/setting marginal compared across the remote setting."""

    party: str
    setting: int
    p_plus: tuple[float | None, float | None]
    n: tuple[int, int]
    delta: float | None
    se: float | None
    z: float | None
    p_value: float | None

    def to_json(self) -> dict:
        return {
            "party": self.party,
            "setting": self.setting,
            "p_plus": list(self.p_plus),
            "n": list(self.n),
            "delta": self.delta,
            "se": self.se,
            "z": self.z,
            "p_value": self.p_value,
        }


@dataclass(frozen=True)
class NoSignallingReport:
    """Marginal comparisons on raw and post-selected tables.

    ``raw_block_p``/``final_block_p`` are Bonferroni family-wise p-values
    (min over the defined comparisons, scaled by their count): the block
    "fires" at level alpha when the adjusted value is below alpha.
    """

    raw: tuple[MarginalComparison, ...]
    final: tuple[MarginalComparison, ...]
    raw_block_p: float | None
    final_block_p: float | None

    def to_json(self) -> dict:
        return {
            "raw": [c.to_json() for c in self.raw],
            "final": [c.to_json() for c in self.final],
            "raw_block_p": self.raw_block_p,
            "final_block_p": self.final_block_p,
        }


def _plus_counts(table: ContextTable, party: str, local: int, remote: int) -> tuple[int, int]:
    """(+1 count, total) for one party/context; totals include zero outcomes."""
    if party == "alice":
        s = SettingPair(local, remote)
        block = table.counts[s.x, s.y]
        return int(block[0, :].sum()), int(block.sum())
    s = SettingPair(remote, local)
    block = table.counts[s.x, s.y]
    return int(block[:, 0].sum()), int(block.sum())


def _compare(table: ContextTable, party: str, local: int) -> MarginalComparison:
    k1, n1 = _plus_counts(table, party, local, remote=0)
    k2, n2 = _plus_counts(table, party, local, remote=1)
    if n1 == 0 or n2 == 0:
        return MarginalComparison(
            party=party,
            setting=local,
            p_plus=(k1 / n1 if n1 else None, k2 / n2 if n2 else None),
            n=(n1, n2),
            delta=None,
            se=None,
            z=None,
            p_value=None,
        )
    p1, p2 = k1 / n1, k2 / n2
    pooled = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    delta = p1 - p2
    if se == 0.0:
        # Degenerate pooled proportion: both samples are constant and equal.
        z, p = 0.0, 1.0
    else:
        z = delta / se
        p = 2.0 * float(stats.norm.sf(abs(z)))
    return MarginalComparison(
        party=party,
        setting=local,
        p_plus=(p1, p2),
        n=(n1, n2),
        delta=delta,
        se=se,
        z=z,
        p_value=p,
    )


def _block_p(comparisons: Sequence[MarginalComparison]) -> float | None:
    ps = [c.p_value for c in comparisons if c.p_value is not None]
    if not ps:
        return None
    return min(1.0, len(ps) * min(ps))


def nosignalling_test(raw: ContextTable, final: ContextTable) -> NoSignallingReport:
    """Compare each party's +1 marginal across the remote setting.

    Raw-table proportions use single-station counts with zero outcomes
    included in the denominator (unpaired slots still count as trials of the
    detected side); post-selected tables contain no zeros, so the same
    formula reduces to the standard conditional marginal. Starved cells
    yield ``None`` markers for that comparison.
    """
    blocks = {}
    for name, table in (("raw", raw), ("final", final)):
        blocks[name] = tuple(
            _compare(table, party, local) for party in ("alice", "bob") for local in (0, 1)
        )
    return NoSignallingReport(
        raw=blocks["raw"],
        final=blocks["final"],
        raw_block_p=_block_p(blocks["raw"]),
        final_block_p=_block_p(blocks["final"]),
    )


# --- LP feasibility -------------------------------------------------------

#: Fixed strategy order: (a0, a1, b0, b1) nested with +1 before -1.
STRATEGY_ORDER: tuple[tuple[int, int, int, int], ...] = tuple(
    s for s, _ in deterministic_strategies()
)


def _strategy_matrix() -> np.ndarray:
    """Constraint matrix: rows are (context, a, b) cells, columns strategies.

    Row order: contexts in CONTEXTS order, then a in (+1, -1), then b.
    """
    m = np.zeros((16, 16))
    for col, (a0, a1, b0, b1) in enumerate(STRATEGY_ORDER):
        a_by = (a0, a1)
        b_by = (b0, b1)
        for ci, s in enumerate(CONTEXTS):
            for ai, a in enumerate((1, -1)):
                for bi, b in enumerate((1, -1)):
                    if a_by[s.x] == a and b_by[s.y] == b:
                        m[ci * 4 + ai * 2 + bi, col] = 1.0
    return m


_STRATEGY_MATRIX = _strategy_matrix()


def _tables_vector(p_xy: Mapping[SettingPair, np.ndarray]) -> np.ndarray:
    vec = np.zeros(16)
    for ci, s in enumerate(CONTEXTS):
        t = np.asarray(p_xy[s], dtype=np.float64)
        if t.shape != (2, 2):
            raise AnalysisError(f"context {s.key()}: table must be 2x2 over (+1, -1) outcomes")
        if not np.isfinite(t).all() or (t < -1e-12).any():
            raise AnalysisError(f"context {s.key()}: table entries must be probabilities")
        if abs(float(t.sum()) - 1.0) > 1e-9:
            raise AnalysisError(f"context {s.key()}: table must sum to 1, got {float(t.sum())!r}")
        vec[ci * 4 : ci * 4 + 4] = t.ravel()
    return vec


def _phase1_simplex(a: np.ndarray, b: np.ndarray) -> tuple[float, list[int], np.ndarray]:
    """Minimize the artificial-variable sum for A q = b, q >= 0 (b >= 0).

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


@dataclass(frozen=True)
class FeasibilityCertificate:
    """A linear functional separating the input from every local strategy.

    ``value`` is the functional applied to the input tables, ``bound`` its
    maximum over the 16 deterministic strategies, ``slack = value - bound``.
    Coefficients are indexed [x, y, a_index, b_index] with outcome order
    (+1, -1).
    """

    coefficients: np.ndarray
    value: float
    bound: float
    slack: float
    kind: str

    def to_json(self) -> dict:
        return {
            "coefficients": self.coefficients.tolist(),
            "value": self.value,
            "bound": self.bound,
            "slack": self.slack,
            "kind": self.kind,
        }


@dataclass(frozen=True)
class FeasibilityResult:
    """LP verdict on the existence of a joint 4-variable coupling."""

    feasible: bool
    joint: np.ndarray | None
    margin_error: float | None
    max_violation: float | None
    certificate: FeasibilityCertificate | None

    def to_json(self) -> dict:
        joint = None
        if self.joint is not None:
            joint = [
                {"a0": s[0], "a1": s[1], "b0": s[2], "b1": s[3], "weight": float(w)}
                for s, w in zip(STRATEGY_ORDER, self.joint)
            ]
        return {
            "feasible": self.feasible,
            "joint": joint,
            "margin_error": self.margin_error,
            "max_violation": self.max_violation,
            "certificate": None if self.certificate is None else self.certificate.to_json(),
        }


def chsh_combinations(p_xy: Mapping[SettingPair, np.ndarray]) -> list[float]:
    """The 8 CHSH-type sign combinations of the pairwise expectations."""
    e = {}
    outcome = np.array([1.0, -1.0])
    for s in CONTEXTS:
        t = np.asarray(p_xy[s], dtype=np.float64)
        e[s] = float(outcome @ t @ outcome)
    combos = []
    for signs in _chsh_sign_placements():
        combos.append(sum(signs[s] * e[s] for s in CONTEXTS))
    return combos


def _chsh_sign_placements() -> list[dict[SettingPair, float]]:
    placements = []
    for bits in range(16):
        signs = {
            s: (1.0 if (bits >> i) & 1 == 0 else -1.0) for i, s in enumerate(CONTEXTS)
        }
        if np.prod(list(signs.values())) < 0:  # odd number of minus signs
            placements.append(signs)
    return placements


def _functional_from_signs(signs: dict[SettingPair, float]) -> np.ndarray:
    coeff = np.zeros((2, 2, 2, 2))
    outcome = (1.0, -1.0)
    for s in CONTEXTS:
        for ai, a in enumerate(outcome):
            for bi, b in enumerate(outcome):
                coeff[s.x, s.y, ai, bi] = signs[s] * a * b
    return coeff


def _evaluate_functional(coeff: np.ndarray, vec: np.ndarray) -> tuple[float, float]:
    """(value on input vector, max over the 16 deterministic strategies)."""
    flat = np.concatenate([coeff[s.x, s.y].ravel() for s in CONTEXTS])
    value = float(flat @ vec)
    bound = float((flat @ _STRATEGY_MATRIX).max())
    return value, bound


def coupling_feasibility(p_xy: Mapping[SettingPair, np.ndarray]) -> FeasibilityResult:
    """Decide whether one joint strategy distribution reproduces all four tables.

    Searches for weights q >= 0 over the 16 deterministic assignments
    (a0, a1, b0, b1) whose induced pairwise distributions equal the inputs.
    Feasible: returns the witness with its worst margin error (the witness is
    re-solved from the original constraint columns, so the error is at
    machine precision). Infeasible: returns a separating functional - the
    most violated CHSH-type combination when one is violated, otherwise the
    phase-1 dual vector (which also separates marginal inconsistencies that
    no CHSH combination can see).
    """
    vec = _tables_vector(p_xy)
    objective, basis, _ = _phase1_simplex(_STRATEGY_MATRIX, vec)
    if objective <= LP_TOL:
        columns = np.hstack([_STRATEGY_MATRIX, np.eye(16)])
        q_basis = np.linalg.solve(columns[:, basis], vec)
        q = np.zeros(16)
        for value, var in zip(q_basis, basis):
            if var < 16:
                q[var] = value
        q = np.where(np.abs(q) < 1e-12, 0.0, q)
        if (q < 0).any():
            raise AssertionError("simplex returned a negative witness weight")
        margin_error = float(np.abs(_STRATEGY_MATRIX @ q - vec).max())
        return FeasibilityResult(
            feasible=True,
            joint=q,
            margin_error=margin_error,
            max_violation=None,
            certificate=None,
        )

    combos = chsh_combinations(p_xy)
    max_violation = max(abs(c) for c in combos)
    best = int(np.argmax(combos))
    if combos[best] > 2.0 + LP_TOL:
        coeff = _functional_from_signs(_chsh_sign_placements()[best])
        value, bound = _evaluate_functional(coeff, vec)
        certificate = FeasibilityCertificate(
            coefficients=coeff, value=value, bound=bound, slack=value - bound, kind="chsh"
        )
    else:
        # Infeasibility without a CHSH violation (inconsistent marginals):
        # use the phase-1 dual vector, re-derived from the original columns.
        columns = np.hstack([_STRATEGY_MATRIX, np.eye(16)])
        cost = np.concatenate([np.zeros(16), np.ones(16)])
        basis_matrix = columns[:, basis]
        y = np.linalg.solve(basis_matrix.T, cost[basis])
        y = y / np.abs(y).max()
        coeff = np.zeros((2, 2, 2, 2))
        for ci, s in enumerate(CONTEXTS):
            coeff[s.x, s.y] = y[ci * 4 : ci * 4 + 4].reshape(2, 2)
        value, bound = _evaluate_functional(coeff, vec)
        certificate = FeasibilityCertificate(
            coefficients=coeff, value=value, bound=bound, slack=value - bound, kind="dual"
        )
    if certificate.slack <= LP_TOL:
        raise AssertionError("infeasible verdict without a separating certificate")
    return FeasibilityResult(
        feasible=False,
        joint=None,
        margin_error=None,
        max_violation=max_violation,
        certificate=certificate,
    )


def pairwise_tables(model: CouplingModel) -> dict[SettingPair, np.ndarray]:
    """Per-context 2x2 outcome tables implied by a model's exact moments.

    For post-selection models this is the conditional law given both
    outcomes nonzero; starved contexts raise.
    """
    tables = {}
    outcome = np.array([1.0, -1.0])
    for s in CONTEXTS:
        m = model.exact_expectation(s)
        if m.e_ab is None:
            raise AnalysisError(f"context {s.key()} starves; no conditional table exists")
        t = (
            1.0
            + outcome[:, None] * m.e_a
            + outcome[None, :] * m.e_b
            + np.outer(outcome, outcome) * m.e_ab
        ) / 4.0
        tables[s] = t
    return tables


# --- angle sweeps ----------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One sweep row: angle, estimated or exact E, its standard error, pairs used."""

    theta: float
    e_ab: float | None
    stderr: float
    n: int

    def to_json(self) -> dict:
        return {"theta": self.theta, "e_ab": self.e_ab, "stderr": self.stderr, "n": self.n}


def theta_sweep(
    model_factory: Callable[[float], CouplingModel],
    thetas: Sequence[float],
    *,
    n_trials: int | None = None,
    seed: int | None = None,
    context: SettingPair = SettingPair(0, 0),
) -> list[SweepPoint]:
    """Correlation curve E(theta) over an angle grid.

    ``model_factory(theta)`` must build the model whose relative angle at
    ``context`` is theta. With ``n_trials`` unset the exact expectation is
    used (stderr 0, n 0); otherwise each point is estimated from n_trials
    Monte-Carlo draws on the stream (seed, "sweep", point index), with E
    conditioned on nonzero pairs and n reporting the pairs used.
    """
    if len(thetas) == 0:
        raise AnalysisError("theta sweep needs a non-empty grid")
    if n_trials is not None and (not 1 <= n_trials <= MAX_ITEMS or seed is None):
        raise AnalysisError(f"Monte-Carlo sweeps need 1 <= n_trials <= {MAX_ITEMS} and a seed")
    points = []
    for idx, theta in enumerate(thetas):
        model = model_factory(float(theta))
        if n_trials is None:
            m = model.exact_expectation(context)
            points.append(SweepPoint(theta=float(theta), e_ab=m.e_ab, stderr=0.0, n=0))
            continue
        g = _rng.stream(seed, "sweep", idx)
        x = np.full(n_trials, context.x, dtype=np.int64)
        y = np.full(n_trials, context.y, dtype=np.int64)
        a, b = sample_batch(model, x, y, g)
        prod = a.astype(np.float64) * b.astype(np.float64)
        used = prod != 0.0
        k = int(used.sum())
        if k == 0:
            points.append(SweepPoint(theta=float(theta), e_ab=None, stderr=0.0, n=0))
            continue
        e = float(prod[used].mean())
        stderr = math.sqrt(max(1.0 - e * e, 0.0) / k)
        points.append(SweepPoint(theta=float(theta), e_ab=e, stderr=stderr, n=k))
    return points
