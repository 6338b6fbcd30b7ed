"""Statistical inference and coupling-feasibility analysis.

Five operations:

* ``report`` - every block that ``analyze`` reports for one post-selected
  table: its summary, S and |S|, the one- and two-sided local-bound tests,
  the no-signalling comparison and the warnings they raise.
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
  small to warrant an external solver. The four context distributions are
  one (2, 2, 2, 2) array indexed [x, y, a, b] with outcomes (+1, -1), as
  ``pairwise_tables`` returns them.
* ``theta_sweep`` - exact or Monte-Carlo correlation curves over a grid of
  relative analyzer angles.

All operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng as _rng
from .core import (
    CHSH_SIGNS,
    CONTEXTS,
    MAX_ITEMS,
    ContextTable,
    CorrelationSummary,
    chsh,
    estimate,
    ordered_map,
)
from .couplings import CouplingModel, _kept, deterministic_strategies, sample_batch
from .errors import AnalysisError

__all__ = [
    "HypothesisReport",
    "MarginalComparison",
    "NoSignallingReport",
    "FeasibilityCertificate",
    "FeasibilityResult",
    "Report",
    "report",
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
    p_uniform = _chi2_tail_3(chi2_stat)
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
    p = _hoeffding_tail(s_hat, n)
    return HypothesisReport(s_hat=s_hat, n=int(n), p_value=p, method="hoeffding")


def _hoeffding_tail(s_hat: float, n: float) -> float:
    """The LHV bound on P(S_hat >= s_hat) over n trials; 1 unless s_hat exceeds 2."""
    return math.exp(-n * (s_hat - 2.0) ** 2 / 32.0) if s_hat > 2.0 else 1.0


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


def _compare(table: ContextTable, party: str, local: int) -> MarginalComparison:
    # Indexed [local setting, remote setting, local outcome, remote outcome]; totals include zeros.
    counts = table.counts if party == "alice" else table.counts.transpose(1, 0, 3, 2)
    k1, k2 = counts[local, :, 0].sum(axis=1).tolist()
    n1, n2 = counts[local].sum(axis=(1, 2)).tolist()
    p1, p2 = (k1 / n1 if n1 else None), (k2 / n2 if n2 else None)
    delta = se = z = p = None
    if n1 and n2:
        pooled = (k1 + k2) / (n1 + n2)
        se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
        delta = p1 - p2
        if se == 0.0:
            # Degenerate pooled proportion: both samples are constant and equal.
            z, p = 0.0, 1.0
        else:
            z = delta / se
            p = _normal_tail(z)
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
    raw_block, final_block = (
        tuple(_compare(table, party, local) for party in ("alice", "bob") for local in (0, 1))
        for table in (raw, final)
    )
    return NoSignallingReport(raw_block, final_block, _block_p(raw_block), _block_p(final_block))


@dataclass(frozen=True)
class Report:
    """The blocks ``analyze`` reports for one post-selected table; a refused test is ``None``."""

    summary: CorrelationSummary
    chsh: float | None
    chsh_abs: float | None
    hypothesis: HypothesisReport | None
    hypothesis_abs: HypothesisReport | None
    no_signalling: NoSignallingReport
    warnings: tuple[str, ...]


def report(final: ContextTable, raw: ContextTable | None = None) -> Report:
    """Estimate and test the post-selected table ``final``; compare it with ``raw``, or itself.

    Relabelling Alice's outcomes negates every integer count sum, and so S_hat
    exactly: the two-sided test is the one-sided tail at -S_hat when S < 0,
    written ``0.0 - s_hat`` to give +0.0 at zero, as the relabelled sum does.
    """
    summary = estimate(final)
    s = chsh(summary)
    warnings = []
    if s is None:
        starved = [k.key() for k in CONTEXTS if summary[k].e_ab is None]
        warnings.append(f"starved contexts (undefined expectations): {starved}")
    hypothesis = hypothesis_abs = None
    try:
        hypothesis = lhv_pvalue(summary)
    except AnalysisError as e:
        warnings.append(f"hypothesis test skipped: {e}")
    else:
        s_hat = 0.0 - hypothesis.s_hat if (s is not None and s < 0) else hypothesis.s_hat
        # The orientation is chosen after seeing the data: union bound over the
        # two outcome relabellings keeps the tail bound valid.
        p = min(1.0, 2.0 * _hoeffding_tail(s_hat, hypothesis.n))
        hypothesis_abs = HypothesisReport(s_hat, hypothesis.n, p, method="hoeffding-two-sided")
    ns = nosignalling_test(final if raw is None else raw, final)
    s_abs = None if s is None else abs(s)
    return Report(summary, s, s_abs, hypothesis, hypothesis_abs, ns, tuple(warnings))


# --- normal and chi-square tails -------------------------------------------
# Cephes' ndtr, erf and erfc, ported with their coefficients, Horner order and
# branch points, so p-values keep every bit. A table led by 1.0 is a Cephes
# p1evl denominator (1.0 * x + c is exactly x + c).

_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): exp(-x * x) underflows beyond it
_SQRT1_2 = math.sqrt(0.5)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _erf(x: float) -> float:  # 0 <= x < 1
    return x * _polevl(x * x, _ERF_T) / _polevl(x * x, _ERF_U)


def _erfc(x: float) -> float:  # x >= 0
    if x < 1.0:
        return 1.0 - _erf(x)
    if x * x > _MAXLOG:
        return 0.0
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    return math.exp(-x * x) * _polevl(x, p) / _polevl(x, q)


def _normal_tail(z: float) -> float:
    """Two-sided standard normal tail P(|Z| >= |z|)."""
    x = abs(z) * _SQRT1_2
    return 2.0 * (0.5 - 0.5 * _erf(x) if x < _SQRT1_2 else 0.5 * _erfc(x))


def _chi2_tail_3(x: float) -> float:
    """Chi-square tail P(X >= x) at 3 degrees of freedom, in closed form."""
    return _erfc(math.sqrt(x / 2.0)) + math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)


# --- LP feasibility -------------------------------------------------------

#: Fixed strategy order: (a0, a1, b0, b1) nested with +1 before -1.
STRATEGY_ORDER: tuple[tuple[int, int, int, int], ...] = tuple(
    s for s, _ in deterministic_strategies()
)

_STRATEGIES = np.array(STRATEGY_ORDER, dtype=np.float64)
_OUTCOME = np.array([1.0, -1.0])
# _gives[v, o, k]: strategy k gives variable v (a0, a1, b0, b1) outcome o.
_gives = _STRATEGIES.T[:, None, :] == _OUTCOME[:, None]

#: Constraint matrix: rows are (x, y, a, b) cells, contexts in CONTEXTS order
#: and outcomes (+1, -1); column k is 1 on the four cells strategy k produces.
_STRATEGY_MATRIX = (
    (_gives[:2, None, :, None] & _gives[None, 2:, None]).reshape(16, 16).astype(np.float64)
)

#: [A | I]: the strategy columns, then one artificial column per cell, as the
#: phase-1 simplex numbers them.
_COLUMNS = np.hstack([_STRATEGY_MATRIX, np.eye(16)])

#: The 8 CHSH-type sign placements over CONTEXTS, those with an odd number of
#: minus signs, in binary-count order (bit i of the count is a minus sign on
#: context i). Strategy k read backwards is exactly placement k of that count.
_CHSH_SIGNS = _STRATEGIES[:, ::-1][_STRATEGIES.prod(axis=1) < 0]

#: The functional of each sign placement, indexed [placement, x, y, a, b].
_CHSH_FUNCTIONALS = _CHSH_SIGNS.reshape(8, 2, 2, 1, 1) * np.outer(_OUTCOME, _OUTCOME)


def _checked_tables(p: np.ndarray) -> np.ndarray:
    """``p`` as a float array of four context tables, each a law; entries in [-1e-12, 0) read as 0."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (2, 2, 2, 2):
        raise AnalysisError(f"tables must have shape (2, 2, 2, 2), got {p.shape}")
    for s in CONTEXTS:
        t = p[s.x, s.y]
        if not np.isfinite(t).all() or (t < -1e-12).any():
            raise AnalysisError(f"context {s.key()}: table entries must be probabilities")
        if abs(float(t.sum()) - 1.0) > 1e-9:
            raise AnalysisError(f"context {s.key()}: table must sum to 1, got {float(t.sum())!r}")
    return np.where(p < 0.0, 0.0, p)


def _phase1_simplex(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize the artificial-variable sum for A q = b, q >= 0 (b >= 0).

    Bland's rule throughout (no cycling). Returns the optimal objective and
    the final basis (column indices into [A | I]).
    """
    n_rows, n_cols = a.shape
    tableau = np.hstack([a, np.eye(n_rows), b.reshape(-1, 1)])
    basis = np.arange(n_cols, n_cols + n_rows)
    cost = np.concatenate([np.zeros(n_cols), np.ones(n_rows)])
    for _ in range(10_000):
        # The cost minus each artificial basic row, subtracted in row order.
        reduced = np.subtract.reduce(np.vstack([cost, tableau[basis >= n_cols, :-1]]))
        candidates = np.flatnonzero(reduced < -1e-11)
        if candidates.size == 0:
            break
        entering = candidates[0]
        rows = np.flatnonzero(tableau[:, entering] > 1e-11)
        if rows.size == 0:
            raise AssertionError("phase-1 objective is bounded; no pivot row found")
        ratios = tableau[rows, -1] / tableau[rows, entering]
        # The least ratio, ties to the lower basic column, then to the lower row.
        row = rows[np.lexsort((rows, basis[rows], ratios))[0]]
        pivot = tableau[row, entering]
        tableau[row] /= pivot
        others = np.flatnonzero(tableau[:, entering])
        others = others[others != row]
        tableau[others] -= tableau[others, entering, None] * tableau[row]
        basis[row] = entering
    else:
        raise AssertionError("phase-1 simplex did not terminate")
    # A Python sum over numpy scalars, in row order.
    objective = float(sum(tableau[basis >= n_cols, -1]))
    return objective, basis


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
            "certificate": self.certificate,
        }


def chsh_combinations(p: np.ndarray) -> list[float]:
    """The 8 CHSH-type sign combinations of the pairwise expectations of tables ``p[x, y, a, b]``."""
    e = (_OUTCOME @ np.asarray(p, dtype=np.float64) @ _OUTCOME).ravel().tolist()
    # Python's left-to-right sum, whose floats feasibility.json prints.
    return [sum(sign * value for sign, value in zip(signs, e)) for signs in _CHSH_SIGNS.tolist()]


def coupling_feasibility(p: np.ndarray) -> FeasibilityResult:
    """Decide whether one joint strategy distribution reproduces all four tables ``p[x, y, a, b]``.

    Searches for weights q >= 0 over the 16 deterministic assignments
    (a0, a1, b0, b1) whose induced pairwise distributions equal the inputs.
    Feasible: returns the witness with its worst margin error (the witness is
    re-solved from the original constraint columns, so the error is at
    machine precision). Infeasible: returns a separating functional - the
    most violated CHSH-type combination when one is violated, otherwise the
    phase-1 dual vector (which also separates marginal inconsistencies that
    no CHSH combination can see).
    """
    vec = _checked_tables(p).ravel()
    objective, basis = _phase1_simplex(_STRATEGY_MATRIX, vec)
    if objective <= LP_TOL:
        weights = np.zeros(_COLUMNS.shape[1])
        weights[basis] = np.linalg.solve(_COLUMNS[:, basis], vec)
        q = np.where(np.abs(weights[:16]) < 1e-12, 0.0, weights[:16])
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

    combos = chsh_combinations(p)
    max_violation = max(abs(c) for c in combos)
    best = int(np.argmax(combos))
    if combos[best] > 2.0 + LP_TOL:
        coeff, kind = _CHSH_FUNCTIONALS[best].copy(), "chsh"
    else:
        # Infeasibility without a CHSH violation (inconsistent marginals):
        # use the phase-1 dual vector, re-derived from the original columns.
        # The phase-1 cost of each basic column: 1 for an artificial one.
        cost = (basis >= 16).astype(np.float64)
        y = np.linalg.solve(_COLUMNS[:, basis].T, cost)
        coeff, kind = (y / np.abs(y).max()).reshape(2, 2, 2, 2), "dual"
    # The functional on the input, and its largest value on a strategy.
    value, bound = float(coeff.ravel() @ vec), float((coeff.ravel() @ _STRATEGY_MATRIX).max())
    certificate = FeasibilityCertificate(
        coefficients=coeff, value=value, bound=bound, slack=value - bound, kind=kind
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


def pairwise_tables(model: CouplingModel) -> np.ndarray:
    """A model's exact law given both outcomes nonzero, indexed [x, y, a, b].

    Outcomes are in the order (+1, -1), the input of ``coupling_feasibility``.
    Starved contexts raise.
    """
    tables, kept = _kept(model.law())
    for s in CONTEXTS:
        if kept[s.x, s.y] <= 0.0:
            raise AnalysisError(f"context {s.key()} starves; no conditional table exists")
    return tables


# --- angle sweeps ----------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One sweep row: angle, estimated or exact E, its standard error, pairs used."""

    theta: float
    e_ab: float | None
    stderr: float
    n: int


def theta_sweep(
    model_factory: Callable[[float], CouplingModel],
    thetas: Sequence[float],
    *,
    n_trials: int | None = None,
    seed: int | None = None,
) -> list[SweepPoint]:
    """Correlation curve E(theta) over an angle grid, at the (0, 0) context.

    ``model_factory(theta)`` must build the model whose relative angle at
    the (0, 0) context is theta. With ``n_trials`` unset E is read from the
    model's exact law (stderr 0, n 0); otherwise each point is estimated from n_trials
    Monte-Carlo draws on the stream (seed, "sweep", point index), with E
    conditioned on nonzero pairs and n reporting the pairs used. The points
    run through ``ordered_map``, so ``model_factory`` may be called from
    worker threads; the first point whose call raises, in grid order, raises.
    """
    if len(thetas) == 0:
        raise AnalysisError("theta sweep needs a non-empty grid")
    if n_trials is not None and (not 1 <= n_trials <= MAX_ITEMS or seed is None):
        raise AnalysisError(f"Monte-Carlo sweeps need 1 <= n_trials <= {MAX_ITEMS} and a seed")

    def point(item: tuple[int, float]) -> SweepPoint:
        idx, theta = item[0], float(item[1])
        model = model_factory(theta)
        if n_trials is None:
            block, kept = _kept(model.law())
            e = float(_OUTCOME @ block[0, 0] @ _OUTCOME) if kept[0, 0] > 0.0 else None
            return SweepPoint(theta=theta, e_ab=e, stderr=0.0, n=0)
        g = _rng.stream(seed, "sweep", idx)
        # int8 settings pass ``codes`` without a round trip.
        x = y = np.zeros(n_trials, dtype=np.int8)
        a, b = sample_batch(model, x, y, g)
        # Outcomes are int8 in (-1, 0, 1), so the product cannot wrap, and a
        # float64 mean of +-1 values is exact in any summation order.
        prod = a * b
        used = prod != 0
        k = int(used.sum())
        if k == 0:
            return SweepPoint(theta=theta, e_ab=None, stderr=0.0, n=0)
        e = float(prod[used].mean())
        stderr = math.sqrt(max(1.0 - e * e, 0.0) / k)
        return SweepPoint(theta=theta, e_ab=e, stderr=stderr, n=k)

    # Each point draws from its own stream, so the points run on the workers.
    return list(ordered_map(point, list(enumerate(thetas))))
