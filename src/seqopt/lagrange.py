"""Reduction of loss-constrained problems to weighted unconstrained ones.

Scaling each constraint group's losses by a multiplier and solving the
weighted problem yields a rule that is optimal among all procedures whose
group losses do not exceed its own achieved values: the weighted optimality
chain converts a loss advantage into a sample-size advantage.

`match_constraints` finds the procedure of least expected sample size whose
group losses are at most the targets t. The dual function
g(lam) = min over rules of [c n_psi + sum_g lam_g (W_g - t_g)] is concave and
piecewise linear, and a weighted solve at lam yields an exact supporting
plane of it: the evaluated (n_psi, W) of its optimal (rule, decision) pair.
The search is column generation over these pairs (Dantzig and Wolfe, Oper.
Res. 8, 1960; Kelley, J. SIAM 8, 1960). A master LP over the pairs found so
far, min sum_i mu_i c n_i s.t. sum_i mu_i W_i <= t, sum_i mu_i = 1, gives the
multipliers as its duals; pricing is one weighted solve there, the first at
lam = 1. The loop stops once the master value minus the last pricing's
Lagrangian bound, the gap, is within 1e-12 max(1, value): nothing meeting the
targets is cheaper by more. An exact pricing never gives a negative gap, so
a gap below -1e-12 max(1, value) certifies nothing: that solve was not the
Lagrangian's minimiser. While no mixture of the pairs meets them, lam
grows fourfold per round along the duals of a phase-I LP (least total
excess); after 80 rounds the targets count as below the achievable frontier.

Both LPs are solved by `_simplex`, a dense tableau simplex in numpy with
Bland's rule. The certificate does not depend on its accuracy. By weak
duality, c n + lam (W - t) of an exact weighted solve at lam is a lower bound
on the cost of every procedure meeting the targets, for any lam >= 0,
whatever LP produced lam; and every "converged" check runs on the mixture as
re-evaluated, not on the LP's value of it. A poor LP can delay convergence
but cannot fake it.

Contract. Targets are upper bounds with complementary slackness. The result
is the exact mu-mixture of the at most G+1 pairs of the last master (G
groups): one StoppingRule with the mixed stopping flows, p(s) =
sum_i mu_i a_i(s) p_i(s) / sum_i mu_i a_i(s) where a_i(s) counts the
histories of s that rule i lets arrive, and one DecisionStrategy whose
decision probabilities are the mixed stopped flow per decision; `achieved`
is its evaluation. converged=True only when the gap is certified, every
achieved loss is at most target + residual_tol, and every group with
lam_g > 0 is within residual_tol of its target. A target looser than every
rule needs gets lam_g = 0 and a positive slack: multipliers below the LP
tolerance are reported as 0. Among the master's optimal mixtures the result
is one of least total group loss, found by a tie-break phase of the master's
own simplex over its optimal face; at the sample-size floor every column can
cost the same, and a basis of least cost may then mix columns that another
column dominates.

Each probe evaluates its own pair, and a mixture is evaluated once more;
`MultiplierSearchResult.report` holds the returned pair's evaluation.
`MultiplierSearchResult.stats` reports probes, LP solves (lp_rounds), the
final gap, and the seconds spent solving, extracting, evaluating and in the
LPs (lp_s); each probe is logged at DEBUG level.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from collections.abc import Sequence

import numpy as np

from .backward_induction import solve_limit, solve_truncated
from .bayes_decision import HistoryTable, decision_dtype
from .errors import InfeasibleTargetsError, SeqOptError
from .histories import StateSpace, push_forward
from .model import Problem, with_loss
from .risk_evaluation import RiskReport, evaluate
from .stopping_policy import DecisionStrategy, StoppingRule, extract_rule, truncate_rule

log = logging.getLogger(__name__)

_GROWTH = 4.0  # phase-I multiplier growth per round
_GROWTH_STEPS = 80  # phase-I rounds before the targets count as infeasible
_MAX_ROUNDS = 500  # pricing rounds of the master before giving up on the gap
_GAP_TOL = 1e-12  # certified gap, relative to max(1, master value)
_LP_EPS = 1e-12  # the LP's pivot, reduced-cost and phase-I feasibility tolerance


def _weighted_loss(p: Problem, lam: Sequence[float]) -> np.ndarray:
    """Loss matrix scaled per constraint group; zero outside all groups."""
    w = np.zeros_like(p.loss.w)
    for gi, group in enumerate(p.constraints.groups):
        for t in group:
            w[t, :] = lam[gi] * p.loss.w[t, :]
    return w


def weighted_problem(p: Problem, lam: Sequence[float]) -> Problem:
    """Problem whose loss is scaled per constraint group, zero outside them.

    The identity multiplier vector (all ones, groups covering every parameter)
    returns an equivalent problem; doubling a group's multiplier doubles its
    contribution to any loss functional. The constraints stay p's: lam is in
    the loss alone, so evaluate's Lagrangian of the weighted problem counts
    it once, and under multipliers of 1 equals lagrangian(p, lam, ...).
    """
    if p.constraints is None:
        raise SeqOptError("weighted_problem needs constraint groups")
    if len(lam) != len(p.constraints.groups):
        raise SeqOptError("one multiplier per constraint group required")
    multipliers = tuple(float(l) for l in lam)
    if not all(math.isfinite(l) for l in multipliers):
        raise SeqOptError(f"multipliers must be finite, got {list(multipliers)}")
    if any(l < 0 for l in multipliers):
        raise SeqOptError("multipliers must be >= 0")
    return with_loss(p, _weighted_loss(p, multipliers))


def lagrangian(
    p: Problem,
    lam: Sequence[float],
    rule: StoppingRule,
    decision: DecisionStrategy | None = None,
) -> float:
    """n_psi + sum_i lambda_i * w_group_i for a given rule and strategy."""
    value = evaluate(p, rule, decision, multipliers=lam).lagrangian
    if value is None:
        raise SeqOptError("lagrangian needs constraint groups")
    return value


@dataclass(frozen=True)
class SearchConfig:
    horizon: int | None = None  # fixed solve horizon; None = limit mode
    limit_tol: float = 1e-11
    n_cap: int = 256
    residual_tol: float = 1e-6
    engine: str = "auto"


@dataclass(eq=False)
class MultiplierSearchResult:
    lam: np.ndarray
    targets: np.ndarray
    achieved: np.ndarray
    slack: np.ndarray
    rule: StoppingRule
    decision: DecisionStrategy
    n_psi: float
    converged: bool
    horizon: int
    frontier_trace: list[dict] = field(default_factory=list)
    weighted: Problem | None = None
    # evaluate(p, rule, decision) of the match problem, computed by the search
    report: RiskReport | None = None
    # probes, lp_rounds (LP solves), gap (master value minus the last
    # pricing's bound), and seconds spent in solve, extract, evaluate and lp
    stats: dict = field(default_factory=dict)


@dataclass(eq=False)
class _Pack:
    table: HistoryTable  # the probe's weighted solve table
    rule: StoppingRule
    decision: DecisionStrategy
    report: RiskReport  # the probe's pair under p; common_horizon's extension keeps it
    horizon: int


class _Search:
    """One match_constraints call: its problem, config, probe log and stats."""

    def __init__(self, p: Problem, cfg: SearchConfig):
        self.p = p
        self.cfg = cfg
        self.trace: list[dict] = []
        self.stats: dict = {"probes": 0, "lp_rounds": 0, "gap": math.inf,
                            "solve_s": 0.0, "extract_s": 0.0, "evaluate_s": 0.0, "lp_s": 0.0}

    def outcome(self, rule: StoppingRule, decision: DecisionStrategy) -> RiskReport:
        """The pair's report, timed into evaluate_s."""
        t0 = time.perf_counter()
        report = evaluate(self.p, rule, decision)
        self.stats["evaluate_s"] += time.perf_counter() - t0
        return report

    def solve_at(self, lam: np.ndarray) -> _Pack:
        """Probe: solve the weighted problem, extract its rule, record the outcome."""
        cfg = self.cfg
        t0 = time.perf_counter()
        wp = weighted_problem(self.p, lam)
        if cfg.horizon is not None:
            tables = solve_truncated(wp, cfg.horizon, engine=cfg.engine)
        else:
            tables = solve_limit(wp, tol=cfg.limit_tol, n_cap=cfg.n_cap, engine=cfg.engine)
        t1 = time.perf_counter()
        rule = extract_rule(tables, tie_policy="stop")
        decision = DecisionStrategy.bayes(tables.table, tables.horizon)
        self.stats["solve_s"] += t1 - t0
        self.stats["extract_s"] += time.perf_counter() - t1
        report = self.outcome(rule, decision)
        w_groups, n_psi = report.w_groups, report.n_psi
        self.stats["probes"] += 1
        self.trace.append({"lam": lam.tolist(), "achieved": w_groups.tolist(), "n_psi": n_psi})
        log.debug(
            "probe %d lam=%s horizon=%d achieved=%s n_psi=%r",
            self.stats["probes"], lam, tables.horizon, w_groups, n_psi,
        )
        return _Pack(tables.table, rule, decision, report, tables.horizon)

    def common_horizon(self, packs: list[_Pack]) -> list[_Pack]:
        """Extend every pack's rule (truncated) and decisions to the largest horizon.

        The extension stops where the rule did, so the losses stay the pack's;
        the decisions come from the pack's own solve table.
        """
        top = max(pk.horizon for pk in packs)
        t0 = time.perf_counter()
        out = [
            pk if pk.horizon == top else replace(
                pk, rule=truncate_rule(pk.rule, top, pk.table.space),
                decision=DecisionStrategy.bayes(pk.table, top), horizon=top,
            )
            for pk in packs
        ]
        self.stats["extract_s"] += time.perf_counter() - t0
        return out

    def _lp(self, *lp):
        """One `_simplex(*lp)` solve, counted in lp_rounds and timed into lp_s."""
        t0 = time.perf_counter()
        res = _simplex(*lp)
        self.stats["lp_rounds"] += 1
        self.stats["lp_s"] += time.perf_counter() - t0
        return res

    def master(self, cols: list[_Pack], targets: np.ndarray):
        """Cheapest mixture of the columns meeting the targets: (value, mu, lam).

        None when no mixture meets them. Among the cheapest mixtures, mu is one
        of least total group loss, from `_simplex`'s tie-break phase.
        """
        w = np.array([pk.report.w_groups for pk in cols]).T
        cost = self.p.cost.c * np.array([pk.report.n_psi for pk in cols])
        if (res := self._lp(cost, w, targets, len(cols), w.sum(axis=0))) is None:
            return None
        value, mu, marginals = res
        return value, mu, np.maximum(-marginals, 0.0)

    def excess_direction(self, cols: list[_Pack], targets: np.ndarray) -> np.ndarray:
        """Duals of the phase-I LP, scaled to max 1: the groups whose excess to cut.

        The phase-I LP finds the mixture of least total excess sum_g s_g
        subject to sum_i mu_i W_i - s <= t and sum_i mu_i = 1.
        """
        w = np.array([pk.report.w_groups for pk in cols]).T
        g, i = w.shape
        _, _, marginals = self._lp(
            np.r_[np.zeros(i), np.ones(g)], np.hstack([w, -np.eye(g)]), targets, i
        )
        y = np.maximum(-marginals, 0.0)
        return y / y.max()


def _simplex(cost: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, n_mix: int,
             secondary: np.ndarray | None = None):
    """min cost @ x s.t. a_ub x <= b_ub, sum(x[:n_mix]) == 1 and x >= 0, for b_ub >= 0.

    A dense tableau simplex under Bland's rule (Bland, Math. Oper. Res. 2,
    1977), which cannot cycle: the lowest improving column enters and, among
    tied rows, the lowest basic column leaves. The slacks start as the basis
    of the inequality rows, one artificial variable as that of the equality
    row. Returns None when infeasible, else (value, x, marginals): the
    inequality duals d value / d b_ub, <= 0 as in scipy's `linprog`. They and
    x are solved afresh at the phase-II basis, so pivoting error does not
    build up in them; a singular one raises SeqOptError.

    A secondary cost adds a third phase that minimises it over the optimal
    face: only columns of zero phase-II reduced cost enter, so value and
    duals stay. Its x is taken at a regular basis where x >= 0, every row and
    cost @ x <= value hold (all to within _LP_EPS) and the secondary cost is
    lower by more than _LP_EPS; else x stays phase II's, bit for bit.
    """
    g, n = a_ub.shape
    art = n + g  # the artificial variable's column
    a = np.zeros((g + 1, art + 1))
    a[:g, :n], a[:g, n:art], a[g, :n_mix], a[g, art] = a_ub, np.eye(g), 1.0, 1.0
    rhs = np.r_[b_ub, 1.0]
    tab = np.column_stack([a, rhs])  # B^-1 [A | b]; the starting basis B is I
    basis = np.arange(n, art + 1)

    def pivot(r: int, j: int) -> None:
        tab[r] /= tab[r, j]
        col = tab[:, j].copy()
        col[r] = 0.0
        tab[:] -= np.outer(col, tab[r])
        basis[r] = j

    def solution() -> np.ndarray:
        x = np.zeros(art + 1)
        x[basis] = np.linalg.solve(a[:, basis], rhs)
        return x[:n]

    pad = np.zeros(g + 1)
    costs = [np.eye(art + 1)[art]] + [np.r_[c, pad] for c in (cost, secondary) if c is not None]
    for phase, c in enumerate(costs):
        free = art + 1 if phase == 0 else art
        while (entering := np.flatnonzero(c[:free] - c[basis] @ tab[:, :free] < -_LP_EPS)).size:
            if phase == 2 and not (entering := entering[face[entering]]).size:
                break  # every improving column is off the optimal face
            j = entering[0]
            rows = np.flatnonzero(tab[:, j] > _LP_EPS)
            if not rows.size:
                raise SeqOptError("LP is unbounded")
            ratio = tab[rows, -1] / tab[rows, j]
            ties = rows[ratio <= ratio.min() + _LP_EPS]
            pivot(ties[np.argmin(basis[ties])], j)
        if phase == 0:
            if c[basis] @ tab[:, -1] > _LP_EPS:
                return None
            for r in np.flatnonzero(basis == art):  # basic at level 0: pivot it out
                tab[r, -1] = 0.0
                pivot(r, int(np.argmax(np.abs(tab[r, :art]))))
        elif phase == 1:
            try:
                x = solution()
                duals = np.linalg.solve(a[:, basis].T, c[basis])
            except np.linalg.LinAlgError as err:
                msg = f"LP ended at a singular basis (columns {basis.tolist()})"
                raise SeqOptError(msg) from err
            value, optimal = float(cost @ x), basis.copy()
            face = c[:art] - c[basis] @ tab[:, :art] <= _LP_EPS  # zero reduced cost
    if secondary is not None and not np.array_equal(basis, optimal):
        try:
            tied = solution()
        except np.linalg.LinAlgError:
            tied = x
        if (tied.min() >= -_LP_EPS and np.all(a_ub @ tied <= b_ub + _LP_EPS)
                and cost @ tied <= value + _LP_EPS
                and secondary @ tied < secondary @ x - _LP_EPS):
            x = tied
    return value, x, duals[:g]


def _mixture(
    space: StateSpace, packs: list[_Pack], mu: np.ndarray, n_decisions: int
) -> tuple[StoppingRule, DecisionStrategy]:
    """The mu-mixture of pairs over a common horizon as one (rule, decision) pair.

    a_i(s) counts the histories of state s that pair i's rule lets through
    (push_forward without weights); the model's density of s is common to
    every pair and cancels. Where no pair arrives (or none stops) the plain
    mu-average stands in, clipped at 1 (mu may sum to 1 + 2^-52) so the rule
    file reads back; it is never used. n_decisions is the match problem's:
    the shared space may have been built by a problem with another loss.
    """
    horizon = packs[0].horizon
    arrive = np.ones((space.n_states(1), len(packs)))
    probs, decisions, weights = [], [], []
    dtype = decision_dtype(n_decisions)
    for n in range(1, horizon + 1):
        p_n = np.column_stack([pk.rule.at(n) for pk in packs])  # (S, I)
        decided = np.column_stack([pk.decision.at(n) for pk in packs])
        onehot = decided[:, :, None] == np.arange(n_decisions)  # (S, I, D)
        flow = arrive * mu
        stopped = flow * p_n
        flow_s, stopped_s = flow.sum(axis=1), stopped.sum(axis=1)
        probs.append(np.divide(stopped_s, flow_s, out=np.minimum(p_n @ mu, 1.0), where=flow_s > 0))
        q = np.divide((stopped[:, :, None] * onehot).sum(axis=1), stopped_s[:, None],
                      out=np.minimum(mu @ onehot, 1.0), where=stopped_s[:, None] > 0)
        weights.append(q)
        decisions.append(q.argmax(axis=1).astype(dtype))
        if n < horizon:
            arrive = push_forward(space, n, arrive * (1.0 - p_n), weighted=False)
            arrive /= arrive.max(initial=1.0)  # one scale per stage: the ratios keep
    rule = StoppingRule(packs[0].rule.engine, probs, truncated=True)
    return rule, DecisionStrategy(decisions, weights)


def match_constraints(
    p: Problem, targets: Sequence[float], cfg: SearchConfig = SearchConfig()
) -> MultiplierSearchResult:
    """Least expected sample size subject to group losses at most the targets.

    Column generation over (rule, decision) pairs; see the module docstring
    for the contract. Raises InfeasibleTargetsError for targets < 0 or below
    the achievable frontier, SeqOptError for non-finite targets. A result with
    converged=False is the best mixture found; frontier_trace lists every
    probe and stats["gap"] its uncertified gap.
    """
    if p.constraints is None:
        raise SeqOptError("match_constraints needs constraint groups")
    k = len(p.constraints.groups)
    if len(targets) != k:
        raise SeqOptError(f"expected {k} targets, got {len(targets)}")
    t = np.asarray(targets, dtype=float)
    if not np.all(np.isfinite(t)):
        raise SeqOptError(f"targets must be finite, got {t.tolist()}")
    if np.any(t < 0):
        raise InfeasibleTargetsError("targets must be >= 0 (nonnegative losses cannot go below)")
    # Every probe's weighted problem shares p's observation model, so all of
    # them read one state space, kept alive by the columns' tables.
    search = _Search(p, cfg)
    c = p.cost.c

    def bound(pk: _Pack, lam: np.ndarray) -> float:
        return float(c * pk.report.n_psi + lam @ (pk.report.w_groups - t))

    def add(cols: list[_Pack], pk: _Pack) -> bool:
        """Append pk unless a column with its exact (n_psi, W) is there already."""
        new = pk.report
        if any(new.n_psi == q.report.n_psi and np.array_equal(new.w_groups, q.report.w_groups)
               for q in cols):
            return False
        cols.append(pk)
        return True

    lam = np.ones(k)
    pack = search.solve_at(lam)
    cols = [pack]
    growth = 0
    while (master := search.master(cols, t)) is None:
        growth += 1
        if growth > _GROWTH_STEPS:
            raise InfeasibleTargetsError(
                f"targets {t.tolist()} below the achievable frontier",
                frontier=search.trace[-3:],
            )
        lam = _GROWTH**growth * search.excess_direction(cols, t)
        pack = search.solve_at(lam)
        add(cols, pack)
    for rounds in range(_MAX_ROUNDS + 1):
        value, mu, duals = master
        gap = value - bound(pack, lam)
        gap_tol = _GAP_TOL * max(1.0, abs(value))
        if gap <= gap_tol or rounds == _MAX_ROUNDS:
            break
        lam, pack = duals, search.solve_at(duals)
        if not add(cols, pack):  # the master cannot move: report this gap
            gap = value - bound(pack, lam)
            break
        master = search.master(cols, t)
    search.stats["gap"] = gap
    # Roundoff duals are reported as 0 (the target is slack); the weighted
    # problem keeps the raw ones, whose ratios still order the decisions.
    reported = np.where(lam < _LP_EPS, 0.0, lam)
    keep = mu > 1e-12 * mu.max()
    active = search.common_horizon([pk for pk, on in zip(cols, keep) if on])
    pk = active[0]
    if len(active) == 1:
        rule, decision, report = pk.rule, pk.decision, pk.report
    else:
        rule, decision = _mixture(pk.table.space, active, mu[keep] / mu[keep].sum(), p.n_decisions)
        report = search.outcome(rule, decision)
    achieved, n_psi = report.w_groups, report.n_psi
    tol = cfg.residual_tol
    converged = bool(
        abs(gap) <= gap_tol
        and np.all(achieved <= t + tol)
        and np.all(np.abs(achieved - t)[reported > 0] <= tol)
    )
    return MultiplierSearchResult(
        lam=reported,
        targets=t.copy(),
        achieved=achieved,
        slack=t - achieved,
        rule=rule,
        decision=decision,
        n_psi=n_psi,
        converged=converged,
        horizon=active[0].horizon,
        frontier_trace=search.trace,
        weighted=weighted_problem(p, lam),
        report=report,
        stats=dict(search.stats),
    )
