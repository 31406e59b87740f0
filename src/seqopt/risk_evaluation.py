"""Exact evaluation of a stopping rule plus terminal decision strategy.

The evaluator runs one forward pass over the state space, carrying the
per-parameter measure of histories that are still unstopped. At each stage the
stopped slice contributes to the sample-size and terminal-loss functionals:

    n_theta[t]  = sum_n n * P_t(stop at n)          (inf if mass leaks past the cap)
    n_psi       = pi2-weighted average of n_theta
    w_total     = sum_n sum_states stop * loss(best decision) weighted by pi1
    r           = c * n_psi + w_total

`brute_force_optimum` is the independent check on the backward induction: it
evaluates every deterministic truncated rule on the raw history tree, one per
distinct stopping frontier, directly from the definition of the risk, sharing
no code with the recursion it checks.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, product
from typing import IO

import numpy as np

from .bayes_decision import HistoryTable, density_layer
from .errors import BudgetExceededError, SeqOptError
from .histories import StateSpace, push_forward
from .model import Problem
from .stopping_policy import StoppingRule
from .tolerances import PRUNE_EPS, STOP_MASS_ATOL


@dataclass(eq=False)
class DecisionStrategy:
    """Terminal decision index per stage and state."""

    decisions: list[np.ndarray]

    @classmethod
    def bayes(cls, table: HistoryTable, horizon: int) -> "DecisionStrategy":
        return cls([table.stage(n).decision for n in range(1, horizon + 1)])

    @property
    def horizon(self) -> int:
        return len(self.decisions)

    def at(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.horizon:
            raise IndexError(f"strategy covers stages 1..{self.horizon}, asked for {n}")
        return self.decisions[n - 1]

    def with_decision(self, n: int, state: int, decision: int) -> "DecisionStrategy":
        arrs = [a.copy() for a in self.decisions]
        arrs[n - 1][state] = decision
        return DecisionStrategy(arrs)


@dataclass(eq=False)
class RiskReport:
    """Every functional of one (rule, decision strategy) pair.

    Probabilities are absolute (not conditional on stopping); for a truncated
    rule each parameter's stopping mass is 1 and the rows of
    `decision_probs` sum to 1.
    """

    n_psi: float
    n_theta: np.ndarray
    w_total: float
    w_groups: np.ndarray | None
    r: float
    lagrangian: float | None
    stop_dist_theta: np.ndarray  # (horizon, m)
    stop_dist_pi1: np.ndarray
    stop_dist_pi2: np.ndarray
    decision_probs: np.ndarray  # (m, D)
    error_probs: tuple[float, float] | None
    mass_stopped_theta: np.ndarray
    mass_stopped_pi1: float
    mass_stopped_pi2: float
    horizon: int
    r_finite: bool
    param_labels: tuple[str, ...] = ()
    decision_labels: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "n_psi": self.n_psi,
            "n_theta": {lab: v for lab, v in zip(self.param_labels, self.n_theta.tolist())},
            "w_total": self.w_total,
            "w_groups": None if self.w_groups is None else self.w_groups.tolist(),
            "r": self.r,
            "r_finite": self.r_finite,
            "lagrangian": self.lagrangian,
            "horizon": self.horizon,
            "error_probs": None if self.error_probs is None else list(self.error_probs),
            "mass_stopped": {
                "pi1": self.mass_stopped_pi1,
                "pi2": self.mass_stopped_pi2,
                **{lab: v for lab, v in zip(self.param_labels, self.mass_stopped_theta.tolist())},
            },
            "decision_probs": {
                lab: {d: v for d, v in zip(self.decision_labels, row)}
                for lab, row in zip(self.param_labels, self.decision_probs.tolist())
            },
            "stop_dist_pi2": self.stop_dist_pi2.tolist(),
            "stop_dist_pi1": self.stop_dist_pi1.tolist(),
            "stop_dist_theta": self.stop_dist_theta.tolist(),
        }

    def to_json(self, fh: IO[str]) -> None:
        json.dump(self.to_dict(), fh, indent=2, allow_nan=True)
        fh.write("\n")

    def to_csv(self, fh: IO[str]) -> None:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "value"])
        writer.writerow(["n_psi", repr(self.n_psi)])
        for lab, v in zip(self.param_labels, self.n_theta):
            writer.writerow([f"n_theta[{lab}]", repr(float(v))])
        writer.writerow(["w_total", repr(self.w_total)])
        if self.w_groups is not None:
            for gi, v in enumerate(self.w_groups):
                writer.writerow([f"w_group[{gi}]", repr(float(v))])
        writer.writerow(["r", repr(self.r)])
        if self.lagrangian is not None:
            writer.writerow(["lagrangian", repr(self.lagrangian)])
        if self.error_probs is not None:
            writer.writerow(["alpha", repr(self.error_probs[0])])
            writer.writerow(["beta", repr(self.error_probs[1])])
        writer.writerow(["mass_stopped_pi1", repr(self.mass_stopped_pi1)])
        writer.writerow(["mass_stopped_pi2", repr(self.mass_stopped_pi2)])
        for lab, row in zip(self.param_labels, self.decision_probs):
            for dlab, v in zip(self.decision_labels, row):
                writer.writerow([f"decision_prob[{lab},{dlab}]", repr(float(v))])
        for n, v in enumerate(self.stop_dist_pi2, start=1):
            writer.writerow([f"stop_dist_pi2[{n}]", repr(float(v))])


def _hypothesis_indices(p: Problem) -> tuple[int, int]:
    if p.constraints is not None and len(p.constraints.groups) >= 2:
        g = p.constraints.groups
        if len(g[0]) == 1 and len(g[1]) == 1:
            return g[0][0], g[1][0]
    return 0, 1


def evaluate(
    p: Problem,
    rule: StoppingRule,
    decision: DecisionStrategy | None = None,
    multipliers: np.ndarray | None = None,
    table: HistoryTable | None = None,
) -> RiskReport:
    """Exact forward evaluation of a rule under a problem.

    `decision` defaults to the problem's own Bayes strategy. `multipliers`
    (or, failing that, the problem's stored ones) produce the Lagrangian
    n_psi + sum_i lambda_i * w_group_i.
    """
    return _forward(p, rule, decision, multipliers, table)[0]


def _forward(
    p: Problem,
    rule: StoppingRule,
    decision: DecisionStrategy | None = None,
    multipliers: np.ndarray | None = None,
    table: HistoryTable | None = None,
) -> tuple[RiskReport, np.ndarray]:
    """evaluate's pass, also returning the (S, m) mass that arrives at the last stage."""
    layer = table.layer if table is not None else density_layer(p, rule.engine)
    space = layer.space
    horizon = rule.horizon
    for n in range(1, horizon + 1):
        if space.n_states(n) != len(rule.at(n)):
            raise SeqOptError(
                f"rule stage {n} covers {len(rule.at(n))} states, problem has {space.n_states(n)}"
            )
    if decision is None:
        decision = DecisionStrategy.bayes(
            table if table is not None else HistoryTable(p, rule.engine), horizon
        )
    elif decision.horizon < horizon:
        raise SeqOptError("decision strategy does not cover the rule's horizon")

    m = p.n_params
    d_count = p.n_decisions
    w = p.loss.w
    stop_dist = np.zeros((horizon, m))
    loss_theta = np.zeros(m)
    decision_probs = np.zeros((m, d_count))
    mass = layer.stage(1).f_theta.copy()
    leftover = np.zeros(m)
    for n in range(1, horizon + 1):
        probs = rule.at(n)
        stopped = mass * probs[:, None]
        stop_dist[n - 1] = stopped.sum(axis=0)
        dec = decision.at(n)
        picked = w.T[dec]  # (S, m): loss of the chosen decision per parameter
        loss_theta += (stopped * picked).sum(axis=0)
        for dd in range(d_count):
            sel = dec == dd
            if sel.any():
                decision_probs[:, dd] += stopped[sel].sum(axis=0)
        if n < horizon:
            mass = push_forward(space, n, mass * (1.0 - probs)[:, None])
            mass[mass < PRUNE_EPS] = 0.0
        else:
            leftover = (mass * (1.0 - probs)[:, None]).sum(axis=0)

    stages = np.arange(1, horizon + 1, dtype=float)
    n_theta = stages @ stop_dist
    n_theta = np.where(leftover > STOP_MASS_ATOL, math.inf, n_theta)
    stop_pi2 = stop_dist @ p.priors.pi2
    stop_pi1 = stop_dist @ p.priors.pi1
    leak_pi2 = float(leftover @ p.priors.pi2)
    n_psi = float(stages @ stop_pi2) if leak_pi2 <= STOP_MASS_ATOL else math.inf
    w_total = float(loss_theta @ p.priors.pi1)
    r_finite = leak_pi2 <= STOP_MASS_ATOL
    r = p.cost.c * n_psi + w_total if r_finite else math.inf

    w_groups = None
    lagrangian = None
    if p.constraints is not None:
        w_groups = np.array(
            [
                float(sum(p.priors.pi1[t] * loss_theta[t] for t in group))
                for group in p.constraints.groups
            ]
        )
        lam = multipliers if multipliers is not None else p.constraints.multipliers
        if lam is not None:
            lagrangian = float(n_psi + np.dot(np.asarray(lam, dtype=float), w_groups))

    error_probs = None
    if d_count == 2 and m >= 2:
        i1, i2 = _hypothesis_indices(p)
        error_probs = (float(decision_probs[i1, 1]), float(decision_probs[i2, 0]))

    report = RiskReport(
        n_psi=n_psi,
        n_theta=n_theta,
        w_total=w_total,
        w_groups=w_groups,
        r=float(r),
        lagrangian=lagrangian,
        stop_dist_theta=stop_dist,
        stop_dist_pi1=stop_pi1,
        stop_dist_pi2=stop_pi2,
        decision_probs=decision_probs,
        error_probs=error_probs,
        mass_stopped_theta=stop_dist.sum(axis=0),
        mass_stopped_pi1=float(stop_pi1.sum()),
        mass_stopped_pi2=float(stop_pi2.sum()),
        horizon=horizon,
        r_finite=r_finite,
        param_labels=p.params.labels,
        decision_labels=p.loss.decisions,
    )
    return report, mass


@dataclass(eq=False)
class BruteForceResult:
    min_risk: float
    rules: list[StoppingRule]
    n_enumerated: int
    n_distinct: int
    distinct_risks: list[float]  # sorted, one per distinct on-path behavior


def stopping_frontiers(
    space: StateSpace, horizon: int, stage_value: Callable[[int], Sequence], rule_budget: int
) -> Iterator[tuple]:
    """Each deterministic tree rule truncated at `horizon`, once per on-path behavior.

    A rule is known by its frontier: the histories (n, s) where it stops with
    no stopped ancestor (stage `horizon` always stops). Yields (frontier,
    total), depth-first and stopping before continuing; total adds
    stage_value(n)[s] over the frontier, children in symbol order, each sum
    starting from 0. Raises BudgetExceededError, before asking for any stage's
    values, when the 2^H stop/continue assignments over the H histories of
    stages 1..horizon-1 exceed `rule_budget`.
    """
    h_count = sum(space.n_states(n) for n in range(1, horizon))
    if 2**h_count > rule_budget:
        raise BudgetExceededError(f"2^{h_count} truncated rules exceed the budget of {rule_budget}")
    value = [None] + [stage_value(n) for n in range(1, horizon + 1)]

    def joined(parts):
        for combo in product(*parts):
            yield tuple(chain.from_iterable(f for f, _ in combo)), sum(v for _, v in combo)

    def below(n: int, s: int):
        yield ((n, s),), value[n][s]
        if n < horizon:
            yield from joined([list(below(n + 1, s * space.k + x)) for x in range(space.k)])

    return joined([list(below(1, s)) for s in range(space.k)])


def brute_force_optimum(
    p: Problem, horizon: int, rule_budget: int = 2**20
) -> BruteForceResult:
    """Minimal combined risk over every deterministic rule truncated at `horizon`.

    Walks the distinct stopping frontiers (`stopping_frontiers`) and evaluates
    each rule's risk directly: a path contributes c*n*f_pi2 + stop_loss at its
    first stopped history. `n_enumerated` counts, and `rule_budget` caps, the
    2^H stop/continue assignments over the H interior histories.
    """
    table = HistoryTable(p, engine="tree")
    space = table.space

    def stop_value(n: int) -> list[float]:
        return (p.cost.c * n * table.stage(n).f_pi2 + table.stage(n).stop_loss).tolist()

    found = list(stopping_frontiers(space, horizon, stop_value, rule_budget))
    min_risk = min(risk for _, risk in found)
    rules = []
    for frontier, risk in found:
        if risk <= min_risk + 1e-15:
            probs = [np.zeros(space.n_states(n)) for n in range(1, horizon + 1)]
            for n, s in frontier:
                probs[n - 1][s] = 1.0
            probs[horizon - 1][:] = 1.0
            rules.append(StoppingRule("tree", probs, truncated=True))
    n_rules = 2 ** sum(space.n_states(n) for n in range(1, horizon))
    return BruteForceResult(
        min_risk, rules, n_rules, len(found), sorted(risk for _, risk in found)
    )


@dataclass(eq=False)
class TruncatabilityDiagnostic:
    """Forward-tail diagnostics of a rule at a list of horizons.

    tail_risk[i] is the unstopped mass arriving at horizons[i] weighted by the
    stage loss there: the exact gap term between a rule's risk and its
    truncated version's. bound[i] is the bounded-loss upper bound
    max_loss * P_pi1(still running). stage_risk[i] is the fixed-sample Bayes
    risk, whose decay toward zero is sufficient for truncation to lose nothing
    in the limit.
    """

    horizons: list[int]
    tail_risk: list[float]
    stage_risk: list[float]
    reach_pi1: list[float]
    bound: list[float]

    @property
    def tail_nonincreasing(self) -> bool:
        return all(b <= a + 1e-15 for a, b in zip(self.tail_risk, self.tail_risk[1:]))


def truncatability_diagnostic(
    p: Problem, rule: StoppingRule, horizons: list[int], table: HistoryTable | None = None
) -> TruncatabilityDiagnostic:
    if table is None:
        table = HistoryTable(p, engine=rule.engine)
    space = table.space
    hs = sorted(horizons)
    top = hs[-1]
    w_max = float(np.max(p.loss.w))
    tail_risk, stage_risk, reach_pi1, bound = [], [], [], []
    mass = table.stage(1).f_theta.copy()
    for n in range(1, top + 1):
        if n in hs:
            st = table.stage(n)
            picked = p.loss.w.T[st.decision]
            tail = float((mass * picked * p.priors.pi1[None, :]).sum())
            reach = float((mass @ p.priors.pi1).sum())
            tail_risk.append(tail)
            stage_risk.append(float(np.dot(st.mult, st.stop_loss)))
            reach_pi1.append(reach)
            bound.append(w_max * reach)
        if n == top:
            break
        if n <= rule.horizon:
            probs = rule.at(n)
        elif rule.truncated:
            probs = np.ones(space.n_states(n))
        else:
            raise SeqOptError(f"rule undefined at stage {n}; extend it or lower the horizons")
        mass = push_forward(space, n, mass * (1.0 - probs)[:, None])
    return TruncatabilityDiagnostic(hs, tail_risk, stage_risk, reach_pi1, bound)
