"""Exact evaluation of a procedure: a stopping rule plus terminal decision
strategy, both defined in `stopping_policy` with the check that they fit a
state space (the strategy is re-exported here).

The evaluator runs one forward pass over the state space, carrying the
per-parameter measure of histories that are still unstopped (see
`histories.push_forward`). At stage n, with stop probabilities p (S,), the
arriving mass M (S, m) and the strategy's decision probabilities q (S, D)
(one-hot rows for a deterministic strategy), the pass books

    stop_dist[n]     = p @ M                      (m,) mass stopped per parameter
    block_n          = (q * p[:, None]).T @ M     (D, m) of it per decision

and sends M * (1 - p) on to stage n+1. The walk ends with its mass: at the
first stage whose pushed and pruned mass is all zero, since every later stage
would book exactly 0, and the mass arriving at the last stage is then zeros.
Default Bayes decisions are read from the loss view stage by stage as the
walk reaches them, so a rule that stops every history early builds no later
stage. Everything else comes from those two after the pass:

    decision_probs   = (sum_n block_n).T          (m, D)
    loss_theta[t]    = sum_d decision_probs[t, d] * w[t, d]
    n_theta[t]       = sum_n n * stop_dist[n, t]  (inf if mass leaks past the cap)
    n_psi            = pi2-weighted average of n_theta
    w_total          = loss_theta @ pi1
    r                = c * n_psi + w_total

The stopping mass reads only p, so decision probabilities whose rows sum to 1
within rounding leave it unchanged.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .bayes_decision import HistoryTable, _bayes_loss
from .errors import SeqOptError
from .histories import check_state_budget, push_forward, state_space
from .model import Problem
from .stopping_policy import DecisionStrategy, StoppingRule, _check_coverage, _kinds, _one_hot
from .tolerances import PRUNE_EPS, STOP_MASS_ATOL


@dataclass(eq=False)
class RiskReport:
    """Every functional of one (rule, decision strategy) pair.

    Probabilities are absolute (not conditional on stopping); for a truncated
    rule each parameter's stopping mass is 1 and the rows of
    `decision_probs` sum to 1.

    `stats` describes the pass, not its result: "forward_s" (its seconds),
    "stages" (walked) and "states" (visited over those stages). It stays out
    of to_dict and to_csv, so written outputs are reproducible.
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
    stats: dict = field(default_factory=dict, repr=False)

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
) -> RiskReport:
    """Exact forward evaluation of a rule under a problem.

    `decision` defaults to the problem's own Bayes strategy. `multipliers`
    (or, failing that, the problem's stored ones) produce the Lagrangian
    n_psi + sum_i lambda_i * w_group_i. The Bayes stages are shared with every
    live table of the problem (see bayes_decision), such as an extracted rule's.
    """
    return _forward(p, rule, decision, multipliers)[0]


def _forward(
    p: Problem,
    rule: StoppingRule,
    decision: DecisionStrategy | None = None,
    multipliers: np.ndarray | None = None,
) -> tuple[RiskReport, np.ndarray]:
    """evaluate's pass, also returning the (S, m) mass that arrives at the last stage."""
    space = state_space(p, rule.engine)
    horizon = rule.horizon
    d_count = p.n_decisions
    _check_coverage(space, rule, decision, horizon, d_count)
    bayes = HistoryTable(p, rule.engine) if decision is None else None

    start = time.perf_counter()
    m = p.n_params
    kinds = _kinds(d_count)
    stop_dist = np.zeros((horizon, m))
    blocks = np.zeros((d_count, m))  # mass stopped per (decision, parameter)
    mass = space.densities(1).copy()
    leftover = np.zeros(m)
    states = 0
    for n in range(1, horizon + 1):
        probs = rule.at(n)
        states += len(probs)
        stop_dist[n - 1] = probs @ mass
        if bayes is not None:
            q = _one_hot(bayes.stage(n).decision, kinds)
        elif decision.probs is None:
            q = _one_hot(decision.at(n), kinds)
        else:
            q = decision.probs[n - 1]
        # q * p[:, None], written through its (D, S) transpose: the state axis
        # innermost, and the (S, D) C-ordered operand BLAS always got.
        booked = np.empty((len(probs), d_count))
        np.multiply(q.T, probs, out=booked.T)
        blocks += booked.T @ mass
        if n == horizon:
            leftover = (mass * (1.0 - probs)[:, None]).sum(axis=0)
            break
        mass = push_forward(space, n, mass * (1.0 - probs)[:, None])
        mass[mass < PRUNE_EPS] = 0.0
        if not np.count_nonzero(mass):  # every later stage would book 0
            mass = np.zeros((space.n_states(horizon), m))
            break
    by_theta = np.ascontiguousarray(blocks.T)
    loss_theta = (by_theta * p.loss.w).sum(axis=1)
    # A pmf row may sum to 1 + 2^-52, and a decision's probability with it.
    decision_probs = by_theta.clip(0.0, 1.0)
    stats = {"forward_s": time.perf_counter() - start, "stages": n, "states": states}

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
        stats=stats,
    )
    return report, mass


@dataclass(eq=False)
class TruncatabilityDiagnostic:
    """Forward-tail diagnostics of a rule at a list of horizons.

    tail_risk[i] is the unstopped mass arriving at horizons[i] weighted by the
    loss of the Bayes decision there: the exact gap term between a rule's risk
    and its truncated version's. bound[i] is the bounded-loss upper bound
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
    p: Problem, rule: StoppingRule, horizons: list[int]
) -> TruncatabilityDiagnostic:
    """Tail and stage risks at each horizon, from the rule's and every history's forward mass.

    The result's horizons are the requested ones sorted, repeats kept, and
    entry i of every list belongs to horizons[i]. Horizon 0 reads the stage-0
    mass: nothing has stopped, so its tail and stage risks are both l0.
    """
    hs = sorted(horizons)
    if not hs or hs[0] < 0:
        raise SeqOptError(f"horizons must be a non-empty list of stages >= 0, got {horizons!r}")
    space = state_space(p, rule.engine)
    top = hs[-1]
    check_state_budget(space, top)
    w_max = float(np.max(p.loss.w))
    tail_risk, stage_risk, reach_pi1, bound = [], [], [], []
    mass = every = np.ones((1, p.n_params))
    for n in range(top + 1):
        repeats = hs.count(n)
        if repeats:
            reach = float((mass @ p.priors.pi1).sum())
            tail_risk += [_bayes_loss(p, mass)] * repeats
            stage_risk += [_bayes_loss(p, every)] * repeats
            reach_pi1 += [reach] * repeats
            bound += [w_max * reach] * repeats
        if n == top:
            break
        if n == 0:  # a rule's stages start at 1
            probs = np.zeros(1)
        elif n <= rule.horizon:
            probs = rule.at(n)
        elif rule.truncated:
            probs = np.ones(space.n_states(n))
        else:
            raise SeqOptError(f"rule undefined at stage {n}; extend it or lower the horizons")
        mass = push_forward(space, n, mass * (1.0 - probs)[:, None])
        every = push_forward(space, n, every)
    return TruncatabilityDiagnostic(hs, tail_risk, stage_risk, reach_pi1, bound)
