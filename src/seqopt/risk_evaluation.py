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

The pass has a leading rule axis: it walks a stack of R (rule, decision)
pairs of one engine and horizon at once, with M an (R, S, m) array whose
(S, m) block per pair is contiguous, and `evaluate` is its R = 1 case. Each
product above runs per block as np.matmul of the stacked operands, the
booked one the transposed view of an (R, S, D) array, so every pair books
bit for bit what a pass of it alone books. The per-stage Python work is
shared, so a stack of small stages costs little more than one pair's pass.
The walk ends when every pair's mass is zero; until then a pair whose mass
is all zero rides along, booking exactly 0.
"""

from __future__ import annotations

import csv
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .bayes_decision import HistoryTable, _bayes_loss
from .errors import SeqOptError
from .histories import StateSpace, check_state_budget, push_forward, state_space
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
    return _forward(p, [(rule, decision)], multipliers)[0][0]


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """R arrays of one shape as one (R, ...) array; the one array itself where R = 1."""
    return arrays[0] if len(arrays) == 1 else np.stack(arrays)


def _stages(flat: np.ndarray, own: list[np.ndarray], r_count: int) -> list[np.ndarray]:
    """Per stage n, the (R, S_n) arrays of a stack's R pairs, views of `flat`,
    every pair's concatenated stage after stage and pair after pair; the
    one pair's own (S_n,) stage arrays `own` where R = 1."""
    if r_count == 1:
        return own
    rows = flat.reshape(r_count, -1)
    ends = np.cumsum([0] + [len(a) for a in own]).tolist()
    return [rows[:, a:b] for a, b in zip(ends, ends[1:])]


def _forward(
    p: Problem,
    pairs: Sequence[tuple[StoppingRule, DecisionStrategy | None]],
    multipliers: np.ndarray | None = None,
) -> list[tuple[RiskReport, np.ndarray]]:
    """evaluate's pass over a stack of (rule, decision) pairs of one engine and
    horizon: per pair its report and the (S, m) mass that arrives at the last
    stage, each as a pass of that pair alone gives it. The reports' stats are
    the pass's: a pair whose walk ends early rides along with zero mass."""
    rules = [rule for rule, _ in pairs]
    decisions = [decision for _, decision in pairs]
    engine, horizon = rules[0].engine, rules[0].horizon
    if len({(rule.engine, rule.horizon) for rule in rules}) > 1:
        raise SeqOptError("a stack of rules needs one engine and one horizon")
    space = state_space(p, engine)
    d_count = p.n_decisions
    stop, indices = _check_coverage(space, rules, decisions, horizon, d_count)
    r_count = len(pairs)
    stops = _stages(stop, rules[0].stop_probs, r_count)
    bayes = HistoryTable(p, engine) if any(d is None for d in decisions) else None
    kinds = _kinds(d_count)
    # Each stage's decision probabilities, one-hot booleans for indices; the
    # Bayes decisions are read as the walk reaches them.
    if bayes is None and all(d.probs is None for d in decisions):
        q_of = _one_hot_stages(_stages(indices, decisions[0].decisions[:horizon], r_count),
                               d_count)
    elif all(d is None for d in decisions):  # one (D, S_n) for every pair

        def q_of(n: int) -> np.ndarray:
            return bayes.stage(n).decision == kinds[:, None]
    else:

        def q_of(n: int) -> np.ndarray:
            return _stack([
                (_one_hot(bayes.stage(n).decision, kinds) if d is None
                 else d.stage_probs(n, d_count)).T
                for d in decisions
            ])
    del stop, indices  # a single pair's stages are its own arrays, not these copies
    return _walk(p, space, stops, q_of, multipliers)


def _one_hot_stages(stages: list[np.ndarray], d_count: int) -> Callable[[int], np.ndarray]:
    """The q_of of _walk for stacked decision indices per stage: stage n's
    one-hot (R, D, S_n) booleans."""
    kinds = _kinds(d_count)[:, None]
    return lambda n: stages[n - 1][..., None, :] == kinds


def _walk(
    p: Problem,
    space: StateSpace,
    stops: list[np.ndarray],
    q_of: Callable[[int], np.ndarray],
    multipliers: np.ndarray | None = None,
) -> list[tuple[RiskReport, np.ndarray]]:
    """_forward's stage loop over stacked stages that fit the space: stops[n - 1]
    is stage n's (R, S_n) stop probabilities and q_of(n) its (R, D, S_n)
    decision probabilities (one-hot booleans for indices; (D, S_n) where every
    pair shares them).

    The rule axis leads every array of a stack of R > 1 pairs and is left out
    where R = 1, so a single pair's pass runs on (S, m) arrays.
    """
    horizon = len(stops)
    r_count = len(stops[0]) if stops[0].ndim == 2 else 1
    lead = (r_count,) if r_count > 1 else ()
    start = time.perf_counter()
    m, d_count = p.n_params, p.n_decisions
    stop_dist = np.zeros(lead + (horizon, m))
    blocks = np.zeros(lead + (d_count, m))  # mass stopped per (decision, parameter)
    mass = np.empty(lead + (space.n_states(1), m))  # each pair's (S, m) block contiguous
    mass[...] = space.densities(1)
    leftover = np.zeros((r_count, m))
    states = 0
    for n in range(1, horizon + 1):
        probs = stops[n - 1]
        states += probs.shape[-1]
        p_row = probs[..., None, :]
        stop_dist[..., n - 1, :] = (p_row @ mass)[..., 0, :]
        # q * p[:, None] per pair, written through its (D, S) transpose: the
        # state axis innermost, and each (S, D) C-ordered operand BLAS always got.
        booked_t = np.empty(lead + (probs.shape[-1], d_count)).swapaxes(-1, -2)
        np.multiply(q_of(n), p_row, out=booked_t)
        blocks += booked_t @ mass
        if n == horizon:
            leftover = [(block * (1.0 - row)[:, None]).sum(axis=0)
                        for block, row in zip(mass.reshape(r_count, -1, m),
                                              probs.reshape(r_count, -1))]
            break
        mass = push_forward(space, n, mass * (1.0 - probs)[..., None])
        mass[mass < PRUNE_EPS] = 0.0
        if not np.count_nonzero(mass):  # every later stage would book 0
            mass = np.zeros(lead + (space.n_states(horizon), m))
            break
    stats = {"forward_s": time.perf_counter() - start, "stages": n, "states": states}
    stop_dist = stop_dist.reshape(r_count, horizon, m)
    blocks = blocks.reshape(r_count, d_count, m)
    mass = mass.reshape(r_count, -1, m)
    return [
        (_report(p, stop_dist[i], blocks[i], leftover[i], multipliers, dict(stats)), mass[i])
        for i in range(r_count)
    ]


def _report(
    p: Problem,
    stop_dist: np.ndarray,
    blocks: np.ndarray,
    leftover: np.ndarray,
    multipliers: np.ndarray | None,
    stats: dict,
) -> RiskReport:
    """A pair's RiskReport from what its pass booked: (horizon, m) stop_dist,
    (D, m) blocks and the (m,) mass left unstopped past the last stage."""
    horizon, m = stop_dist.shape
    by_theta = np.ascontiguousarray(blocks.T)
    loss_theta = (by_theta * p.loss.w).sum(axis=1)
    # A pmf row may sum to 1 + 2^-52, and a decision's probability with it.
    decision_probs = by_theta.clip(0.0, 1.0)

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
    if p.n_decisions == 2 and m >= 2:
        i1, i2 = _hypothesis_indices(p)
        error_probs = (float(decision_probs[i1, 1]), float(decision_probs[i2, 0]))

    return RiskReport(
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
