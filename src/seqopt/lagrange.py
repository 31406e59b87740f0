"""Reduction of loss-constrained problems to weighted unconstrained ones.

Scaling each constraint group's losses by a multiplier and solving the
weighted problem yields a rule that is optimal among all procedures whose
group losses do not exceed its own achieved values: the weighted optimality
chain converts a loss advantage into a sample-size advantage. The search below
tunes the multipliers until the achieved group losses hit requested targets.

Achieved losses are step functions of the multipliers (rules are discrete),
so exact equality generally needs randomization: at a multiplier where the
optimal rule flips, the flipping states are ties between stopping and
continuing, and mixing the two rules there sweeps the achieved loss
continuously across the step. The scalar search brackets the critical
multiplier, identifies the flip states as the difference between the two
bracket-end rules, and root-finds the mixing weight.

With two groups the search nests: an outer bisection on the second multiplier
around an inner scalar match of the first. If the outer step cannot be
interpolated, the result reports converged=False with the bracketing frontier
points instead of pretending equality. More than two groups: supply your own
multipliers and use weighted_problem / lagrangian directly.

Because the achieved losses are step functions, most probes extract a rule
and decision strategy some earlier probe of the same call already had. One
call keeps the achieved losses per 16-byte digest of the (rule, decision)
pair and evaluates each distinct pair once; the probe path and every result
are those of evaluating each probe. `MultiplierSearchResult.stats` reports
the probe, evaluation and reuse counts and the seconds spent solving,
extracting and evaluating, and each probe is logged at DEBUG level.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass, field, replace
from collections.abc import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from .backward_induction import solve_limit, solve_truncated
from .bayes_decision import HistoryTable, _weighted_loss, density_layer
from .errors import InfeasibleTargetsError, SeqOptError
from .model import Problem, with_loss
from .risk_evaluation import DecisionStrategy, evaluate, stopping_frontiers
from .stopping_policy import StoppingRule, extract_rule, truncate_rule

log = logging.getLogger(__name__)


def weighted_problem(p: Problem, lam: Sequence[float]) -> Problem:
    """Problem whose loss is scaled per constraint group, zero outside them.

    The identity multiplier vector (all ones, groups covering every parameter)
    returns an equivalent problem; doubling a group's multiplier doubles its
    contribution to any loss functional.
    """
    if p.constraints is None:
        raise SeqOptError("weighted_problem needs constraint groups")
    if len(lam) != len(p.constraints.groups):
        raise SeqOptError("one multiplier per constraint group required")
    if any(l < 0 for l in lam):
        raise SeqOptError("multipliers must be >= 0")
    multipliers = tuple(float(l) for l in lam)
    return replace(
        with_loss(p, _weighted_loss(p, lam)),
        constraints=replace(p.constraints, multipliers=multipliers),
    )


def lagrangian(
    p: Problem,
    lam: Sequence[float],
    rule: StoppingRule,
    decision: DecisionStrategy | None = None,
) -> float:
    """n_psi + sum_i lambda_i * w_group_i for a given rule and strategy."""
    report = evaluate(p, rule, decision)
    if report.w_groups is None:
        raise SeqOptError("lagrangian needs constraint groups")
    return float(report.n_psi + np.dot(np.asarray(lam, dtype=float), report.w_groups))


@dataclass(frozen=True)
class SearchConfig:
    horizon: int | None = None  # fixed solve horizon; None = limit mode
    limit_tol: float = 1e-11
    n_cap: int = 256
    residual_tol: float = 1e-6
    lambda_init: float = 1.0
    bracket_factor: float = 4.0
    max_bracket_steps: int = 80
    max_bisect_iter: int = 200
    bisect_rel_tol: float = 1e-13
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
    # probes, evaluated (distinct rule/decision pairs), reused, and seconds
    # spent in solve, extract and evaluate
    stats: dict = field(default_factory=dict)


@dataclass(eq=False)
class _Pack:
    lam: np.ndarray
    rule: StoppingRule
    decision: DecisionStrategy
    achieved: np.ndarray
    n_psi: float
    horizon: int


def _pair_digest(rule: StoppingRule, decision: DecisionStrategy) -> bytes:
    """16-byte digest of a (rule, decision) pair over the rule's stages."""
    h = hashlib.blake2b(rule.horizon.to_bytes(8, "little"), digest_size=16)
    for arr in (*rule.stop_probs, *decision.decisions[: rule.horizon]):
        h.update(np.ascontiguousarray(arr))
    return h.digest()


class _Search:
    """One match_constraints call: its problem, config, evaluations and stats.

    Achieved losses are step functions of the multipliers, so most probes
    extract a rule already seen. Evaluations are kept by _pair_digest of the
    (rule, decision) pair, digests and a few floats only, and each distinct
    pair is evaluated once.
    """

    def __init__(self, p: Problem, cfg: SearchConfig):
        self.p = p
        self.cfg = cfg
        self.trace: list[dict] = []
        self._achieved: dict[bytes, tuple[np.ndarray, float]] = {}
        self.stats: dict = {"probes": 0, "evaluated": 0, "reused": 0,
                            "solve_s": 0.0, "extract_s": 0.0, "evaluate_s": 0.0}

    def achieved(self, rule: StoppingRule, decision: DecisionStrategy) -> tuple[np.ndarray, float]:
        """Group losses and n_psi of the pair, evaluated on first sight only."""
        key = _pair_digest(rule, decision)
        hit = self._achieved.get(key)
        if hit is None:
            t0 = time.perf_counter()
            report = evaluate(self.p, rule, decision)
            self.stats["evaluate_s"] += time.perf_counter() - t0
            self.stats["evaluated"] += 1
            hit = self._achieved[key] = (report.w_groups.copy(), report.n_psi)
        else:
            self.stats["reused"] += 1
        return hit[0].copy(), hit[1]

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
        w_groups, n_psi = self.achieved(rule, decision)
        self.stats["probes"] += 1
        self.trace.append({"lam": lam.tolist(), "achieved": w_groups.tolist(), "n_psi": n_psi})
        log.debug(
            "probe %d lam=%s horizon=%d achieved=%s n_psi=%r",
            self.stats["probes"], lam, tables.horizon, w_groups, n_psi,
        )
        return _Pack(lam.copy(), rule, decision, w_groups, n_psi, tables.horizon)

    def common_horizon(self, packs: list[_Pack]) -> list[_Pack]:
        """Extend every pack's rule (truncated) and decisions to the largest horizon."""
        top = max(pk.horizon for pk in packs)
        out = []
        for pk in packs:
            if pk.horizon == top:
                out.append(pk)
                continue
            t0 = time.perf_counter()
            rule = truncate_rule(pk.rule, top, density_layer(self.p, pk.rule.engine).space)
            wp = weighted_problem(self.p, pk.lam)
            decision = DecisionStrategy.bayes(HistoryTable(wp, engine=pk.rule.engine), top)
            self.stats["extract_s"] += time.perf_counter() - t0
            w_groups, n_psi = self.achieved(rule, decision)
            out.append(_Pack(pk.lam, rule, decision, w_groups, n_psi, top))
        return out


def _blend_to_target(
    search: _Search, lo: _Pack, hi: _Pack, group: int, target: float
) -> _Pack | None:
    """Mix the two bracket-end rules so group's achieved loss hits the target.

    Returns None when neither end's decision strategy gives a sign bracket
    (the step the target sits in is not spanned by mixing these two rules).
    """
    for decision in (hi.decision, lo.decision):

        def gap(gamma: float) -> float:
            rule = hi.rule.blend(lo.rule, gamma)
            return float(search.achieved(rule, decision)[0][group] - target)

        g0, g1 = gap(0.0), gap(1.0)
        if g0 == 0.0:
            gamma = 0.0
        elif g1 == 0.0:
            gamma = 1.0
        elif (g0 < 0) != (g1 < 0):
            gamma = float(brentq(gap, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16))
        else:
            continue
        rule = hi.rule.blend(lo.rule, gamma)
        w_groups, n_psi = search.achieved(rule, decision)
        lam = hi.lam
        search.trace.append(
            {"lam": lam.tolist(), "achieved": w_groups.tolist(), "n_psi": n_psi, "gamma": gamma}
        )
        log.debug("blend lam=%s gamma=%r achieved=%s", lam, gamma, w_groups)
        return _Pack(lam, rule, decision, w_groups, n_psi, hi.horizon)
    return None


def _match_scalar(
    search: _Search,
    group: int,
    target: float,
    make_lam: Callable[[float], np.ndarray],
    x_init: float,
) -> tuple[float, _Pack, bool]:
    """Tune one multiplier until achieved w_group hits the target.

    Achieved loss is non-increasing in the multiplier. Returns
    (multiplier, pack, converged). Raises InfeasibleTargetsError when no
    bracket exists within the growth budget.
    """
    cfg, trace = search.cfg, search.trace

    def probe(x: float) -> _Pack:
        return search.solve_at(make_lam(x))

    x = x_init
    pk = probe(x)
    if abs(pk.achieved[group] - target) <= cfg.residual_tol:
        return x, pk, True
    lo_x = hi_x = x
    lo = hi = pk
    steps = 0
    while lo.achieved[group] < target:  # need a looser end: shrink the multiplier
        hi_x, hi = lo_x, lo
        lo_x = lo_x / cfg.bracket_factor
        lo = probe(lo_x)
        steps += 1
        if abs(lo.achieved[group] - target) <= cfg.residual_tol:
            return lo_x, lo, True
        if steps > cfg.max_bracket_steps:
            raise InfeasibleTargetsError(
                f"target {target} for group {group} above the achievable frontier",
                frontier=trace[-3:],
            )
    while hi.achieved[group] > target:  # need a tighter end: grow the multiplier
        lo_x, lo = hi_x, hi
        hi_x = hi_x * cfg.bracket_factor
        hi = probe(hi_x)
        steps += 1
        if abs(hi.achieved[group] - target) <= cfg.residual_tol:
            return hi_x, hi, True
        if steps > cfg.max_bracket_steps:
            raise InfeasibleTargetsError(
                f"target {target} for group {group} below the achievable frontier",
                frontier=trace[-3:],
            )
    # Invariant: lo.achieved >= target >= hi.achieved, lo_x <= hi_x.
    for _ in range(cfg.max_bisect_iter):
        if hi_x - lo_x <= cfg.bisect_rel_tol * max(1.0, hi_x):
            break
        mid_x = 0.5 * (lo_x + hi_x)
        mid = probe(mid_x)
        if abs(mid.achieved[group] - target) <= cfg.residual_tol:
            return mid_x, mid, True
        if mid.achieved[group] >= target:
            lo_x, lo = mid_x, mid
        else:
            hi_x, hi = mid_x, mid
    lo, hi = search.common_horizon([lo, hi])
    blended = _blend_to_target(search, lo, hi, group, target)
    if blended is not None and abs(blended.achieved[group] - target) <= cfg.residual_tol:
        return hi_x, blended, True
    return hi_x, (blended if blended is not None else hi), False


def match_constraints(
    p: Problem, targets: Sequence[float], cfg: SearchConfig = SearchConfig()
) -> MultiplierSearchResult:
    """Find multipliers whose extracted rule achieves the target group losses.

    One group: bracketing plus bisection on the multiplier, with tie-state
    randomization when the target falls inside a step. Two groups: outer
    bisection on the second multiplier around inner scalar matches of the
    first. A result with converged=False carries the nearest frontier points
    in frontier_trace; its rule is still the best bracket end found.
    """
    if p.constraints is None:
        raise SeqOptError("match_constraints needs constraint groups")
    k = len(p.constraints.groups)
    if len(targets) != k:
        raise SeqOptError(f"expected {k} targets, got {len(targets)}")
    if k > 2:
        raise SeqOptError("built-in search covers 1 or 2 groups; supply multipliers directly")
    targets_arr = np.asarray(targets, dtype=float)
    if np.any(targets_arr <= 0):
        raise InfeasibleTargetsError("targets must be > 0 (nonnegative losses cannot go below)")
    # Every probe's weighted problem shares p's observation model and priors,
    # so holding the layer here lets all of them reuse its stages.
    layer = density_layer(p, cfg.engine)
    search = _Search(p, cfg)
    trace = search.trace

    if k == 1:
        x, pack, converged = _match_scalar(
            search, 0, float(targets_arr[0]), lambda v: np.array([v]), cfg.lambda_init
        )
        return _result(search, pack, targets_arr, converged)

    inner_init = cfg.lambda_init

    def inner(y: float) -> tuple[_Pack, bool]:
        nonlocal inner_init
        x, pack, ok = _match_scalar(
            search, 0, float(targets_arr[0]), lambda v: np.array([v, y]), inner_init
        )
        inner_init = x  # warm start the next inner match
        return pack, ok

    y = cfg.lambda_init
    pack, inner_ok = inner(y)
    if abs(pack.achieved[1] - targets_arr[1]) <= cfg.residual_tol and inner_ok:
        return _result(search, pack, targets_arr, True)
    lo_y = hi_y = y
    lo_pack = hi_pack = pack
    steps = 0
    while lo_pack.achieved[1] < targets_arr[1]:
        hi_y, hi_pack = lo_y, lo_pack
        lo_y /= cfg.bracket_factor
        lo_pack, _ = inner(lo_y)
        steps += 1
        if steps > cfg.max_bracket_steps:
            raise InfeasibleTargetsError(
                f"target {targets_arr[1]} for group 1 above the achievable frontier",
                frontier=trace[-3:],
            )
    while hi_pack.achieved[1] > targets_arr[1]:
        lo_y, lo_pack = hi_y, hi_pack
        hi_y *= cfg.bracket_factor
        hi_pack, _ = inner(hi_y)
        steps += 1
        if steps > cfg.max_bracket_steps:
            raise InfeasibleTargetsError(
                f"target {targets_arr[1]} for group 1 below the achievable frontier",
                frontier=trace[-3:],
            )
    converged = False
    best = hi_pack
    for _ in range(cfg.max_bisect_iter):
        if abs(best.achieved[1] - targets_arr[1]) <= cfg.residual_tol:
            converged = True
            break
        if hi_y - lo_y <= cfg.bisect_rel_tol * max(1.0, hi_y):
            break
        mid_y = 0.5 * (lo_y + hi_y)
        mid_pack, _ = inner(mid_y)
        if mid_pack.achieved[1] >= targets_arr[1]:
            lo_y, lo_pack = mid_y, mid_pack
        else:
            hi_y, hi_pack = mid_y, mid_pack
        best = mid_pack
    if not converged:
        lo_pack, hi_pack = search.common_horizon([lo_pack, hi_pack])
        blended = _blend_to_target(search, lo_pack, hi_pack, 1, float(targets_arr[1]))
        if blended is not None:
            best = blended
            converged = bool(
                np.all(np.abs(blended.achieved - targets_arr) <= cfg.residual_tol)
            )
        else:
            best = hi_pack
    if converged and abs(best.achieved[0] - targets_arr[0]) > cfg.residual_tol:
        converged = False
    return _result(search, best, targets_arr, converged)


def _result(
    search: _Search, pack: _Pack, targets: np.ndarray, converged: bool
) -> MultiplierSearchResult:
    p = search.p
    return MultiplierSearchResult(
        lam=pack.lam.copy(),
        targets=targets.copy(),
        achieved=pack.achieved.copy(),
        slack=targets - pack.achieved,
        rule=pack.rule,
        decision=pack.decision,
        n_psi=pack.n_psi,
        converged=converged,
        horizon=pack.horizon,
        frontier_trace=search.trace,
        weighted=weighted_problem(p, pack.lam),
        stats=dict(search.stats),
    )


@dataclass(eq=False)
class OptimalityCheck:
    n_rules: int
    n_star: float
    achieved: np.ndarray
    violations: list[dict]
    strict_violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.strict_violations


def verify_conditional_optimality(
    p: Problem,
    result: MultiplierSearchResult,
    horizon: int,
    rule_budget: int = 2**20,
    n_tol: float = 1e-9,
    w_tol: float = 1e-12,
) -> OptimalityCheck:
    """Look among all deterministic truncated rules for one that beats the matched rule.

    Rules are walked once per distinct stopping frontier, in the order of
    `stopping_frontiers`, and `n_rules` counts them; `rule_budget` caps the
    2^H stop/continue assignments over the interior histories.

    A violation is a deterministic rule truncated at `horizon` whose every
    group loss (under the weighted problem's own decision strategy) is at most
    the matched rule's achieved value, yet whose expected sample size is
    smaller. A strict violation additionally has some group loss strictly
    below the achieved value with a sample size merely equal: the optimality
    chain promises a strictly smaller sample size then.
    """
    table = HistoryTable(p, engine="tree")
    weighted = HistoryTable(result.weighted, engine="tree")  # the weighted problem's decisions

    def node(n: int) -> np.ndarray:
        """Per state: sample-size weight under pi2, then per-group pi1-weighted loss."""
        st = table.stage(n)
        per_theta = p.loss.w.T[weighted.stage(n).decision] * st.f_theta * p.priors.pi1[None, :]
        groups = [per_theta[:, list(group)].sum(axis=1) for group in p.constraints.groups]
        return np.column_stack([n * st.f_pi2] + groups)  # (S, 1 + g)

    violations: list[dict] = []
    strict: list[dict] = []
    frontiers = stopping_frontiers(table.space, horizon, node, rule_budget)
    for n_rules, (frontier, totals) in enumerate(frontiers, 1):
        n_rule, w_rule = float(totals[0]), totals[1:]
        if np.all(w_rule <= result.achieved + w_tol):
            entry = {"frontier": sorted(frontier), "n_psi": n_rule, "w_groups": w_rule.tolist()}
            if n_rule < result.n_psi - n_tol:
                violations.append(entry)
            elif np.any(w_rule < result.achieved - 1e-9) and n_rule <= result.n_psi + w_tol:
                strict.append(entry)
    return OptimalityCheck(
        n_rules=n_rules,
        n_star=result.n_psi,
        achieved=result.achieved.copy(),
        violations=violations,
        strict_violations=strict,
    )
