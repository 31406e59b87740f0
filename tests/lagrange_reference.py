"""The multiplier search by nested bisection, kept as a reference.

This is the search `match_constraints` ran before column generation, with
its code unchanged: bracketing and bisection of one multiplier, an outer
bisection of the second, and a pointwise blend of the two bracket-end rules
at the critical multiplier, root-found to hit the target. It covers one or
two constraint groups. Tests compare the column-generation result against it.
"""

from __future__ import annotations

import hashlib
import logging
import time
from dataclasses import dataclass
from collections.abc import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from seqopt.backward_induction import solve_limit, solve_truncated
from seqopt.bayes_decision import HistoryTable
from seqopt.errors import InfeasibleTargetsError, SeqOptError
from seqopt.histories import state_space
from seqopt.lagrange import MultiplierSearchResult, weighted_problem
from seqopt.model import Problem
from seqopt.risk_evaluation import DecisionStrategy, evaluate
from seqopt.stopping_policy import StoppingRule, extract_rule, truncate_rule

log = logging.getLogger(__name__)


def blend(a: StoppingRule, b: StoppingRule, weight: float) -> StoppingRule:
    """Pointwise mix: (1-weight) * a + weight * b (formerly StoppingRule.blend)."""
    if b.engine != a.engine or b.horizon != a.horizon:
        raise SeqOptError("can only blend rules over the same stages and engine")
    probs = [(1.0 - weight) * x + weight * y for x, y in zip(a.stop_probs, b.stop_probs)]
    return StoppingRule(a.engine, probs, a.truncated and b.truncated)


@dataclass(frozen=True)
class ReferenceConfig:
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

    def __init__(self, p: Problem, cfg: ReferenceConfig):
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
            rule = truncate_rule(pk.rule, top, state_space(self.p, pk.rule.engine))
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
            rule = blend(hi.rule, lo.rule, gamma)
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
        rule = blend(hi.rule, lo.rule, gamma)
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
    p: Problem, targets: Sequence[float], cfg: ReferenceConfig = ReferenceConfig()
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
    # so holding the space here lets all of them reuse its densities.
    space = state_space(p, cfg.engine)
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
