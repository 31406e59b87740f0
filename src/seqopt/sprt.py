"""Sequential probability ratio test baseline with exact operating characteristics.

The test tracks the log likelihood ratio of hypothesis pair (i, j) and stops
as soon as it leaves the open interval (b_lower, a_upper), deciding j iff the
ratio is at or above a_upper. On an iid finite alphabet the ratio is a linear
function of the symbol counts, so the count-vector state space enumerates
every reachable ratio value exactly and the operating characteristics come out
of the exact forward evaluator, no approximation beyond the reported cap tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SeqOptError, UnreachableTargetsError
from .bayes_decision import density_layer
from .histories import CountStateSpace
from .model import Problem
from .risk_evaluation import DecisionStrategy, RiskReport, evaluate
from .stopping_policy import StoppingRule, reachable_sets, truncate_rule


@dataclass(frozen=True)
class SprtSpec:
    """Stop outside (b_lower, a_upper) in log-LR coordinate; decide the second
    hypothesis iff the log-LR is >= the threshold midpoint at the stop, so a
    threshold crossing decides the side it crossed and a cap stop decides by
    proximity."""

    a_upper: float
    b_lower: float
    hypotheses: tuple[int, int] = (0, 1)
    cap: int = 200


def _check_sprt_inputs(p: Problem, spec: SprtSpec) -> None:
    if p.obs.kind != "iid":
        raise SeqOptError("the ratio test needs an iid model")
    if not spec.b_lower < spec.a_upper:
        raise SeqOptError(
            f"need b_lower < a_upper, got ({spec.b_lower}, {spec.a_upper})"
        )
    i, j = spec.hypotheses
    if i == j or not (0 <= i < p.n_params and 0 <= j < p.n_params):
        raise SeqOptError(f"bad hypothesis pair {spec.hypotheses}")
    if p.n_decisions != 2:
        raise SeqOptError("ratio-test decisions need a two-decision loss")


def llr_increments(p: Problem, hypotheses: tuple[int, int] = (0, 1)) -> np.ndarray:
    """Per-symbol log likelihood-ratio increments log pmf[j]/pmf[i]."""
    i, j = hypotheses
    with np.errstate(divide="ignore"):
        return np.log(p.obs.iid_pmf[j]) - np.log(p.obs.iid_pmf[i])


def llr_by_state(
    p: Problem, space, n: int, hypotheses: tuple[int, int] = (0, 1)
) -> np.ndarray:
    """Log-LR of every stage-n state; nan where both hypotheses have density 0."""
    inc = llr_increments(p, hypotheses)
    if isinstance(space, CountStateSpace):
        counts = np.asarray(space.states(n), dtype=float)
    else:
        counts = np.zeros((space.n_states(n), space.k))
        for idx in range(space.n_states(n)):
            for x in space.history(n, idx):
                counts[idx, x] += 1
    terms = np.where(counts > 0, counts * inc[None, :], 0.0)
    return terms.sum(axis=1)


def sprt_rule(p: Problem, spec: SprtSpec) -> tuple[StoppingRule, DecisionStrategy]:
    """The ratio test as a (rule, decision strategy) pair on count states.

    Stage `cap` keeps the threshold stop probabilities (the rule is not
    truncated); cap it with truncate_rule for exact capped evaluation.
    """
    _check_sprt_inputs(p, spec)
    space = density_layer(p, "counts").space
    mid = 0.5 * (spec.a_upper + spec.b_lower)
    probs: list[np.ndarray] = []
    decisions: list[np.ndarray] = []
    for n in range(1, spec.cap + 1):
        llr = llr_by_state(p, space, n, spec.hypotheses)
        inside = (llr > spec.b_lower) & (llr < spec.a_upper)
        probs.append(np.where(inside, 0.0, 1.0))
        decisions.append((llr >= mid).astype(np.int64))
    rule = StoppingRule("counts", probs, truncated=False)
    return rule, DecisionStrategy(decisions)


@dataclass(eq=False)
class SprtOC:
    """Exact operating characteristics of a capped ratio test."""

    spec: SprtSpec
    alpha: float
    beta: float
    e_tau: np.ndarray  # per parameter, cap stops included
    tail_theta: np.ndarray  # per-parameter mass force-stopped by the cap
    report: RiskReport

    def to_dict(self) -> dict:
        return {
            "a_upper": self.spec.a_upper,
            "b_lower": self.spec.b_lower,
            "hypotheses": list(self.spec.hypotheses),
            "cap": self.spec.cap,
            "alpha": self.alpha,
            "beta": self.beta,
            "e_tau": self.e_tau.tolist(),
            "tail_theta": self.tail_theta.tolist(),
        }


def sprt_operating_characteristics(p: Problem, spec: SprtSpec) -> SprtOC:
    _check_sprt_inputs(p, spec)
    layer = density_layer(p, "counts")  # held so the calls below share it
    rule, decision = sprt_rule(p, spec)
    open_report = evaluate(p, rule, decision)
    tail = 1.0 - open_report.mass_stopped_theta
    capped = truncate_rule(rule, spec.cap, layer.space)
    report = evaluate(p, capped, decision)
    i, j = spec.hypotheses
    alpha = float(report.decision_probs[i, 1])
    beta = float(report.decision_probs[j, 0])
    return SprtOC(spec, alpha, beta, report.n_theta.copy(), tail, report)


def _bisect_threshold(
    oc_of: "callable", lo: float, hi: float, target: float, iters: int = 60
) -> tuple[float, float]:
    """Smallest threshold magnitude whose achieved error is <= target.

    `oc_of` must be non-increasing in its argument. Returns (threshold,
    achieved). When even oc_of(hi) > target, returns (hi, oc_of(hi)).
    """
    f_lo, f_hi = oc_of(lo), oc_of(hi)
    if f_hi > target:
        return hi, f_hi
    if f_lo <= target:
        return lo, f_lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = oc_of(mid)
        if f_mid <= target:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return hi, f_hi


def match_sprt_errors(
    p: Problem,
    alpha: float,
    beta: float,
    cap: int = 200,
    tol: float = 1e-4,
    hypotheses: tuple[int, int] = (0, 1),
    conservative: bool = False,
    max_sweeps: int = 8,
    threshold_limit: float = 60.0,
) -> SprtSpec:
    """Thresholds whose exact error probabilities match the targets.

    Alternates one-dimensional bisection on a_upper (driving alpha) and
    b_lower (driving beta), starting from the classical approximations
    a = log((1-beta)/alpha), b = log(beta/(1-alpha)). The operating
    characteristics are step functions of the thresholds on a finite alphabet,
    so exact equality is generally unattainable:

    - conservative=False: require |achieved - target| <= tol for both errors,
      else raise UnreachableTargetsError carrying the best spec found.
    - conservative=True: return the tightest thresholds found with achieved
      alpha <= alpha and achieved beta <= beta (never over target), however
      far below the targets the lattice forces them.
    """
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise SeqOptError("targets must be in (0, 1)")
    a = min(max(math.log((1 - beta) / alpha), 1e-6), threshold_limit)
    b = max(min(math.log(beta / (1 - alpha)), -1e-6), -threshold_limit)
    spec = SprtSpec(a, b, hypotheses, cap)
    _check_sprt_inputs(p, spec)
    # Every threshold probe evaluates p on the count engine: hold its layer.
    layer = density_layer(p, "counts")
    achieved = (math.inf, math.inf)
    for _ in range(max_sweeps):
        def alpha_of(av: float) -> float:
            return sprt_operating_characteristics(p, replace(spec, a_upper=av)).alpha

        a, alpha_hat = _bisect_threshold(alpha_of, 1e-6, threshold_limit, alpha)
        spec = replace(spec, a_upper=a)

        def beta_of(bv: float) -> float:
            # bv is the magnitude of the lower threshold.
            return sprt_operating_characteristics(p, replace(spec, b_lower=-bv)).beta

        b_mag, beta_hat = _bisect_threshold(beta_of, 1e-6, threshold_limit, beta)
        spec = replace(spec, b_lower=-b_mag)
        oc = sprt_operating_characteristics(p, spec)
        achieved = (oc.alpha, oc.beta)
        if conservative:
            if achieved[0] <= alpha and achieved[1] <= beta:
                return spec
        elif abs(achieved[0] - alpha) <= tol and abs(achieved[1] - beta) <= tol:
            return spec
    if conservative and achieved[0] <= alpha and achieved[1] <= beta:
        return spec
    raise UnreachableTargetsError(
        f"no thresholds reach alpha={alpha}, beta={beta} within tol={tol} at cap={cap}; "
        f"best achieved {achieved}",
        best=spec,
        achieved=achieved,
    )


def continuation_is_interval(
    p: Problem, rule: StoppingRule, hypotheses: tuple[int, int] = (0, 1)
) -> bool:
    """Whether each stage's continuation region is an interval in log-LR.

    Checks reachable states only; a state continues when its stop probability
    is below 1. States with log-LR nan (density zero under both hypotheses)
    are ignored.
    """
    space = density_layer(p, rule.engine).space
    masks = reachable_sets(rule, space)
    for n in range(1, rule.horizon):
        llr = llr_by_state(p, space, n, hypotheses)
        usable = masks[n - 1] & ~np.isnan(llr)
        if not usable.any():
            continue
        order = np.argsort(llr[usable], kind="stable")
        cont = (rule.at(n) < 1.0)[usable][order]
        idx = np.flatnonzero(cont)
        if len(idx) and not np.all(np.diff(idx) == 1):
            return False
    return True
