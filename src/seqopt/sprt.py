"""Sequential probability ratio test baseline with exact operating characteristics.

The test tracks the log likelihood ratio of hypothesis pair (i, j) and stops
as soon as it leaves the open interval (b_lower, a_upper), deciding j iff the
ratio is at or above a_upper. On an iid finite alphabet the ratio is a linear
function of the symbol counts, so the count-vector state space enumerates
every reachable ratio value exactly and the operating characteristics come out
of one pass of the exact forward evaluator over the capped rule, no
approximation beyond the reported cap tail. The test reads the ratio by
level: log-LRs no further apart than the rounding bound of their float
sums are one level, with one value, so a threshold inside a level's rounding
range decides the whole level one way. The same enumeration makes the
operating characteristics step functions of the thresholds, so threshold
matching computes them once per step however many probes land on it, and
returns thresholds clear of the rounding ranges of the levels next to them.
It computes them in stacked forward passes (see risk_evaluation): where the
cap stage is small, a probe whose capped rule is new computes with it the
rules the bisection's next few halvings may probe, still once per rule.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .bayes_decision import decision_dtype
from .errors import SeqOptError, UnreachableTargetsError
from .histories import CountStateSpace, check_state_budget, state_space
from .model import Problem
from .risk_evaluation import RiskReport, _one_hot_stages, _walk
from .stopping_policy import DecisionStrategy, StoppingRule, reachable_sets

log = logging.getLogger(__name__)

_MATCH_TOL = 1e-4  # match_sprt_errors: |achieved - target| allowed per error
_THRESHOLD_LIMIT = 60.0  # match_sprt_errors: largest threshold magnitude searched
_PREFETCH_LEVELS = 3  # match_sprt_errors: halving levels one stacked pass computes
_PREFETCH_MAX_CELLS = 1500  # match_sprt_errors: most cap-stage states x parameters to stack


class _LlrTable(NamedTuple):
    """The log-LR levels of stages 1..cap: all a ratio test reads (see _llr_table)."""

    llr: np.ndarray  # every state's level, the stages concatenated
    stages: list[slice]  # each stage's slice of llr
    levels: np.ndarray  # the sorted finite levels, each its smallest copy
    tops: np.ndarray  # each level's largest copy
    bound: float  # the merge bound; neighbouring levels' copies lie further apart


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


def _check_count(name: str, value) -> None:
    """Raise SeqOptError unless value is an integer >= 1; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise SeqOptError(f"{name} must be an integer >= 1, got {value!r}")


def _check_sprt_inputs(p: Problem, spec: SprtSpec) -> CountStateSpace:
    """Raise on a bad model, spec or cap; else the count space, its cap within budget."""
    if p.obs.kind != "iid":
        raise SeqOptError("the ratio test needs an iid model")
    _check_count("cap", spec.cap)
    if not spec.b_lower < spec.a_upper:
        raise SeqOptError(
            f"need b_lower < a_upper, got ({spec.b_lower}, {spec.a_upper})"
        )
    i, j = spec.hypotheses
    if i == j or not (0 <= i < p.n_params and 0 <= j < p.n_params):
        raise SeqOptError(f"bad hypothesis pair {spec.hypotheses}")
    if p.n_decisions != 2:
        raise SeqOptError("ratio-test decisions need a two-decision loss")
    space = state_space(p, "counts")
    check_state_budget(space, spec.cap)
    return space


def llr_increments(p: Problem, hypotheses: tuple[int, int] = (0, 1)) -> np.ndarray:
    """Per-symbol log likelihood-ratio increments log pmf[j]/pmf[i]; nan where both are 0."""
    i, j = hypotheses
    pmf = p.obs.iid_pmf
    with np.errstate(divide="ignore"):  # log 0 = -inf, and -inf - nan is nan, quietly
        return np.log(pmf[j]) - np.log(np.where(pmf[i] + pmf[j] > 0, pmf[i], np.nan))


def llr_by_state(
    p: Problem, space, n: int, hypotheses: tuple[int, int] = (0, 1)
) -> np.ndarray:
    """Log-LR of every stage-n state; nan where both hypotheses have density 0."""
    return _llr_of_counts(space.states(n), llr_increments(p, hypotheses))


def _llr_of_counts(counts: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """llr_by_state of count vectors (S, K), given the increments of llr_increments."""
    counts = np.asarray(counts, dtype=float)
    terms = np.multiply(counts, inc, out=np.zeros(counts.shape), where=counts > 0)
    if np.isposinf(inc).any() and np.isneginf(inc).any():  # inf - inf: both densities 0
        terms[np.isposinf(terms).any(axis=1) & np.isneginf(terms).any(axis=1)] = np.nan
    return terms.sum(axis=1)


def sprt_rule(p: Problem, spec: SprtSpec) -> tuple[StoppingRule, DecisionStrategy]:
    """The ratio test as a (rule, decision strategy) pair on count states.

    Stage `cap` keeps the threshold stop probabilities (the rule is not
    truncated); cap it with truncate_rule for exact capped evaluation.
    """
    table = _llr_table(p, _check_sprt_inputs(p, spec), spec)
    return _views(*_stop_and_decide([spec], table), table, truncated=False)[0]


def _llr_table(p: Problem, space: CountStateSpace, spec: SprtSpec) -> _LlrTable:
    """llr_by_state of stages 1..cap, one value per level, in one array.

    The float sum of c_x * inc_x can give one likelihood ratio several copies
    a few ulps apart, so sorted finite values no further apart than that
    sum's rounding bound merge into one level, which takes its smallest copy.
    A state of stage n <= cap is off its exact sum by at most
    gamma_K * cap * max|inc_x| over the finite increments (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, ch. 3-4), so two copies
    differ by at most about K * eps * cap * max|inc_x|; twice that is the
    merge bound. Infinite and nan log-LRs are kept as they are.
    """
    inc = llr_increments(p, spec.hypotheses)
    llrs = [_llr_of_counts(space.states(n), inc) for n in range(1, spec.cap + 1)]
    ends = np.cumsum([len(a) for a in llrs]).tolist()
    llr = np.concatenate(llrs)
    scale = np.abs(inc[np.isfinite(inc)]).max(initial=0.0)
    bound = float(2 * len(inc) * np.finfo(float).eps * spec.cap * scale)
    copies = np.sort(llr)  # -inf first, then the finite values, +inf and nan
    copies = copies[np.searchsorted(copies, -np.inf, "right"):np.searchsorted(copies, np.inf)]
    near = np.diff(copies) <= bound
    levels = tops = copies
    if near.any():  # group the values into levels, each from its smallest to largest copy
        starts = np.flatnonzero(np.r_[True, ~near])
        levels, tops = copies[starts], copies[np.r_[starts[1:], len(copies)] - 1]
        if np.any(levels != tops):  # some level has several values: each takes its smallest
            finite = np.isfinite(llr)
            values = llr[finite]
            values[np.argsort(values)] = np.repeat(levels, np.diff(starts, append=len(copies)))
            llr[finite] = values
    stages = [slice(a, b) for a, b in zip([0] + ends, ends)]
    return _LlrTable(llr, stages, levels, tops, bound)


def _stop_and_decide(specs: list[SprtSpec], table: _LlrTable) -> tuple[np.ndarray, np.ndarray]:
    """The specs' ratio tests over every stage of a log-LR table from
    _llr_table: (R, states) stop probabilities and decisions, a row per spec."""
    llr = table.llr
    a = np.array([[s.a_upper] for s in specs])
    b = np.array([[s.b_lower] for s in specs])
    stop = np.where((llr > b) & (llr < a), 0.0, 1.0)
    decide = (llr >= 0.5 * (a + b)).astype(decision_dtype(2))
    return stop, decide


def _capped(specs: list[SprtSpec], table: _LlrTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_stop_and_decide with each rule capped at the table's last stage, and
    per spec that stage's continuation (1 where the uncapped rule continues)."""
    stop, decide = _stop_and_decide(specs, table)
    last = table.stages[-1]
    go_on = 1.0 - stop[:, last]
    stop[:, last] = 1.0
    return stop, decide, go_on


def _views(
    stop: np.ndarray, decide: np.ndarray, table: _LlrTable, truncated: bool
) -> list[tuple[StoppingRule, DecisionStrategy]]:
    """Per row of stop and decide, the rule and strategy that hold its stages as views."""
    return [
        (StoppingRule("counts", [row[s] for s in table.stages], truncated=truncated),
         DecisionStrategy([dec[s] for s in table.stages], d_count=2))
        for row, dec in zip(stop, decide)
    ]


@dataclass(eq=False)
class SprtOC:
    """Exact operating characteristics of a capped ratio test.

    `rule` and `decision` are the capped test they were evaluated from, so
    evaluate(p, rule, decision) gives `report`. `stats` describes the
    computation, not its result: "rule_s" (seconds building the capped rule
    and decisions from the log-LR table), "forward_s" (seconds in its forward
    pass), "stages" and "states" (walked by that pass), all of a stacked pass
    where several rules shared one. It stays out of to_dict, so written
    outputs are reproducible.
    """

    spec: SprtSpec
    alpha: float
    beta: float
    e_tau: np.ndarray  # per parameter, cap stops included
    tail_theta: np.ndarray  # per-parameter mass force-stopped by the cap
    report: RiskReport
    rule: StoppingRule
    decision: DecisionStrategy
    stats: dict = field(default_factory=dict, repr=False)

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
    """Exact OCs from one forward pass of the rule capped at spec.cap.

    The cap force-stops the mass that reaches stage cap inside the thresholds;
    its sum per parameter is tail_theta.
    """
    space = _check_sprt_inputs(p, spec)  # held so the calls below share it
    table = _llr_table(p, space, spec)
    return _with_rule(_oc(p, [spec], table)[0], table)


def _oc(p: Problem, specs: list[SprtSpec], table: _LlrTable) -> list[SprtOC]:
    """sprt_operating_characteristics of each spec over a log-LR table from
    _llr_table, in one stacked forward pass, but without their capped rules
    and decisions (None; _with_rule adds them). The OCs share the pass's
    rule_s and forward_s.

    The stages are slices of the stacked stop and decision arrays, made to
    fit the count space, so the pass reads them as they are.
    """
    start = time.perf_counter()
    stop, decide, go_on = _capped(specs, table)
    built = time.perf_counter()
    if len(specs) == 1:  # a single rule's pass runs without the rule axis
        stop, decide = stop[0], decide[0]
    stops = [stop[..., s] for s in table.stages]
    decided = [decide[..., s] for s in table.stages]
    passes = _walk(p, state_space(p, "counts"), stops, _one_hot_stages(decided, 2))
    forward_s = time.perf_counter() - built
    log.debug("stacked forward pass of %d capped rules", len(specs))
    out = []
    for spec, (report, arrived), cont in zip(specs, passes, go_on):
        stats = {"rule_s": built - start, "forward_s": forward_s,
                 "stages": report.stats["stages"], "states": report.stats["states"]}
        tail = (arrived * cont[:, None]).sum(axis=0)
        i, j = spec.hypotheses
        alpha = float(report.decision_probs[i, 1])
        beta = float(report.decision_probs[j, 0])
        out.append(SprtOC(spec, alpha, beta, report.n_theta.copy(), tail, report, None, None,
                          stats))
    return out


def _with_rule(oc: SprtOC, table: _LlrTable) -> SprtOC:
    """oc with the capped rule and decisions of its spec."""
    [(rule, decision)] = _views(*_capped([oc.spec], table)[:2], table, truncated=True)
    return replace(oc, rule=rule, decision=decision)


def _clear_gap(levels: np.ndarray, tops: np.ndarray, k: int, half: float) -> tuple[float, float]:
    """The part of the gap between levels k - 1 and k at least `half` from each
    of the two that has several copies; `tops` holds each level's largest copy.

    A cut there puts every copy of such a level, and with half = bound / 2
    its exact log-LR (within a quarter bound of each copy), on one side.
    Neighbouring levels' copies lie more than a bound apart, so the part is
    never empty. A level of one copy bounds it at that copy: llr_by_state
    gives the level one value, on one side of any cut short of it.
    """
    lo, hi = -math.inf, math.inf
    if k > 0:
        lo = float(tops[k - 1]) + half if tops[k - 1] > levels[k - 1] else float(levels[k - 1])
    if k < len(levels):
        hi = float(levels[k]) - half if tops[k] > levels[k] else float(levels[k])
    return lo, hi


def _clear_midpoint(
    a: float,
    b: float,
    a_gap: tuple[float, float],
    b_gap: tuple[float, float],
    levels: np.ndarray,
    tops: np.ndarray,
    k: int,
    half: float,
) -> tuple[float, float]:
    """Thresholds a and b moved within their gaps' clear parts, a first, so
    that their midpoint lies in the clear part of gap k of `levels`, the cap
    stage's (_clear_gap).

    Where a and b leave no room to move it there, the midpoint goes into the
    clear part of the next gap on the side they hold it to, so it passes
    level k - 1 or k, and the cap states of that level decide the other way.

    A midpoint equal to a one-copy level k - 1 lies in gap k - 1 (the rule
    decides llr >= midpoint upward), so it is then raised by a float or two
    of the larger threshold, each of which moves a + b by at least half an
    ulp of the sum.
    """
    (a_lo, a_hi), (b_lo, b_hi) = a_gap, b_gap
    for _ in range(2):
        m_lo, m_hi = _clear_gap(levels, tops, k, half)
        if (short := 2 * m_lo - (a + b)) > 0:  # raise the midpoint
            if short > (a_hi - a) + (b_hi - b):
                k -= 1
                continue
            step = min(short, a_hi - a)
            a, b = a + step, min(b + (short - step), b_hi)
        elif (excess := a + b - 2 * m_hi) > 0:  # lower it
            if excess > (a - a_lo) + (b - b_lo):
                k += 1
                continue
            step = min(excess, a - a_lo)
            a, b = a - step, max(b - (excess - step), b_lo)
        break
    else:
        return a, b
    for _ in range(2):
        if k == 0 or 0.5 * (a + b) != levels[k - 1]:
            break
        if abs(a) >= abs(b) and a < a_hi:
            a = math.nextafter(a, math.inf)
        elif b < b_hi:
            b = math.nextafter(b, math.inf)
    return a, b


def _halvings(lo: float, hi: float, levels: int) -> list[float]:
    """The midpoints that the next `levels` steps of _bisect_threshold's
    halving of [lo, hi] may probe, level by level, each as it computes them."""
    spans, mids = [(lo, hi)], []
    for _ in range(levels):
        split = [(a, 0.5 * (a + b), b) for a, b in spans]
        mids += [mid for _, mid, _ in split]
        spans = [span for a, mid, b in split for span in ((a, mid), (mid, b))]
    return mids


def _bisect_threshold(error_of: Callable[[float, float, float], float], target: float) -> float:
    """Threshold magnitude from 60 halvings of [1e-6, _THRESHOLD_LIMIT].

    The smallest threshold found whose error is <= target, assuming the error
    is non-increasing; the limit when even its error exceeds the target.
    error_of(t, lo, hi) is the error at t, a probe of the bracket [lo, hi]:
    one of its ends on the first two probes, its midpoint on each halving. So
    an error_of that computes several errors in one pass can compute with
    t's those that the next halvings of [lo, hi] may probe (_halvings).
    """
    lo, hi = 1e-6, _THRESHOLD_LIMIT
    f_lo, f_hi = error_of(lo, lo, hi), error_of(hi, lo, hi)
    if f_hi > target:
        return hi
    if f_lo <= target:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if error_of(mid, lo, hi) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def match_sprt_errors(
    p: Problem,
    alpha: float,
    beta: float,
    cap: int = 200,
    hypotheses: tuple[int, int] = (0, 1),
    conservative: bool = False,
    max_sweeps: int = 8,
) -> SprtSpec:
    """Thresholds whose exact error probabilities match the targets.

    Alternates, for up to max_sweeps (an integer >= 1) rounds, one-dimensional
    searches on a_upper (driving alpha) and b_lower (driving beta), starting
    from the classical approximations a = log((1-beta)/alpha),
    b = log(beta/(1-alpha)). Each search bisects over the reals, halving
    [1e-6, _THRESHOLD_LIMIT] 60 times. On a finite alphabet the capped rule
    only changes where a threshold passes a log-LR level of some count state
    of stages 1..cap (the stopping sets), or where the thresholds' midpoint
    passes one of stage cap (the decisions of the states the cap
    force-stops), so each distinct capped rule's operating characteristics
    are computed once per match, however many probes land on it. Where the
    cap stage's states times parameters stay within _PREFETCH_MAX_CELLS, the
    first probe of a new rule computes, in one stacked forward pass, the new
    rules of the probes of the next _PREFETCH_LEVELS halvings too (and of
    the bracket's ends on a search's first probe); the bisection, its
    comparisons and so the result are those of one rule per pass. A level is
    a log-LR with its float copies merged within their rounding bound (see
    _llr_table), so a threshold inside a level's rounding range decides the
    whole level one way, and probes that differ only there are one rule. The
    thresholds of each sweep are then moved half a merge bound clear of the
    levels with several copies next to them, and their midpoint clear of
    such levels of stage cap and short of the one-copy ones, so
    llr_by_state's copies of such a level and its exact log-LR are stopped
    and decided one way by them too; models with no such level keep the
    bisection's thresholds bit for bit. Where the moved thresholds leave the
    midpoint no room in its gap, it passes one cap level, whose cap states
    then decide the other way. Each sweep is judged by the errors of its
    moved thresholds' own rule, and those are the returned spec's (or the
    error's best spec and achieved pair). The
    operating characteristics are step functions of the thresholds, so exact
    equality is generally unattainable:

    - conservative=False: require |achieved - target| <= _MATCH_TOL for both errors,
      else raise UnreachableTargetsError carrying the best spec found.
    - conservative=True: return the tightest thresholds found with achieved
      alpha <= alpha and achieved beta <= beta (never over target), however
      far below the targets the lattice forces them.
    """
    return _match(p, alpha, beta, cap, hypotheses, conservative, max_sweeps).spec


def _match(
    p: Problem,
    alpha: float,
    beta: float,
    cap: int = 200,
    hypotheses: tuple[int, int] = (0, 1),
    conservative: bool = False,
    max_sweeps: int = 8,
) -> SprtOC:
    """match_sprt_errors' spec with its operating characteristics, as the match
    computed them: each distinct capped rule's SprtOC is kept, so the caller
    needs no second log-LR table or forward pass. Its stats add the match's
    stacked forward "passes" and the distinct capped "rules" they computed."""
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise SeqOptError("targets must be in (0, 1)")
    _check_count("max_sweeps", max_sweeps)
    a = min(max(math.log((1 - beta) / alpha), 1e-6), _THRESHOLD_LIMIT)
    b = max(min(math.log(beta / (1 - alpha)), -1e-6), -_THRESHOLD_LIMIT)
    spec = SprtSpec(a, b, hypotheses, cap)
    # Every OC call evaluates p on the count engine: hold its space, or each
    # call rebuilds it.
    space = _check_sprt_inputs(p, spec)
    table = _llr_table(p, space, spec)
    levels = table.levels.tolist()
    cap_llr = table.llr[table.stages[-1]]
    on_cap = np.zeros(len(levels), dtype=bool)
    on_cap[np.searchsorted(table.levels, cap_llr[np.isfinite(cap_llr)])] = True
    cap_levels = table.levels[on_cap].tolist()
    half = 0.5 * table.bound

    def rule_key(s: SprtSpec) -> tuple[int, int, int]:
        # The capped rule depends on the thresholds only through which levels
        # stop at each threshold and which cap levels the midpoint puts on the
        # upper side (nan and infinite log-LRs stop and decide alike everywhere).
        return (bisect_left(levels, s.a_upper), bisect_right(levels, s.b_lower),
                bisect_left(cap_levels, 0.5 * (s.a_upper + s.b_lower)))

    # A stacked pass over small stages costs little more than one rule's pass,
    # so a probe whose rule is new computes with it those of the probes of the
    # next _PREFETCH_LEVELS halvings. Over large stages the stacked work
    # outgrows the saved per-stage overhead, and each rule is computed alone
    # when the bisection reaches it.
    small = space.n_states(cap) * p.n_params <= _PREFETCH_MAX_CELLS
    depth = _PREFETCH_LEVELS if small else 1
    memo: dict[tuple[int, int, int], SprtOC] = {}
    passes = 0

    def oc_of(s: SprtSpec, ahead: Callable[[], list[SprtSpec]] = list) -> SprtOC:
        # The OC of s's capped rule, computed once per rule, in one stacked
        # pass with the new rules of the specs ahead, and without the rule
        # (own adds the returned one's); its spec is the first the rule was
        # computed for.
        nonlocal passes
        key = rule_key(s)
        if key not in memo:
            new = {key: s}
            for t in ahead():
                new.setdefault(rule_key(t), t)
            new = {k: t for k, t in new.items() if k not in memo}
            memo.update(zip(new, _oc(p, list(new.values()), table)))
            passes += 1
        log.debug("a_upper=%r b_lower=%r errors=%r", s.a_upper, s.b_lower,
                  (memo[key].alpha, memo[key].beta))
        return memo[key]

    def search(at: Callable[[float], SprtSpec], error: str, target: float) -> float:
        # _bisect_threshold of at(t)'s error; a new rule's pass also computes
        # the rules of the next `depth` halvings of its bracket and, on a
        # search's first probe, of the bracket's ends.
        def error_of(t: float, lo: float, hi: float) -> float:
            def ahead() -> list[SprtSpec]:
                if depth == 1:
                    return []
                ends = [lo, hi] if t in (lo, hi) else []
                return [at(u) for u in ends + _halvings(lo, hi, depth)]

            return getattr(oc_of(at(t), ahead), error)

        return _bisect_threshold(error_of, target)

    def cleared(s: SprtSpec) -> SprtSpec:
        # s with each threshold moved into the clear part of its gap
        # (_clear_gap), then their midpoint into that of its cap gap or, past
        # one cap level, of the next (_clear_midpoint): a new rule then, whose
        # errors the caller reads. s itself where the thresholds would pass a
        # level or each other.
        ka, kb, km = rule_key(s)
        a_gap = _clear_gap(table.levels, table.tops, ka, half)
        b_gap = _clear_gap(table.levels, table.tops, kb, half)
        a, b = min(max(s.a_upper, a_gap[0]), a_gap[1]), min(max(s.b_lower, b_gap[0]), b_gap[1])
        a, b = _clear_midpoint(a, b, a_gap, b_gap, table.levels[on_cap], table.tops[on_cap],
                               km, half)
        out = replace(s, a_upper=a, b_lower=b)
        return out if out.b_lower < out.a_upper and rule_key(out)[:2] == (ka, kb) else s

    def own(oc: SprtOC, s: SprtSpec) -> SprtOC:
        # oc as s's own, with s's capped rule, which is the probe's, and its
        # decisions, which differ from the probe's only at states that
        # continue, so not in the report; and the match's passes and
        # distinct rules in its stats.
        stats = {**oc.stats, "passes": passes, "rules": len(memo)}
        return _with_rule(replace(oc, spec=s, stats=stats), table)

    # Each sweep's spec is judged by its cleared form, so the spec returned,
    # or carried by the error, has the errors of its own rule.
    best, achieved = spec, (math.inf, math.inf)
    for _ in range(max_sweeps):
        a = search(lambda t: SprtSpec(t, spec.b_lower, hypotheses, cap), "alpha", alpha)
        spec = replace(spec, a_upper=a)
        b = search(lambda t: SprtSpec(spec.a_upper, -t, hypotheses, cap), "beta", beta)
        spec = replace(spec, b_lower=-b)
        best = cleared(spec)
        oc = oc_of(best)
        achieved = (oc.alpha, oc.beta)
        if conservative:
            if achieved[0] <= alpha and achieved[1] <= beta:
                return own(oc, best)
        elif abs(achieved[0] - alpha) <= _MATCH_TOL and abs(achieved[1] - beta) <= _MATCH_TOL:
            return own(oc, best)
    raise UnreachableTargetsError(
        f"no thresholds reach alpha={alpha}, beta={beta} within tol={_MATCH_TOL} at cap={cap}; "
        f"best achieved {achieved}",
        best=best,
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
    space = state_space(p, rule.engine)
    masks = reachable_sets(rule, space)
    inc = llr_increments(p, hypotheses)
    for n in range(1, rule.horizon):
        llr = _llr_of_counts(space.states(n), inc)
        usable = masks[n - 1] & ~np.isnan(llr)
        if not usable.any():
            continue
        order = np.argsort(llr[usable], kind="stable")
        cont = (rule.at(n) < 1.0)[usable][order]
        idx = np.flatnonzero(cont)
        if len(idx) and not np.all(np.diff(idx) == 1):
            return False
    return True
