"""Slow, independent reference implementations used only by the tests.

Everything here works on plain Python lists, tuples, and floats, one history
at a time, with no shared code or arrays from the package under test. The
point is an arithmetic path different enough that agreement is evidence, not
tautology. Conventions match the package where a convention is needed:
decisions break ties toward the lowest index, observations and parameters are
0-based indices, histories are tuples of symbols. The frontier and mask
walks, the forward pass and the CSV writers at the end are the exception: see
the notes above them.
"""

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, product
from math import prod

import numpy as np

from seqopt import BudgetExceededError, HistoryTable, MultiplierSearchResult, Problem, StoppingRule
from seqopt.histories import StateSpace


def tree_history(k, n, idx):
    """The stage-n history with tree index idx: its n base-k digits, first symbol first."""
    digits = []
    for _ in range(n):
        idx, x = divmod(idx, k)
        digits.append(x)
    return tuple(reversed(digits))


def tree_index(k, hist):
    """The tree index of a history: its symbols read as base-k digits, first symbol first."""
    idx = 0
    for x in hist:
        idx = idx * k + x
    return idx


def joint_prob(pmf, theta, hist):
    out = 1.0
    for x in hist:
        out *= pmf[theta][x]
    return out


def stage_loss(pmf, pi1, w, hist):
    """Minimal stage loss at a history and the minimizing decision index."""
    m = len(pmf)
    n_dec = len(w[0])
    best_d, best = 0, None
    for d in range(n_dec):
        cost = sum(w[t][d] * joint_prob(pmf, t, hist) * pi1[t] for t in range(m))
        if best is None or cost < best:
            best, best_d = cost, d
    return best, best_d


def mixture(pmf, prior, hist):
    return sum(prior[t] * joint_prob(pmf, t, hist) for t in range(len(pmf)))


def backward_values(pmf, pi1, pi2, w, c, horizon):
    """Value and continuation-value tables for every history, by recursion.

    Returns (v, q) where v maps each history of length 0..horizon to its
    value and q maps lengths 0..horizon-1 to the value of continuing.
    """
    k = len(pmf[0])
    v = {}
    q = {}
    for hist in product(range(k), repeat=horizon):
        v[hist] = stage_loss(pmf, pi1, w, hist)[0]
    for n in range(horizon - 1, -1, -1):
        for hist in product(range(k), repeat=n):
            cont = c * mixture(pmf, pi2, hist) + sum(
                v[hist + (x,)] for x in range(k)
            )
            q[hist] = cont
            v[hist] = min(stage_loss(pmf, pi1, w, hist)[0], cont)
    return v, q


def rule_risk(pmf, pi1, pi2, w, c, stop_prob, horizon, decision=None):
    """Exact risk of a stopping rule given as {history: stop probability}.

    Histories of length `horizon` stop regardless of their entry. `decision`
    maps histories to decision indices; default is the stagewise minimizer.
    Returns a dict with per-parameter expected sample sizes, the average
    sample size, total terminal loss, and combined risk.
    """
    m = len(pmf)
    k = len(pmf[0])

    # per-theta sample sizes need theta-conditional reach, so run per theta
    n_theta = [0.0] * m
    for t in range(m):

        def walk_t(hist, reach_t):
            n = len(hist)
            psi = 1.0 if n == horizon else float(stop_prob.get(hist, 0.0))
            if psi > 0.0:
                n_theta[t] += n * reach_t * psi
            if n < horizon and psi < 1.0:
                for x in range(k):
                    walk_t(hist + (x,), reach_t * (1.0 - psi) * pmf[t][x])

        walk_t((), 1.0)
    w_total = 0.0

    def walk_w(hist, reach_per_theta):
        n = len(hist)
        psi = 1.0 if n == horizon else float(stop_prob.get(hist, 0.0))
        if psi > 0.0:
            if decision is None:
                d = stage_loss(pmf, pi1, w, hist)[1]
            else:
                d = decision[hist]
            nonlocal w_total
            for t in range(m):
                w_total += reach_per_theta[t] * psi * w[t][d] * pi1[t]
        if n < horizon and psi < 1.0:
            for x in range(k):
                walk_w(
                    hist + (x,),
                    [reach_per_theta[t] * (1.0 - psi) * pmf[t][x] for t in range(m)],
                )

    walk_w((), [1.0] * m)
    n_avg = sum(pi2[t] * n_theta[t] for t in range(m))
    return {
        "n_theta": n_theta,
        "n_avg": n_avg,
        "w_total": w_total,
        "risk": c * n_avg + w_total,
    }


def best_truncated_risk(pmf, pi1, pi2, w, c, horizon):
    """Minimal risk over every deterministic truncated rule, by enumeration.

    Enumerates stop/continue choices over all interior histories and returns
    the smallest combined risk. Exponential; keep horizon tiny.
    """
    k = len(pmf[0])
    interior = [
        hist
        for n in range(1, horizon)
        for hist in product(range(k), repeat=n)
    ]
    best = None
    for bits in product((0.0, 1.0), repeat=len(interior)):
        stop_prob = dict(zip(interior, bits))
        risk = rule_risk(pmf, pi1, pi2, w, c, stop_prob, horizon)["risk"]
        if best is None or risk < best:
            best = risk
    return best


# The exact referee below redoes backward induction and rule evaluation in
# rational arithmetic (Fraction inputs give Fraction results), on count states
# of an iid model: the count tuples of n observations, in sorted order, which
# is the counts engine's index order. No comparison in it needs a tolerance.


def _bump(counts, x):
    return counts[:x] + (counts[x] + 1,) + counts[x + 1 :]


def exact_count_stages(k, horizon):
    """Stages 0..horizon of count tuples, each stage sorted."""
    stages = [[(0,) * k]]
    for _ in range(horizon):
        stages.append(sorted({_bump(s, x) for s in stages[-1] for x in range(k)}))
    return stages


def exact_stage_terms(pmf, pi1, pi2, w, horizon):
    """(stages, stop_loss, f_pi2): count stages 0..horizon and, per count tuple,
    its per-history stop loss and pi2-mixture density."""
    m, k = len(pmf), len(pmf[0])
    stages = exact_count_stages(k, horizon)
    powers = [[[p**j for j in range(horizon + 1)] for p in row] for row in pmf]
    stop_loss, f_pi2 = {}, {}
    for states in stages:
        for s in states:
            f = [prod(powers[t][x][s[x]] for x in range(k)) for t in range(m)]
            stop_loss[s] = min(
                sum(w[t][d] * pi1[t] * f[t] for t in range(m)) for d in range(len(w[0]))
            )
            f_pi2[s] = sum(pi2[t] * f[t] for t in range(m))
    return stages, stop_loss, f_pi2


def exact_backward(terms, c):
    """Exact continuation values of every count tuple below the horizon.

    terms is exact_stage_terms' result; the optimum q0 is cont[(0,) * k].
    """
    stages, stop_loss, f_pi2 = terms
    k = len(stages[0][0])
    value = {s: stop_loss[s] for s in stages[-1]}
    cont = {}
    for n in range(len(stages) - 2, -1, -1):
        for s in stages[n]:
            cont[s] = c * f_pi2[s] + sum(value[_bump(s, x)] for x in range(k))
            value[s] = min(stop_loss[s], cont[s])
    return cont


def exact_rule_risk(terms, c, stop_probs):
    """Exact combined risk of a count-state rule truncated at the terms' horizon.

    stop_probs[n - 1] lists stage n's stop probabilities in sorted tuple
    order; stage 0 always observes. alive[s] sums, over the histories with
    counts s, the probability that the rule has not stopped before them, so
    each stage adds alive * stop * (stop loss + c * n * f_pi2). A forward
    pass, where exact_backward is a backward one.
    """
    stages, stop_loss, f_pi2 = terms
    k = len(stages[0][0])
    alive = {stages[0][0]: 1}
    risk = 0
    for n, probs in enumerate(stop_probs, start=1):
        arriving = dict.fromkeys(stages[n], 0)
        for s, a in alive.items():
            for x in range(k):
                arriving[_bump(s, x)] += a
        alive = {}
        for s, q in zip(stages[n], probs):
            risk += arriving[s] * q * (stop_loss[s] + c * n * f_pi2[s])
            alive[s] = arriving[s] * (1 - q)
    return risk


# The two walks below are the package's brute-force referees: every
# deterministic rule truncated at a horizon, walked once per distinct stopping
# frontier of the raw tree. They cost 2^H at H interior histories, so they run
# at toy horizons only. They read the package's stage tables and share no code
# with the backward induction and the multiplier search they referee.

_N_TOL = 1e-9  # verify_conditional_optimality: a sample size this much smaller beats the match
_W_TOL = 1e-12  # verify_conditional_optimality: group losses this far above still count as met


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
        f_pi2 = space.densities(n) @ p.priors.pi2
        return (p.cost.c * n * f_pi2 + table.stage(n).stop_loss).tolist()

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
        f_theta = table.space.densities(n)
        per_theta = p.loss.w.T[weighted.stage(n).decision] * f_theta * p.priors.pi1[None, :]
        groups = [per_theta[:, list(group)].sum(axis=1) for group in p.constraints.groups]
        return np.column_stack([n * (f_theta @ p.priors.pi2)] + groups)  # (S, 1 + g)

    violations: list[dict] = []
    strict: list[dict] = []
    frontiers = stopping_frontiers(table.space, horizon, node, rule_budget)
    for n_rules, (frontier, totals) in enumerate(frontiers, 1):
        n_rule, w_rule = float(totals[0]), totals[1:]
        if np.all(w_rule <= result.achieved + _W_TOL):
            entry = {"frontier": sorted(frontier), "n_psi": n_rule, "w_groups": w_rule.tolist()}
            if n_rule < result.n_psi - _N_TOL:
                violations.append(entry)
            elif np.any(w_rule < result.achieved - 1e-9) and n_rule <= result.n_psi + _W_TOL:
                strict.append(entry)
    return OptimalityCheck(
        n_rules=n_rules,
        n_star=result.n_psi,
        achieved=result.achieved.copy(),
        violations=violations,
        strict_violations=strict,
    )


# The two enumerations below count through all 2^H stop/continue assignments
# over the H interior histories of the raw tree, one mask at a time. They read
# the package's stage tables (checked against the references above elsewhere)
# but share no enumeration code with the frontier walks they referee.


def mask_walk_brute_force(p, horizon, rule_budget=2**20):
    """brute_force_optimum as a walk of every mask."""
    import numpy as np

    import seqopt as so

    table = so.HistoryTable(p, engine="tree")
    space = table.space
    k = space.k
    interior = [(n, s) for n in range(1, horizon) for s in range(space.n_states(n))]
    h_count = len(interior)
    if 2**h_count > rule_budget:
        raise so.BudgetExceededError(
            f"2^{h_count} truncated rules exceed the budget of {rule_budget}"
        )
    bit_of = {ns: i for i, ns in enumerate(interior)}
    stop_value = {
        n: p.cost.c * n * (space.densities(n) @ p.priors.pi2) + table.stage(n).stop_loss
        for n in range(1, horizon + 1)
    }

    best = {}
    min_risk = float("inf")
    for mask in range(2**h_count):
        frontier = []

        def walk(n, s):
            if n == horizon or (mask >> bit_of[(n, s)]) & 1:
                frontier.append((n, s))
                return float(stop_value[n][s])
            return sum(walk(n + 1, s * k + x) for x in range(k))

        risk = sum(walk(1, s) for s in range(k))
        key = frozenset(frontier)
        if key not in best:
            best[key] = risk
        if risk < min_risk:
            min_risk = risk

    argmin_keys = [key for key, risk in best.items() if risk <= min_risk + 1e-15]
    rules = []
    for key in argmin_keys:
        probs = [np.zeros(space.n_states(n)) for n in range(1, horizon + 1)]
        for n, s in key:
            probs[n - 1][s] = 1.0
        probs[horizon - 1][:] = 1.0
        rules.append(so.StoppingRule("tree", probs, truncated=True))
    return BruteForceResult(min_risk, rules, 2**h_count, len(best), sorted(best.values()))


def mask_walk_conditional_optimality(
    p, result, horizon, rule_budget=2**20, n_tol=1e-9, w_tol=1e-12
):
    """verify_conditional_optimality as a walk of every mask."""
    import numpy as np

    import seqopt as so

    table = so.HistoryTable(p, engine="tree")
    space = table.space
    k = space.k
    interior = [(n, s) for n in range(1, horizon) for s in range(space.n_states(n))]
    if 2 ** len(interior) > rule_budget:
        raise so.BudgetExceededError(
            f"2^{len(interior)} rules exceed the budget of {rule_budget}"
        )
    bit_of = {ns: i for i, ns in enumerate(interior)}
    decision = so.DecisionStrategy.bayes(so.HistoryTable(result.weighted, engine="tree"), horizon)
    g_count = len(p.constraints.groups)
    n_node = {}
    w_node = {}
    for n in range(1, horizon + 1):
        f_theta = table.space.densities(n)
        n_node[n] = n * (f_theta @ p.priors.pi2)
        picked = p.loss.w.T[decision.at(n)]
        per_theta = picked * f_theta * p.priors.pi1[None, :]
        w_node[n] = np.stack(
            [per_theta[:, list(group)].sum(axis=1) for group in p.constraints.groups], axis=1
        )

    seen = set()
    violations = []
    strict = []
    for mask in range(2 ** len(interior)):
        frontier = []

        def walk(n, s):
            if n == horizon or (mask >> bit_of[(n, s)]) & 1:
                frontier.append((n, s))
                out = np.empty(1 + g_count)
                out[0] = n_node[n][s]
                out[1:] = w_node[n][s]
                return out
            return sum(walk(n + 1, s * k + x) for x in range(k))

        totals = sum(walk(1, s) for s in range(k))
        key = frozenset(frontier)
        if key in seen:
            continue
        seen.add(key)
        n_rule = float(totals[0])
        w_rule = totals[1:]
        if np.all(w_rule <= result.achieved + w_tol):
            entry = {"frontier": sorted(key), "n_psi": n_rule, "w_groups": w_rule.tolist()}
            if n_rule < result.n_psi - n_tol:
                violations.append(entry)
            elif np.any(w_rule < result.achieved - 1e-9) and n_rule <= result.n_psi + w_tol:
                strict.append(entry)
    return OptimalityCheck(
        n_rules=len(seen),
        n_star=result.n_psi,
        achieved=result.achieved.copy(),
        violations=violations,
        strict_violations=strict,
    )


# The forward pass below is the one `risk_evaluation` ran before it became one
# bincount push per parameter and one stopped-mass product per stage: a
# scatter-add per symbol, and per stage one boolean mask per decision or a
# separate product for randomized decisions. It reads the package's state
# spaces, their densities and the report type, and shares no pass code with it.


def scatter_push(space, n, values, weighted=True):
    """push_forward as a scatter-add per symbol, symbols in ascending order."""
    import numpy as np

    children = space.children(n)
    out = np.zeros((space.n_states(n + 1),) + values.shape[1:], dtype=values.dtype)
    if not weighted:
        edges = None
    elif space.problem.obs.kind == "iid":
        edges = space.problem.obs.iid_pmf.T  # edges[x]: (m,) pmf of symbol x
    else:
        edges = np.moveaxis(space.step_probs(n), 2, 0)  # edges[x]: (S_n, m)
    for x in range(space.k):
        # children[:, x] repeats no index, so the buffered += drops no term.
        out[children[:, x]] += values if edges is None else values * edges[x]
    return out


def reference_forward(p, rule, decision=None, multipliers=None):
    """risk_evaluation._forward as the mask loop; returns (RiskReport, arriving mass)."""
    import math

    import numpy as np

    import seqopt as so
    from seqopt.risk_evaluation import _hypothesis_indices
    from seqopt.tolerances import PRUNE_EPS, STOP_MASS_ATOL

    space = so.state_space(p, rule.engine)
    horizon = rule.horizon
    if decision is None:
        decision = so.DecisionStrategy.bayes(so.HistoryTable(p, rule.engine), horizon)

    m = p.n_params
    d_count = p.n_decisions
    w = p.loss.w
    stop_dist = np.zeros((horizon, m))
    loss_theta = np.zeros(m)
    decision_probs = np.zeros((m, d_count))
    mass = space.densities(1).copy()
    leftover = np.zeros(m)
    for n in range(1, horizon + 1):
        probs = rule.at(n)
        stopped = mass * probs[:, None]
        stop_dist[n - 1] = stopped.sum(axis=0)
        if decision.probs is None:
            dec = decision.at(n)
            picked = w.T[dec]  # (S, m): loss of the chosen decision per parameter
            loss_theta += (stopped * picked).sum(axis=0)
            for dd in range(d_count):
                sel = dec == dd
                if sel.any():
                    decision_probs[:, dd] += stopped[sel].sum(axis=0)
        else:
            q = decision.probs[n - 1]  # (S, D) decision probabilities
            loss_theta += (stopped * (q @ w.T)).sum(axis=0)
            decision_probs += stopped.T @ q
        if n < horizon:
            mass = scatter_push(space, n, mass * (1.0 - probs)[:, None])
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

    report = so.RiskReport(
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


# The CSV writers below are the ones `ValueTables.to_csv` and `StoppingRule.to_csv`
# ran before each stage became one block of text: csv.writer, one row and one
# label at a time. They read the package's arrays and state spaces, and spell
# each label out themselves.


def reference_label(space, n, i):
    """Stage-n state i's label: tree symbols joined by ",", count rows by "|"."""
    if space.engine == "tree":
        return ",".join(map(str, tree_history(space.k, n, i)))
    return "|".join(map(str, space.states(n)[i].tolist()))


def reference_values_csv(tables) -> str:
    """ValueTables.to_csv as it was written, one row and one label at a time."""
    import csv
    import io

    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(["stage", "state", "stop_loss", "continue_value", "value"])
    space = tables.table.space
    for n in range(tables.horizon + 1):
        st = tables.table.stage(n)
        for i in range(len(st.stop_loss)):
            cont = "" if n == tables.horizon else repr(float(tables.cont[n][i]))
            writer.writerow(
                [n, reference_label(space, n, i), repr(float(st.stop_loss[i])), cont,
                 repr(float(tables.value[n][i]))]
            )
    return fh.getvalue()


def reference_rule_csv(rule, space, decision_probs=None) -> str:
    """StoppingRule.to_csv as it was written, one row and one label at a time.

    decision_probs is, per stage, the (S, D) array of the strategy to_csv is given.
    """
    import csv
    import io

    fh = io.StringIO()
    writer = csv.writer(fh)
    d_count = 0 if decision_probs is None else decision_probs[0].shape[1]
    writer.writerow(
        ["engine", "stage", "state", "stop_prob"] + [f"decision_prob_{d}" for d in range(d_count)]
    )
    for n in range(1, rule.horizon + 1):
        arr = rule.at(n)
        for i in range(len(arr)):
            extra = [repr(float(decision_probs[n - 1][i, d])) for d in range(d_count)]
            writer.writerow(
                [rule.engine, n, reference_label(space, n, i), repr(float(arr[i]))] + extra
            )
    return fh.getvalue()
