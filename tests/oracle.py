"""Slow, independent reference implementations used only by the tests.

Everything here works on plain Python lists, tuples, and floats, one history
at a time, with no shared code or arrays from the package under test. The
point is an arithmetic path different enough that agreement is evidence, not
tautology. Conventions match the package where a convention is needed:
decisions break ties toward the lowest index, observations and parameters are
0-based indices, histories are tuples of symbols. The two mask walks at the
end are the exception: see the note above them.
"""

from itertools import product


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


# The two enumerations below count through all 2^H stop/continue assignments
# over the H interior histories of the raw tree, one mask at a time. They read
# the package's stage tables (checked against the references above elsewhere)
# but share no enumeration code with the frontier walk they referee.


def mask_walk_brute_force(p, horizon, rule_budget=2**20):
    """brute_force_optimum as a walk of every mask; returns a BruteForceResult."""
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
        n: p.cost.c * n * table.stage(n).f_pi2 + table.stage(n).stop_loss
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
    return so.BruteForceResult(min_risk, rules, 2**h_count, len(best), sorted(best.values()))


def mask_walk_conditional_optimality(
    p, result, horizon, rule_budget=2**20, n_tol=1e-9, w_tol=1e-12
):
    """verify_conditional_optimality as a walk of every mask; returns an OptimalityCheck."""
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
        st = table.stage(n)
        n_node[n] = n * st.f_pi2
        picked = p.loss.w.T[decision.at(n)]
        per_theta = picked * st.f_theta * p.priors.pi1[None, :]
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
    return so.OptimalityCheck(
        n_rules=len(seen),
        n_star=result.n_psi,
        achieved=result.achieved.copy(),
        violations=violations,
        strict_violations=strict,
    )
