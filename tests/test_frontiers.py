"""The stopping-frontier walk of both oracles, and the one kernel-row walk.

oracle.py's `brute_force_optimum` and `verify_conditional_optimality` walk
the distinct stopping frontiers of the raw history tree; its mask walks count
through every stop/continue mask instead. Both must give the same numbers,
bit for bit, and the same rules.
"""

from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqopt as so
from seqopt.model import ObservationModel

import oracle
from oracle import mask_walk_brute_force, mask_walk_conditional_optimality


class MarkovKernel:
    """Order-1 Markov kernel that counts its calls per (theta, history)."""

    def __init__(self, init, trans):
        self.init, self.trans = init, trans
        self.calls = Counter()

    def __call__(self, theta, hist):
        self.calls[(theta, hist)] += 1
        return self.init[theta] if not hist else self.trans[theta][hist[-1]]


def _pmf(draw, k):
    # Small integer weights make equal rows, and so tied risks, common.
    weights = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    return [w / sum(weights) for w in weights]


@st.composite
def tree_problems(draw):
    """iid or order-1 Markov problems small enough for a walk of every mask."""
    k = draw(st.integers(2, 3), label="K")
    horizon = draw(st.integers(1, 4 if k == 2 else 3), label="horizon")
    m = draw(st.integers(2, 3), label="m")
    kind = draw(st.sampled_from(["iid", "markov"]), label="kind")
    if kind == "iid":
        obs = ObservationModel(k, iid_pmf=np.array([_pmf(draw, k) for _ in range(m)]))
    else:
        init = [_pmf(draw, k) for _ in range(m)]
        trans = [[_pmf(draw, k) for _ in range(k)] for _ in range(m)]
        obs = ObservationModel(k, "dependent", kernel=MarkovKernel(init, trans), horizon=horizon)
    pi1, pi2 = (np.array(_pmf(draw, m)) for _ in range(2))
    split = draw(st.booleans(), label="two_groups")
    groups = ((0,), tuple(range(1, m))) if split else (tuple(range(m)),)
    w = so.zero_one_loss(m) * np.array(_pmf(draw, m))[:, None] * m
    p = so.Problem(
        params=so.ParameterSpace(tuple(f"t{i}" for i in range(m))),
        obs=obs,
        loss=so.LossSpec(tuple(f"d{j}" for j in range(m)), w),
        priors=so.Priors(pi1, pi2),
        cost=so.CostSpec(draw(st.sampled_from([0.0, 0.005, 0.02, 0.05, 0.2]), label="c")),
        constraints=so.ConstraintSpec(groups, (0.1,) * len(groups)),
    )
    return so.validate_problem(p), horizon


def _rule_bytes(rule):
    return tuple(a.tobytes() for a in rule.stop_probs)


def _by_frontier(entry):
    return entry["frontier"]


@settings(max_examples=40, deadline=None)
@given(tree_problems())
def test_brute_force_matches_mask_walk(case):
    p, horizon = case
    got = oracle.brute_force_optimum(p, horizon)
    ref = mask_walk_brute_force(p, horizon)
    assert got.min_risk == ref.min_risk
    assert got.n_enumerated == ref.n_enumerated
    assert got.n_distinct == ref.n_distinct
    assert got.distinct_risks == ref.distinct_risks
    # The same argmin rules, stage arrays equal bit for bit; the order may differ.
    assert sorted(_rule_bytes(r) for r in got.rules) == sorted(_rule_bytes(r) for r in ref.rules)
    assert len(got.rules) == len(ref.rules)


@settings(max_examples=30, deadline=None)
@given(tree_problems(), st.data())
def test_conditional_optimality_matches_mask_walk(case, data):
    p, horizon = case
    space = so.HistoryTable(p, "tree").space
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="rule_seed"))
    probs = [(rng.random(space.n_states(n)) < 0.5).astype(float) for n in range(1, horizon + 1)]
    probs[-1][:] = 1.0
    rule = so.StoppingRule("tree", probs, truncated=True)
    lam = np.array([data.draw(st.sampled_from([0.5, 1.0, 3.0])) for _ in p.constraints.groups])
    weighted = so.weighted_problem(p, lam)
    decision = so.DecisionStrategy.bayes(so.HistoryTable(weighted, "tree"), horizon)
    rep = so.evaluate(p, rule, decision)
    # Raising the achieved losses a little makes the rule itself a strict violation.
    achieved = rep.w_groups + data.draw(st.sampled_from([0.0, 1e-6]), label="slack")
    result = so.MultiplierSearchResult(
        lam=lam,
        targets=achieved.copy(),
        achieved=achieved,
        slack=np.zeros(len(lam)),
        rule=rule,
        decision=decision,
        n_psi=rep.n_psi,
        converged=True,
        horizon=horizon,
        weighted=weighted,
    )
    got = oracle.verify_conditional_optimality(p, result, horizon)
    ref = mask_walk_conditional_optimality(p, result, horizon)
    assert got.n_rules == ref.n_rules
    # One entry per frontier; the walks list them in different orders.
    assert sorted(got.violations, key=_by_frontier) == sorted(ref.violations, key=_by_frontier)
    assert sorted(got.strict_violations, key=_by_frontier) == sorted(
        ref.strict_violations, key=_by_frontier
    )


def test_oracles_keep_the_rule_budget(instance_b):
    # Horizon 4 on a binary alphabet has 2 + 4 + 8 = 14 interior histories.
    assert oracle.brute_force_optimum(instance_b, 4, rule_budget=2**14).n_enumerated == 2**14
    res = so.match_constraints(instance_b, [0.18, 0.045], so.SearchConfig(horizon=4))
    assert oracle.verify_conditional_optimality(instance_b, res, 4, rule_budget=2**14).n_rules
    with pytest.raises(so.BudgetExceededError, match="2\\^14 truncated rules"):
        oracle.brute_force_optimum(instance_b, 4, rule_budget=2**14 - 1)
    with pytest.raises(so.BudgetExceededError, match="2\\^14 truncated rules"):
        oracle.verify_conditional_optimality(instance_b, res, 4, rule_budget=2**14 - 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3), st.integers(2, 3), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_kernel_called_once_per_history(k, m, horizon, seed):
    rng = np.random.default_rng(seed)
    rows = rng.uniform(0.1, 1.0, size=(m, k + 1, k))
    rows /= rows.sum(axis=2, keepdims=True)
    kernel = MarkovKernel(rows[:, 0].tolist(), rows[:, 1:].tolist())
    p = so.validate_problem(
        so.Problem(
            params=so.ParameterSpace(tuple(f"t{i}" for i in range(m))),
            obs=ObservationModel(k, "dependent", kernel=kernel, horizon=horizon),
            loss=so.LossSpec(tuple(f"d{j}" for j in range(m)), so.zero_one_loss(m)),
            priors=so.Priors(np.full(m, 1 / m), np.full(m, 1 / m)),
            cost=so.CostSpec(0.02),
        )
    )
    rule = so.extract_rule(so.solve_truncated(p, horizon))
    for seed in (1, 2):
        so.simulate(p, rule, so.SimConfig(replications=50, seed=seed, cap=horizon))
    histories = [h for n in range(horizon) for h in product(range(k), repeat=n)]
    assert kernel.calls == Counter({(t, h): 1 for t in range(m) for h in histories})


def test_kernel_rows_equal_conditional_pmf_and_are_shared():
    rng = np.random.default_rng(3)
    rows = rng.uniform(0.1, 1.0, size=(2, 4, 3))
    rows /= rows.sum(axis=2, keepdims=True)
    obs = ObservationModel(
        3, "dependent", kernel=MarkovKernel(rows[:, 0].tolist(), rows[:, 1:].tolist()), horizon=4
    )
    for n in range(4):
        got = obs.kernel_rows(2, n)
        assert got.shape == (3**n, 2, 3)
        for i, h in enumerate(product(range(3), repeat=n)):
            for t in range(2):
                assert got[i, t].tobytes() == obs.conditional_pmf(t, h).tobytes()
        assert obs.kernel_rows(2, n) is got
        with pytest.raises(ValueError):
            got[0, 0, 0] = 1.0


def test_kernel_rows_raise_on_a_bad_row():
    table = {(t, ()): (0.5, 0.5) for t in range(2)}
    table[(0, (0,))] = (0.5, 0.5)
    table[(1, (0,))] = (0.2, 0.3, 0.5)
    obs = ObservationModel(2, "dependent", kernel=table, horizon=3)
    assert obs.kernel_rows(2, 0).shape == (1, 2, 2)
    with pytest.raises(so.KernelDomainError, match="shape \\(3,\\)"):
        obs.kernel_rows(2, 1)
