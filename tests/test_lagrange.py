import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lagrange_reference
import oracle
import seqopt as so
from seqopt.histories import state_space

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_match_never_loads_scipy():
    # The master LP is numpy's: a fixed-horizon match, a limit-mode match and
    # one whose targets are infeasible all leave SciPy unloaded.
    script = (
        "import sys\n"
        "import seqopt, seqopt.cli\n"
        "assert 'scipy' not in sys.modules\n"
        "p = seqopt.iid_problem([[0.8, 0.2], [0.3, 0.7]], seqopt.zero_one_loss(2), [0.5, 0.5],\n"
        "                       [0.5, 0.5], 0.02, groups=((0,), (1,)), bounds=(0.18, 0.045))\n"
        "seqopt.match_constraints(p, [0.18, 0.045], seqopt.SearchConfig(horizon=2))\n"
        "assert 'scipy' not in sys.modules\n"
        "seqopt.match_constraints(p, [0.18, 0.045], seqopt.SearchConfig(n_cap=64))\n"
        "assert 'scipy' not in sys.modules\n"
        "try:\n"
        "    seqopt.match_constraints(p, [1e-4, 1e-4], seqopt.SearchConfig(horizon=2))\n"
        "except seqopt.InfeasibleTargetsError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('targets below the frontier were matched')\n"
        "assert 'scipy' not in sys.modules\n"
    )
    src = str(Path(so.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


def test_weighted_problem_identity():
    p = so.iid_problem(
        [[0.8, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.02,
        groups=((0, 1),), bounds=(0.225,),
    )
    wp = so.weighted_problem(p, [1.0])
    assert np.array_equal(wp.loss.w, p.loss.w)
    assert wp.cost.c == p.cost.c
    assert wp.constraints == p.constraints  # the multipliers are in the loss alone
    assert so.solve_truncated(wp, 2).q0 == pytest.approx(0.256, abs=1e-12)


def test_weighted_problem_scales_and_zeroes():
    p = so.iid_problem(
        [[0.8, 0.2], [0.5, 0.5], [0.3, 0.7]], so.zero_one_loss(3),
        [1 / 3] * 3, [1 / 3] * 3, 0.02,
        groups=((0,), (2,)), bounds=(0.1, 0.1),
    )
    wp = so.weighted_problem(p, [2.0, 3.0])
    assert np.array_equal(wp.loss.w[0], 2.0 * p.loss.w[0])
    assert np.array_equal(wp.loss.w[2], 3.0 * p.loss.w[2])
    assert np.all(wp.loss.w[1] == 0.0)  # middle parameter is outside every group


def test_weighted_problem_counts_its_multipliers_once():
    # lam scales the loss and stays out of the constraints, so under
    # two_channel.json's unit multipliers the weighted problem's Lagrangian is
    # lagrangian(p, lam). Constraints that also carried lam would count it
    # twice: n_psi + sum_g lam_g^2 W_g, 3.75975 here.
    p = so.load_problem(CONFIGS / "two_channel.json")
    rule = so.extract_rule(so.solve_truncated(p, 4))
    lam = (2.0, 3.0)
    wp = so.weighted_problem(p, lam)
    assert wp.constraints == p.constraints
    assert so.lagrangian(p, lam, rule) == pytest.approx(3.32785, abs=1e-12)
    assert so.evaluate(wp, rule).lagrangian == pytest.approx(3.32785, abs=1e-12)


def test_weighted_problem_validates():
    p = so.iid_problem(
        [[0.8, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.02,
        groups=((0,), (1,)), bounds=(0.1, 0.1),
    )
    with pytest.raises(so.SeqOptError):
        so.weighted_problem(p, [1.0])
    with pytest.raises(so.SeqOptError):
        so.weighted_problem(p, [1.0, -0.5])
    bare = so.iid_problem(
        [[0.8, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.02
    )
    with pytest.raises(so.SeqOptError):
        so.weighted_problem(bare, [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_weighted_problem_rejects_non_finite(instance_b, bad):
    with pytest.raises(so.SeqOptError, match="finite"):
        so.weighted_problem(instance_b, [bad, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_match_rejects_non_finite_targets(instance_b, bad):
    with pytest.raises(so.SeqOptError, match="finite") as err:
        so.match_constraints(instance_b, [bad, 0.1], so.SearchConfig(horizon=2))
    assert not isinstance(err.value, so.InfeasibleTargetsError)


def test_lagrangian_hand_value(instance_b):
    rule = so.extract_rule(so.solve_truncated(instance_b, 2))
    assert so.lagrangian(instance_b, [1.0, 1.0], rule) == pytest.approx(1.775, abs=1e-12)


def test_match_single_group_on_step_boundary():
    p = so.iid_problem(
        [[0.8, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.02,
        groups=((0, 1),), bounds=(0.225,),
    )
    res = so.match_constraints(p, [0.225], so.SearchConfig(horizon=2))
    assert res.converged
    assert res.achieved[0] == pytest.approx(0.225, abs=1e-6)
    assert res.n_psi == pytest.approx(1.55, abs=1e-6)


def test_match_single_group_randomizes_inside_step():
    p = so.iid_problem(
        [[0.8, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.02,
        groups=((0, 1),), bounds=(0.24,),
    )
    res = so.match_constraints(p, [0.24], so.SearchConfig(horizon=2))
    assert res.converged
    assert res.achieved[0] == pytest.approx(0.24, abs=1e-9)
    space = state_space(p, res.rule.engine)
    gamma = res.rule.at(1)[space.index_of(1, (1, 0))]
    assert 0.0 < gamma < 1.0  # genuinely randomized at the flip state
    assert gamma == pytest.approx(0.6, abs=1e-9)
    assert res.n_psi == pytest.approx(1.22, abs=1e-9)


def test_match_two_groups_trivial_multipliers(instance_b):
    res = so.match_constraints(instance_b, [0.18, 0.045], so.SearchConfig(horizon=2))
    assert res.converged
    assert res.lam == pytest.approx([1.0, 1.0], abs=1e-9)
    assert res.achieved == pytest.approx([0.18, 0.045], abs=1e-9)
    assert res.n_psi == pytest.approx(1.55, abs=1e-9)


@pytest.mark.parametrize(
    "targets, horizon, mixed", [((0.18, 0.045), 4, False), ((0.3, 0.03), 5, True)]
)
def test_match_report_is_the_evaluation_of_its_pair(targets, horizon, mixed):
    # One probe's pair, and a mixture of several.
    p = so.load_problem(CONFIGS / "two_channel.json")
    res = so.match_constraints(p, targets, so.SearchConfig(horizon=horizon))
    assert (res.rule._table is None) == mixed  # only an extracted rule keeps its table
    assert res.report.to_dict() == so.evaluate(p, res.rule, res.decision).to_dict()
    assert res.report.w_groups.tolist() == res.achieved.tolist()
    assert res.report.n_psi == res.n_psi


def test_match_two_groups_symmetric():
    p = so.iid_problem(
        [[0.7, 0.3], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01,
        groups=((0,), (1,)), bounds=(0.05, 0.05),
    )
    res = so.match_constraints(p, [0.05, 0.05], so.SearchConfig(horizon=20))
    assert res.converged
    assert res.achieved == pytest.approx([0.05, 0.05], abs=1e-6)
    assert res.lam[0] == pytest.approx(res.lam[1], rel=1e-3)  # symmetric multipliers
    rep = so.evaluate(p, res.rule, res.decision)
    assert rep.error_probs[0] == pytest.approx(0.1, abs=1e-6)
    assert rep.error_probs[1] == pytest.approx(0.1, abs=1e-6)


def test_match_two_groups_asymmetric():
    p = so.iid_problem(
        [[0.7, 0.3], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01,
        groups=((0,), (1,)), bounds=(0.08, 0.03),
    )
    res = so.match_constraints(p, [0.08, 0.03], so.SearchConfig(horizon=20))
    assert res.converged
    assert res.achieved == pytest.approx([0.08, 0.03], abs=1e-6)
    assert res.lam[1] > res.lam[0]  # tighter second target needs more weight


def test_infeasible_targets_raise(instance_b):
    # Targets looser than every rule needs are upper bounds, not infeasible:
    # the multipliers drop to 0 and the slack stays.
    res = so.match_constraints(instance_b, [0.6, 0.6], so.SearchConfig(horizon=3))
    assert res.converged
    assert np.all(res.lam == 0.0) and np.all(res.slack > 0)
    # below the frontier: two observations cannot get both losses to 1e-4
    with pytest.raises(so.InfeasibleTargetsError):
        so.match_constraints(instance_b, [1e-4, 1e-4], so.SearchConfig(horizon=2))
    p1 = so.iid_problem(
        [[0.8, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.02,
        groups=((0, 1),), bounds=(0.2,),
    )
    # at horizon 2 no rule gets the total loss below 0.225
    with pytest.raises(so.InfeasibleTargetsError):
        so.match_constraints(p1, [0.2], so.SearchConfig(horizon=2))
    with pytest.raises(so.InfeasibleTargetsError):
        so.match_constraints(p1, [-0.1], so.SearchConfig(horizon=2))


def test_three_groups_match():
    p = so.iid_problem(
        [[0.8, 0.2], [0.5, 0.5], [0.3, 0.7]], so.zero_one_loss(3),
        [1 / 3] * 3, [1 / 3] * 3, 0.02,
        groups=((0,), (1,), (2,)), bounds=(0.1, 0.2, 0.1),
    )
    res = so.match_constraints(p, [0.1, 0.2, 0.1], so.SearchConfig(horizon=6))
    assert res.converged
    assert res.achieved == pytest.approx([0.1, 0.2, 0.1], abs=1e-6)
    assert np.all(res.lam > 0)
    assert res.stats["gap"] <= 1e-12


def test_conditional_optimality_of_matched_rule():
    p = so.iid_problem(
        [[0.8, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.02,
        groups=((0, 1),), bounds=(0.24,),
    )
    res = so.match_constraints(p, [0.24], so.SearchConfig(horizon=2))
    check = oracle.verify_conditional_optimality(p, res, horizon=2)
    assert check.ok
    assert check.n_rules <= 4


def test_conditional_optimality_flags_wasteful_rule(instance_b):
    # delaying every stop to stage 2 keeps the same losses as the optimum
    # but pays a full extra observation; the enumerator must notice
    space = state_space(instance_b, "counts")
    delay = so.StoppingRule(
        "counts",
        [np.zeros(space.n_states(1)), np.ones(space.n_states(2))],
        truncated=True,
    )
    rep = so.evaluate(instance_b, delay)
    assert rep.n_psi == pytest.approx(2.0, abs=1e-12)
    assert rep.w_groups == pytest.approx([0.18, 0.045], abs=1e-12)
    fake = so.MultiplierSearchResult(
        lam=np.array([1.0, 1.0]),
        targets=rep.w_groups.copy(),
        achieved=rep.w_groups.copy(),
        slack=np.zeros(2),
        rule=delay,
        decision=so.DecisionStrategy.bayes(so.HistoryTable(instance_b), 2),
        n_psi=rep.n_psi,
        converged=True,
        horizon=2,
        weighted=so.weighted_problem(instance_b, [1.0, 1.0]),
    )
    check = oracle.verify_conditional_optimality(instance_b, fake, horizon=2)
    assert not check.ok
    assert any(v["n_psi"] == pytest.approx(1.55, abs=1e-9) for v in check.violations)


def test_match_limit_mode_single_group():
    p = so.iid_problem(
        [[0.8, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.02,
        groups=((0, 1),), bounds=(0.1,),
    )
    res = so.match_constraints(p, [0.1], so.SearchConfig(limit_tol=1e-9, n_cap=64))
    assert res.converged
    assert res.achieved[0] == pytest.approx(0.1, abs=1e-6)
    # sanity: the matched rule is no slower than matching requires
    assert res.n_psi < 4.0


def _match_cases():
    two = so.load_problem(CONFIGS / "two_channel.json")
    one = so.iid_problem(
        [[0.8, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.02,
        groups=((0, 1),), bounds=(0.24,),
    )
    return [
        (two, [0.1, 0.05], so.SearchConfig(horizon=4)),  # two groups, blended steps
        (one, [0.24], so.SearchConfig(horizon=2)),  # randomized inside a step
        (one, [0.1], so.SearchConfig(limit_tol=1e-9, n_cap=64)),  # limit: common horizon
    ]


@pytest.mark.parametrize("case", range(3))
def test_match_evaluates_each_probe_and_the_mixture(monkeypatch, case):
    # One evaluate per probe, plus one for the final pair when it is a
    # mixture (randomized decisions); a single pair reuses its probe's.
    p, targets, cfg = _match_cases()[case]
    lg = so.lagrange
    calls = []
    real_evaluate = lg.evaluate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(lg, "evaluate", counting)
    res = so.match_constraints(p, targets, cfg)
    assert res.stats["probes"] == len(res.frontier_trace)
    assert len(calls) == res.stats["probes"] + (res.decision.probs is not None)
    if res.decision.probs is not None:
        assert calls[-1] is res.rule


def test_match_stats_and_probe_log(caplog):
    p, targets, cfg = _match_cases()[0]
    with caplog.at_level(logging.DEBUG, logger="seqopt.lagrange"):
        res = so.match_constraints(p, targets, cfg)
    stats = res.stats
    assert set(stats) == {
        "probes", "lp_rounds", "gap", "solve_s", "extract_s", "evaluate_s", "lp_s"
    }
    assert stats["probes"] > 0
    assert stats["lp_rounds"] > 0 and stats["gap"] <= 1e-12
    assert all(stats[k] > 0 for k in ("solve_s", "extract_s", "evaluate_s", "lp_s"))
    probe_lines = [r for r in caplog.records if r.getMessage().startswith("probe ")]
    assert len(probe_lines) == stats["probes"]


@pytest.mark.parametrize("engine", ["counts", "tree"])
def test_mixture_is_exact(engine):
    # Two pairs that differ in where they stop and in what they decide: the
    # one-rule mixture must have the mu-weighted operating characteristics.
    p = so.load_problem(CONFIGS / "two_channel.json")
    lg = so.lagrange
    space = state_space(p, engine)
    packs, reports = [], []
    for lam, horizon in (([0.2, 2.0], 5), ([3.0, 0.3], 3)):
        tables = so.solve_truncated(so.weighted_problem(p, lam), horizon, engine=engine)
        rule = so.extract_rule(tables)
        decision = so.DecisionStrategy.bayes(tables.table, horizon)
        rep = so.evaluate(p, rule, decision)
        packs.append(lg._Pack(tables.table, rule, decision, rep, horizon))
        reports.append(rep)
    search = lg._Search(p, so.SearchConfig(engine=engine))
    mu = np.array([0.3, 0.7])
    rule, decision = lg._mixture(space, search.common_horizon(packs), mu, p.n_decisions)
    assert rule.horizon == decision.horizon == 5
    mixed = so.evaluate(p, rule, decision)
    for key in ("n_psi", "w_groups", "decision_probs", "n_theta"):
        want = mu[0] * getattr(reports[0], key) + mu[1] * getattr(reports[1], key)
        assert np.allclose(getattr(mixed, key), want, rtol=0, atol=1e-12), key
    stop_dist = mu[0] * reports[0].stop_dist_theta
    stop_dist[:3] += mu[1] * reports[1].stop_dist_theta
    assert np.allclose(mixed.stop_dist_theta, stop_dist, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "targets, horizon", [((0.3, 0.03), 5), ((0.2, 0.12), 5), ((0.1, 0.1), 8), ((0.15, 0.02), 8)]
)
def test_mixture_probabilities_lie_in_the_unit_interval(targets, horizon):
    # At (0.3, 0.03) the unreached states' mu-average fallback once gave
    # 1.0000000000000002, as the normalised mu sums to 1 + 2^-52.
    p = so.load_problem(CONFIGS / "two_channel.json")
    res = so.match_constraints(p, targets, so.SearchConfig(horizon=horizon))
    assert res.decision.probs is not None  # a mixture of pairs
    for probs in (np.concatenate(res.rule.stop_probs), np.concatenate(res.decision.probs)):
        assert ((probs >= 0.0) & (probs <= 1.0)).all()


def test_uncertified_gap_reports_unconverged(monkeypatch):
    # Cut the pricing rounds short: the best mixture so far comes back with
    # its open gap and converged=False, its losses still its own.
    p = so.load_problem(CONFIGS / "two_channel.json")
    monkeypatch.setattr(so.lagrange, "_MAX_ROUNDS", 2)
    res = so.match_constraints(p, [0.05, 0.03], so.SearchConfig(horizon=8))
    assert not res.converged
    assert res.stats["gap"] > 1e-6
    rep = so.evaluate(p, res.rule, res.decision)
    assert np.array_equal(rep.w_groups, res.achieved) and rep.n_psi == res.n_psi


@pytest.mark.parametrize("scale", [2.0, 0.5, 1.000001])
@pytest.mark.parametrize("case", range(3))
def test_bad_master_duals_cannot_fake_convergence(monkeypatch, case, scale):
    # The gap is the master value minus a weighted solve's Lagrangian at the
    # multipliers the master hands out, a lower bound for any of them: wrong
    # duals (scaled and permuted) may stall the search but never certify a
    # mixture dearer than the optimum. Exact pricing never gives a negative
    # gap, so a converged search has none beyond the tolerance either.
    p, targets, cfg = _match_cases()[case]
    ref = so.match_constraints(p, targets, cfg)
    real_master = so.lagrange._Search.master

    def bad_master(self, cols, t):
        res = real_master(self, cols, t)
        return None if res is None else (res[0], res[1], scale * res[2][::-1])

    monkeypatch.setattr(so.lagrange._Search, "master", bad_master)
    res = so.match_constraints(p, targets, cfg)
    assert not res.converged or abs(res.n_psi - ref.n_psi) <= 1e-12
    gap_tol = so.lagrange._GAP_TOL * max(1.0, p.cost.c * res.n_psi)
    assert not res.converged or res.stats["gap"] >= -gap_tol


def _random_master(rng):
    """A small master or phase-I LP (cost, a_ub, b_ub, n_mix) with degenerate draws."""
    g, n = int(rng.integers(1, 4)), int(rng.integers(1, 16))
    if rng.integers(2):  # a coarse grid makes ties and degenerate vertices exact
        t, cost = rng.integers(1, 9, g) / 8, rng.integers(1, 9, n) / 8
        w = rng.integers(0, 9, (g, n)) / 8
    else:
        t, cost = rng.uniform(0.05, 1.0, g), rng.uniform(0.02, 2.0, n)
        w = rng.uniform(0.0, 1.0, (g, n))
    for _ in range(rng.integers(0, 3)):  # duplicate columns
        i, j = rng.integers(n, size=2)
        w[:, j], cost[j] = w[:, i], cost[i]
    for _ in range(rng.integers(0, 3)):  # a column exactly on a target
        row, j = rng.integers(g), rng.integers(n)
        w[row, j] = t[row]
    if rng.integers(4) == 0:  # an all-zero loss row
        w[rng.integers(g)] = 0.0
    if rng.integers(4) == 0:  # every column above one target: an infeasible master
        row = rng.integers(g)
        w[row] += t[row] + rng.uniform(0.01, 0.5)
    if rng.integers(2):  # the phase-I LP of least total excess, always feasible
        return np.r_[np.zeros(n), np.ones(g)], np.hstack([w, -np.eye(g)]), t, n
    return cost, w, t, n


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_master_lp_agrees_with_linprog(seed):
    from scipy.optimize import linprog

    cost, a_ub, b_ub, n_mix = _random_master(np.random.default_rng(seed))
    a_eq = np.zeros((1, len(cost)))
    a_eq[0, :n_mix] = 1.0
    ref = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert ref.status in (0, 2)
    res = so.lagrange._simplex(cost, a_ub, b_ub, n_mix)
    assert (res is None) == (ref.status == 2)
    if res is None:
        return
    value, x, marginals = res
    tol = 1e-12 * max(1.0, abs(value))
    assert abs(value - ref.fun) <= tol
    assert np.all(a_ub @ x <= b_ub + 1e-12) and np.all(x >= -1e-12)
    assert abs(x[:n_mix].sum() - 1.0) <= 1e-12
    # Duals are not unique at a degenerate vertex, so check them for dual
    # feasibility and strong duality: lam = -marginals >= 0 prices no column
    # outside the mixture below zero, and its Lagrangian bound is the value.
    lam = -marginals
    reduced = cost + lam @ a_ub
    assert np.all(lam >= -1e-12)
    assert np.all(reduced[n_mix:] >= -1e-12)
    assert abs(reduced[:n_mix].min() - lam @ b_ub - value) <= tol * (1.0 + np.abs(lam).sum())


def _group_partition(rng, m, n_groups):
    cuts = sorted(rng.choice(np.arange(1, m), size=n_groups - 1, replace=False).tolist())
    return tuple(tuple(int(t) for t in part) for part in np.split(rng.permutation(m), cuts))


def _lagrange_losses(p, horizon, lam):
    tables = so.solve_truncated(so.weighted_problem(p, lam), horizon)
    decision = so.DecisionStrategy.bayes(tables.table, horizon)
    return so.evaluate(p, so.extract_rule(tables), decision).w_groups


def _feasible_instance(k, m, horizon, n_groups, seed):
    """A seeded iid problem and targets between two Lagrange rules' losses."""
    rng = np.random.default_rng(seed)
    pmf = rng.uniform(0.05, 1.0, size=(m, k))
    pi1, pi2 = rng.uniform(0.2, 1.0, size=(2, m))
    p = so.iid_problem(
        (pmf / pmf.sum(axis=1, keepdims=True)).tolist(), so.zero_one_loss(m),
        (pi1 / pi1.sum()).tolist(), (pi2 / pi2.sum()).tolist(), float(rng.uniform(0.005, 0.05)),
        groups=_group_partition(rng, m, n_groups), bounds=(0.1,) * n_groups,
    )
    # A convex combination of two Lagrange rules' losses is feasible.
    mix = rng.uniform()
    targets = (
        mix * _lagrange_losses(p, horizon, rng.uniform(0.05, 5.0, n_groups))
        + (1 - mix) * _lagrange_losses(p, horizon, rng.uniform(0.05, 5.0, n_groups))
    )
    return p, targets


@pytest.mark.parametrize("k, m, n_groups, seed", [(2, 4, 3, 355), (3, 4, 2, 1569555356)])
def test_match_at_the_sample_size_floor_is_not_dominated(k, m, n_groups, seed):
    # Every column of one observation costs the same here, so the master LP is
    # degenerate. Its basis once mixed some of them to land on the targets,
    # with roundoff multipliers (about 1e-17), while another such column had
    # every group loss at most theirs and one strictly lower: converged, yet
    # the oracle found a strict violation. Among the optimal mixtures the
    # match now takes one of least total loss, and roundoff multipliers are
    # reported as 0. In the second input that mixture is a single column,
    # which the LP returns with a -1e-16 entry beside it.
    p, targets = _feasible_instance(k, m, 3, n_groups, seed)
    res = so.match_constraints(p, targets, so.SearchConfig(horizon=3))
    assert res.converged and res.stats["gap"] <= 1e-12
    assert res.n_psi == pytest.approx(1.0, abs=1e-9)
    assert np.all(res.lam == 0.0) and np.all(res.slack >= -1e-6)
    for probe in res.frontier_trace:
        below = np.array(probe["achieved"]) <= res.achieved + 1e-12
        strictly = np.array(probe["achieved"]) < res.achieved - 1e-9
        assert not (probe["n_psi"] <= res.n_psi and below.all() and strictly.any()), probe
    assert oracle.verify_conditional_optimality(p, res, 3).ok


def test_zero_target_that_rules_attain_converges():
    # The second group's target is exactly 0; the match once refused every
    # zero target as infeasible, though these rules attain it.
    p, targets = _feasible_instance(3, 2, 1, 2, 1569714666)
    assert targets[1] == 0.0
    res = so.match_constraints(p, targets, so.SearchConfig(horizon=1))
    assert res.converged and res.stats["gap"] <= 1e-12
    assert np.all(res.achieved <= targets + 1e-12)
    assert oracle.verify_conditional_optimality(p, res, 1).ok


def test_singular_master_basis_is_a_typed_error():
    # Pivoting roundoff leaves this match's master LP at a basis that numpy
    # finds singular; its final solve raised numpy's LinAlgError.
    p, targets = _feasible_instance(3, 3, 3, 3, 1657646452)
    with pytest.raises(so.SeqOptError, match="LP ended at a singular basis") as exc:
        so.match_constraints(p, targets, so.SearchConfig(horizon=3))
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("fault", ["singular", "off-its-rows"])
def test_failing_tie_break_basis_keeps_the_phase_two_mixture(monkeypatch, fault):
    # At the sample-size floor the master's simplex runs a tie-break phase
    # for a mixture of least total loss. When the solve at its final basis is
    # singular, or returns a mixture off its rows (near a singular basis one
    # had a -0.27 entry), the phase-II mixture stays instead of failing the
    # match. Phase II solves the mixture and the duals, so the third solve of
    # a call with a secondary cost is the tie-break basis's.
    p, targets = _feasible_instance(2, 4, 3, 3, 355)
    real_simplex, real_solve = so.lagrange._simplex, np.linalg.solve
    faults = []

    def faulty_simplex(cost, a_ub, b_ub, n_mix, secondary=None):
        calls = []

        def solve(m, v):
            calls.append(None)
            if len(calls) == 3 and secondary is not None:
                faults.append(None)
                if fault == "singular":
                    raise np.linalg.LinAlgError("Singular matrix")
                return np.full(len(v), -0.27)
            return real_solve(m, v)

        with monkeypatch.context() as m:
            m.setattr(np.linalg, "solve", solve)
            return real_simplex(cost, a_ub, b_ub, n_mix, secondary)

    cfg = so.SearchConfig(horizon=3)
    tied = so.match_constraints(p, targets, cfg)
    monkeypatch.setattr(so.lagrange, "_simplex", faulty_simplex)
    res = so.match_constraints(p, targets, cfg)
    assert faults
    monkeypatch.setattr(
        so.lagrange, "_simplex", lambda cost, a_ub, b_ub, n_mix, secondary=None:
        real_simplex(cost, a_ub, b_ub, n_mix)
    )
    phase_two = so.match_constraints(p, targets, cfg)
    assert not np.array_equal(tied.achieved, phase_two.achieved)
    assert res.converged == phase_two.converged
    assert np.array_equal(res.achieved, phase_two.achieved)
    assert res.n_psi == phase_two.n_psi
    assert np.array_equal(res.lam, tied.lam) and res.stats["lp_rounds"] == tied.stats["lp_rounds"]


def test_mixture_reads_the_decision_count_of_the_match_problem():
    # A live solve of a 3-decision problem with the same pmf builds the
    # shared state space first; the mixture of a 2-decision match read its
    # decision count from that space's problem and failed its own evaluation.
    # The pmf is this test's own, so no other test's space is shared.
    pmf = [[0.8, 0.2], [0.35, 0.65]]
    three = so.iid_problem(pmf, [[0, 1, 0.3], [1, 0, 0.3]], [0.5, 0.5], [0.5, 0.5], 0.01)
    keep = so.extract_rule(so.solve_truncated(three, 4))
    p = so.iid_problem(pmf, so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01,
                       groups=[[0], [1]], bounds=(0.1, 0.1))
    res = so.match_constraints(p, (0.1, 0.1), so.SearchConfig(horizon=6))
    assert keep.horizon == 4
    assert res.converged and np.all(res.decision.at(1) < 2)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 3), st.integers(2, 4), st.integers(1, 7), st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_match_converges_on_feasible_targets(k, m, horizon, n_groups, seed):
    assume(n_groups <= m)
    p, targets = _feasible_instance(k, m, horizon, n_groups, seed)
    cfg = so.SearchConfig(horizon=horizon)
    res = so.match_constraints(p, targets, cfg)
    assert res.converged
    assert res.stats["gap"] <= 1e-12
    rep = so.evaluate(p, res.rule, res.decision)
    assert np.max(np.abs(rep.w_groups - res.achieved)) <= 1e-12
    if sum(k**n for n in range(1, horizon)) <= 20:
        assert oracle.verify_conditional_optimality(p, res, horizon).ok
    if n_groups <= 2:
        try:
            ref = lagrange_reference.match_constraints(
                p, targets, lagrange_reference.ReferenceConfig(horizon=horizon)
            )
        except so.InfeasibleTargetsError:
            return
        if np.all(ref.achieved <= targets):
            assert res.n_psi <= ref.n_psi + 1e-9
