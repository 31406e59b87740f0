import dataclasses
import io
import json
import math

import numpy as np
import pytest

import seqopt as so
from seqopt.histories import push_forward, state_space
from seqopt.risk_evaluation import _forward

import oracle
from conftest import random_instance
from oracle import rule_risk, best_truncated_risk, tree_history


def test_reference_rule_operating_characteristics(instance_b):
    tables = so.solve_truncated(instance_b, 2)
    rule = so.extract_rule(tables)
    rep = so.evaluate(instance_b, rule)
    assert rep.n_psi == pytest.approx(1.55, abs=1e-12)
    assert rep.w_total == pytest.approx(0.225, abs=1e-12)
    assert rep.r == pytest.approx(0.256, abs=1e-12)
    alpha, beta = rep.error_probs
    assert alpha == pytest.approx(0.36, abs=1e-12)
    assert beta == pytest.approx(0.09, abs=1e-12)
    assert rep.w_groups == pytest.approx([0.18, 0.045], abs=1e-12)
    assert rep.r == pytest.approx(tables.q0, abs=1e-12)


def test_risk_decomposition_identity(instance_b, symmetric):
    for p in (instance_b, symmetric):
        for horizon in (1, 2, 4, 6):
            rule = so.extract_rule(so.solve_truncated(p, horizon))
            rep = so.evaluate(p, rule)
            assert rep.r == pytest.approx(p.cost.c * rep.n_psi + rep.w_total, abs=1e-12)


def test_evaluation_matches_reference_on_randomized_rules():
    rng = np.random.default_rng(17)
    for _ in range(6):
        p, raw = random_instance(rng)
        horizon = 3
        space = state_space(p, "tree")
        probs = [rng.uniform(0.0, 1.0, size=space.n_states(n)) for n in range(1, horizon)]
        probs.append(np.ones(space.n_states(horizon)))
        rule = so.StoppingRule("tree", probs, truncated=True)
        stop_prob = {}
        for n in range(1, horizon):
            for idx in range(space.n_states(n)):
                stop_prob[tree_history(space.k, n, idx)] = float(rule.at(n)[idx])
        ref = rule_risk(raw["pmf"], raw["pi1"], raw["pi2"], raw["w"], raw["c"], stop_prob, horizon)
        rep = so.evaluate(p, rule)
        assert rep.n_psi == pytest.approx(ref["n_avg"], abs=1e-11)
        assert rep.w_total == pytest.approx(ref["w_total"], abs=1e-11)
        assert rep.r == pytest.approx(ref["risk"], abs=1e-11)
        assert rep.n_theta == pytest.approx(ref["n_theta"], abs=1e-11)


def test_brute_force_hand_values(instance_b):
    res = oracle.brute_force_optimum(instance_b, 2)
    assert res.min_risk == pytest.approx(0.256, abs=1e-12)
    assert res.distinct_risks == pytest.approx([0.256, 0.265, 0.27, 0.279], abs=1e-12)
    assert len(res.rules) == 1  # unique optimum
    rule = res.rules[0]
    space = state_space(instance_b, "tree")
    assert rule.at(1)[1] == 1.0  # stop after observing 1
    assert rule.at(1)[0] == 0.0


def test_brute_force_agrees_with_solver_and_reference():
    rng = np.random.default_rng(29)
    for _ in range(5):
        p, raw = random_instance(rng, m=2)
        res = oracle.brute_force_optimum(p, 3)
        q0 = so.solve_truncated(p, 3).q0
        assert res.min_risk == pytest.approx(q0, abs=1e-11)
        ref = best_truncated_risk(raw["pmf"], raw["pi1"], raw["pi2"], raw["w"], raw["c"], 3)
        assert res.min_risk == pytest.approx(ref, abs=1e-11)


def test_bayes_decision_dominates_perturbations(instance_b):
    rng = np.random.default_rng(3)
    rule = so.extract_rule(so.solve_truncated(instance_b, 3))
    base = so.evaluate(instance_b, rule)
    table = so.HistoryTable(instance_b)
    bayes = so.DecisionStrategy.bayes(table, 3)
    for _ in range(100):
        perturbed = bayes
        n = int(rng.integers(1, 4))
        space = table.space
        s = int(rng.integers(0, space.n_states(n)))
        d = int(rng.integers(0, instance_b.n_decisions))
        perturbed = perturbed.with_decision(n, s, d)
        rep = so.evaluate(instance_b, rule, perturbed)
        assert rep.w_total >= base.w_total - 1e-12


def test_forced_bad_decision_increases_loss(instance_b):
    rule = so.extract_rule(so.solve_truncated(instance_b, 2))
    table = so.HistoryTable(instance_b)
    space = table.space
    bayes = so.DecisionStrategy.bayes(table, 2)
    flipped = bayes.with_decision(1, space.index_of(1, (0, 1)), 0)
    rep = so.evaluate(instance_b, rule, flipped)
    # stopping mass at (1) is 0.45; flipping its decision trades 0.35 vs 0.10
    assert rep.w_total == pytest.approx(0.225 + (0.35 - 0.10), abs=1e-12)


@pytest.mark.parametrize("decision", [-1, 2, 5, 256, 1.0])
@pytest.mark.parametrize("builder", ["bayes", "sprt"])
def test_with_decision_refuses_an_index_outside_the_decisions(instance_b, builder, decision):
    # Decision indices are stored as uint8: unchecked, -1 and 256 raised
    # numpy's OverflowError, and 5 was stored until evaluate refused it.
    if builder == "bayes":
        strategy = so.DecisionStrategy.bayes(so.HistoryTable(instance_b), 2)
    else:
        strategy = so.sprt_rule(instance_b, so.SprtSpec(2.0, -2.0, cap=2))[1]
    edited = strategy.with_decision(1, 0, 1)  # copies keep the check
    assert edited.at(1)[0] == 1 and edited.at(1).dtype == strategy.at(1).dtype
    for s in (strategy, edited, dataclasses.replace(strategy)):
        with pytest.raises(so.SeqOptError, match=r"is not an index in \[0, 2\)"):
            s.with_decision(1, 0, decision)


def test_never_stopping_rule_has_infinite_risk(instance_b):
    space = state_space(instance_b, "counts")
    probs = [np.zeros(space.n_states(n)) for n in range(1, 9)]
    rule = so.StoppingRule("counts", probs, truncated=False)
    rep = so.evaluate(instance_b, rule)
    assert math.isinf(rep.n_psi)
    assert math.isinf(rep.r)
    assert not rep.r_finite
    assert rep.mass_stopped_pi2 == pytest.approx(0.0, abs=1e-15)


def test_stop_distribution_sums_to_mass(instance_b):
    rule = so.extract_rule(so.solve_truncated(instance_b, 4))
    rep = so.evaluate(instance_b, rule)
    assert rep.stop_dist_pi2.sum() == pytest.approx(1.0, abs=1e-12)
    assert rep.mass_stopped_pi2 == pytest.approx(1.0, abs=1e-12)
    for t in range(2):
        assert rep.stop_dist_theta[:, t].sum() == pytest.approx(1.0, abs=1e-12)
    assert rep.decision_probs.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)


@pytest.mark.parametrize("engine", ["counts", "tree"])
def test_decision_probabilities_stay_in_the_unit_interval(engine):
    # The first pmf row sums to 1 + 2^-52, and a rule that stops every
    # history at stage 1 on one decision books all of it there.
    row = [float.fromhex(h) for h in ("0x1.23a9ffe1af567p-1", "0x1.a4cc12cb239efp-4",
                                      "0x1.4f78fb89d86b9p-2")]
    assert row[0] + row[1] + row[2] == 1.0 + 2.0**-52
    p = so.iid_problem(pmf=[row, [0.2, 0.3, 0.5]], loss=[[0.0, 1.0], [0.0, 1.0]],
                       pi1=[0.5, 0.5], pi2=[0.5, 0.5], cost=0.1)
    rep = so.evaluate(p, so.StoppingRule(engine, [np.ones(3)], truncated=True))
    assert rep.decision_probs.tolist() == [[1.0, 0.0], [1.0, 0.0]]
    assert rep.error_probs == (0.0, 1.0)


def test_report_serialization_round_trip(instance_b):
    rule = so.extract_rule(so.solve_truncated(instance_b, 2))
    rep = so.evaluate(instance_b, rule)
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["n_psi"] == pytest.approx(1.55)
    assert payload["error_probs"] == pytest.approx([0.36, 0.09])
    buf = io.StringIO()
    rep.to_csv(buf)
    assert "n_psi" in buf.getvalue()


def test_lagrangian_field_uses_multipliers(instance_b):
    rule = so.extract_rule(so.solve_truncated(instance_b, 2))
    rep = so.evaluate(instance_b, rule, multipliers=[1.0, 1.0])
    assert rep.lagrangian == pytest.approx(1.55 + 0.18 + 0.045, abs=1e-12)


def test_truncatability_tail_vanishes(symmetric):
    rule = so.extract_rule(so.solve_limit(symmetric, tol=1e-12))
    diag = so.truncatability_diagnostic(symmetric, rule, horizons=[2, 4, 8, 16, 32])
    assert diag.tail_nonincreasing
    assert diag.tail_risk[-1] < 1e-8
    assert all(b >= t - 1e-15 for b, t in zip(diag.bound, diag.tail_risk))


def test_truncatability_entries_match_one_horizon_calls(symmetric):
    rule = so.extract_rule(so.solve_truncated(symmetric, 8))
    diag = so.truncatability_diagnostic(symmetric, rule, horizons=[4, 0, 2, 2, 8])
    assert diag.horizons == [0, 2, 2, 4, 8]
    for i, h in enumerate(diag.horizons):
        one = so.truncatability_diagnostic(symmetric, rule, horizons=[h])
        assert one.horizons == [h]
        for field in ("tail_risk", "stage_risk", "reach_pi1", "bound"):
            assert getattr(diag, field)[i] == getattr(one, field)[0]
    l0 = so.solve_truncated(symmetric, 1).l0
    assert diag.tail_risk[0] == diag.stage_risk[0] == l0
    assert diag.reach_pi1[0] == 1.0
    for bad in ([], [2, -1]):
        with pytest.raises(so.SeqOptError, match="horizons"):
            so.truncatability_diagnostic(symmetric, rule, horizons=bad)


def test_never_stop_tail_is_the_stage_risk_at_depth(symmetric):
    # A rule that never stops lets every history through, so its tail risk is
    # the fixed-sample Bayes risk at each horizon, and both stay finite.
    space = state_space(symmetric, "counts")
    horizons = [2**i for i in range(12)]
    probs = [np.zeros(space.n_states(n)) for n in range(1, horizons[-1])]
    probs.append(np.ones(space.n_states(horizons[-1])))
    rule = so.StoppingRule("counts", probs, truncated=True)
    diag = so.truncatability_diagnostic(symmetric, rule, horizons)
    assert diag.tail_risk == diag.stage_risk
    assert diag.tail_nonincreasing
    assert all(math.isfinite(t) and t > 0 for t in diag.tail_risk)
    assert diag.tail_risk[-1] < 1e-60


def test_untruncatable_never_stop_risk_grows(uninformative):
    space = state_space(uninformative, "counts")
    for horizon in (4, 8, 16, 32):
        probs = [np.zeros(space.n_states(n)) for n in range(1, horizon)]
        probs.append(np.ones(space.n_states(horizon)))
        rule = so.StoppingRule("counts", probs, truncated=True)
        rep = so.evaluate(uninformative, rule)
        assert rep.r == pytest.approx(0.05 * horizon + 0.5, abs=1e-12)


def test_random_rules_never_beat_solver(instance_b):
    rng = np.random.default_rng(43)
    horizon = 3
    q0 = so.solve_truncated(instance_b, horizon).q0
    space = state_space(instance_b, "counts")
    for _ in range(200):
        probs = [
            rng.uniform(0.0, 1.0, size=space.n_states(n))
            for n in range(1, horizon)
        ]
        probs.append(np.ones(space.n_states(horizon)))
        rule = so.StoppingRule("counts", probs, truncated=True)
        assert so.evaluate(instance_b, rule).r >= q0 - 1e-9


def _markov_kernel_problem():
    from seqopt.model import ObservationModel

    rows = {0: ((0.6, 0.3, 0.1), (0.2, 0.5, 0.3)), 1: ((0.1, 0.3, 0.6), (0.3, 0.3, 0.4))}

    def kernel(theta, hist):
        return rows[theta][0 if not hist or hist[-1] == 0 else 1]

    return so.Problem(
        params=so.ParameterSpace(("a", "b")),
        obs=ObservationModel(alphabet_size=3, kind="dependent", kernel=kernel),
        loss=so.LossSpec(("d1", "d2"), so.zero_one_loss(2)),
        priors=so.Priors(np.array([0.4, 0.6]), np.array([0.5, 0.5])),
        cost=so.CostSpec(0.02),
    )


@pytest.mark.parametrize("kind", ["counts", "tree_iid", "markov"])
def test_push_forward_matches_per_symbol_scatter(kind):
    """push_forward against the scatter of step_probs slices it replaced, bit for bit."""
    rng = np.random.default_rng(4)
    if kind == "markov":
        space = state_space(_markov_kernel_problem(), "tree")
    else:
        p, _ = random_instance(rng, m=3, k=3)
        space = state_space(p, "counts" if kind == "counts" else "tree")
    for n in range(1, 5):
        s, m = space.n_states(n), space.problem.n_params
        values = rng.uniform(size=(s, m)) * (rng.uniform(size=(s, 1)) < 0.7)
        children, step = space.children(n), space.step_probs(n)
        want = np.zeros((space.n_states(n + 1), m))
        for x in range(space.k):
            want[children[:, x]] += values * step[:, :, x]
        assert np.array_equal(push_forward(space, n, values), want)
        alive = rng.uniform(size=s) < 0.5
        reach = np.zeros(space.n_states(n + 1), dtype=bool)
        for x in range(space.k):
            reach[children[:, x]] |= alive
        assert np.array_equal(push_forward(space, n, alive, weighted=False), reach)


def test_reachable_sets_do_not_underflow_at_depth():
    p = so.iid_problem([[0.9, 0.1], [0.8, 0.2]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01)
    space = state_space(p, "counts")
    horizon = 400
    never = so.StoppingRule("counts", [np.zeros(space.n_states(n)) for n in range(1, horizon + 1)],
                            truncated=False)
    masks = so.reachable_sets(never, space)
    assert all(mask.all() for mask in masks)
    # the forward mass of the same rule vanishes there: 0.1^400 is below the float range
    _, arrived = _forward(p, never)
    assert (arrived == 0.0).any()
