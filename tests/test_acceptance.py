"""Acceptance suite: one test per advertised guarantee.

Each test prints a single "[acceptance] criterion N (...): PASS/FAIL" line
(visible with -s; the -v test report carries the same verdict) and asserts
the stated tolerance. Expected values are either exact decimals confirmed by
the pure-Python reference in oracle.py or properties with brute-force checks.
"""

import functools
import json
import time
from pathlib import Path

import numpy as np
import pytest

import oracle
import seqopt as so
from oracle import rule_risk, tree_history

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def criterion(num: int, name: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num} ({name}): FAIL")
                raise
            print(f"[acceptance] criterion {num} ({name}): PASS")

        return wrapper

    return deco


def suite_instances(make_random_instance, n=25, seed=101):
    """The shared randomized battery: small finite problems with a horizon."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        p, raw = make_random_instance(rng)
        horizon = int(rng.integers(1, 5))
        out.append((p, raw, horizon))
    return out


def never_stop_rule(p, horizon):
    space = so.state_space(p, "counts")
    probs = [np.zeros(space.n_states(n)) for n in range(1, horizon)]
    probs.append(np.ones(space.n_states(horizon)))
    return so.StoppingRule("counts", probs, truncated=True)


@criterion(1, "oracle equivalence")
def test_criterion_01_oracle_equivalence(make_random_instance):
    t0 = time.perf_counter()
    worst_q0 = worst_risk = 0.0
    for p, _, horizon in suite_instances(make_random_instance):
        tables = so.solve_truncated(p, horizon)
        brute = oracle.brute_force_optimum(p, horizon)
        worst_q0 = max(worst_q0, abs(tables.q0 - brute.min_risk))
        report = so.evaluate(p, so.extract_rule(tables))
        worst_risk = max(worst_risk, abs(report.r - tables.q0))
    elapsed = time.perf_counter() - t0
    assert worst_q0 <= 1e-10
    assert worst_risk <= 1e-9
    assert elapsed < 60.0


@criterion(2, "truncation monotonicity")
def test_criterion_02_truncation_monotonicity(make_random_instance):
    violations = 0
    for p, _, _ in suite_instances(make_random_instance):
        solves = [so.solve_truncated(p, n) for n in range(1, 11)]
        q0s = [t.q0 for t in solves]
        violations += sum(1 for a, b in zip(q0s, q0s[1:]) if b > a + 1e-12)
        for shorter, longer in zip(solves, solves[1:]):
            for n in range(shorter.horizon + 1):
                if np.any(shorter.value[n] < longer.value[n] - 1e-12):
                    violations += 1
    assert violations == 0


@criterion(3, "stagewise decision dominance")
def test_criterion_03_bayes_dominance(make_random_instance):
    rng = np.random.default_rng(303)
    worst = 0.0
    for p, _, _ in suite_instances(make_random_instance, n=10):
        horizon = 3
        tables = so.solve_truncated(p, horizon)
        rule = so.extract_rule(tables)
        space = tables.table.space
        baseline = so.evaluate(p, rule).w_total
        for _ in range(100):
            dec = so.DecisionStrategy(
                [
                    rng.integers(0, p.n_decisions, size=space.n_states(n))
                    for n in range(1, horizon + 1)
                ]
            )
            worst = min(worst, so.evaluate(p, rule, dec).w_total - baseline)
    assert worst >= -1e-12


@criterion(4, "risk decomposition")
def test_criterion_04_risk_decomposition(make_random_instance):
    rng = np.random.default_rng(404)
    worst_identity = worst_oracle = 0.0
    for p, raw, horizon in suite_instances(make_random_instance, n=15):
        horizon = min(horizon, 3)
        tables = so.solve_truncated(p, horizon, engine="tree")
        space = tables.table.space
        optimal = so.extract_rule(tables)
        random_rule = so.StoppingRule(
            "tree",
            [rng.uniform(size=space.n_states(n)) for n in range(1, horizon)]
            + [np.ones(space.n_states(horizon))],
            truncated=True,
        )
        for rule in (optimal, random_rule):
            rep = so.evaluate(p, rule)
            worst_identity = max(
                worst_identity, abs(rep.r - (p.cost.c * rep.n_psi + rep.w_total))
            )
            stop_prob = {
                tree_history(space.k, n, i): float(rule.at(n)[i])
                for n in range(1, horizon)
                for i in range(space.n_states(n))
            }
            ref = rule_risk(
                raw["pmf"], raw["pi1"], raw["pi2"], raw["w"], raw["c"], stop_prob, horizon
            )
            worst_oracle = max(worst_oracle, abs(rep.r - ref["risk"]))
    assert worst_identity < 1e-9
    assert worst_oracle < 1e-9


@criterion(5, "stagewise risk monotone")
def test_criterion_05_stagewise_risk_monotone(make_random_instance):
    problems = [p for p, _, _ in suite_instances(make_random_instance)]
    problems += [
        so.load_problem(CONFIGS / name)
        for name in ("two_channel.json", "symmetric.json", "uninformative.json")
    ]
    for p in problems:
        table = so.HistoryTable(p)  # held, so every n below reads its stages
        risks = [so.stagewise_bayes_risk(p, n) for n in range(1, 13)]
        assert all(b <= a + 1e-12 for a, b in zip(risks, risks[1:]))


@criterion(6, "engine agreement")
def test_criterion_06_engine_agreement(make_random_instance):
    rng = np.random.default_rng(606)
    horizon = 8
    worst = 0.0
    for _ in range(5):
        p, _ = make_random_instance(rng)
        tree = so.solve_truncated(p, horizon, engine="tree")
        counts = so.solve_truncated(p, horizon, engine="counts")
        worst = max(worst, abs(tree.q0 - counts.q0))
        t_space, c_space = tree.table.space, counts.table.space
        for n in range(horizon + 1):
            idx = np.array(
                [
                    c_space.index_of(n, tuple(
                        tree_history(t_space.k, n, i).count(x) for x in range(p.alphabet_size)
                    ))
                    for i in range(t_space.n_states(n))
                ],
                dtype=int,
            )
            worst = max(worst, float(np.abs(tree.value[n] - counts.value[n][idx]).max()))
            if n < horizon:
                worst = max(worst, float(np.abs(tree.cont[n] - counts.cont[n][idx]).max()))
    assert worst <= 1e-12


@criterion(7, "simulation consistency")
def test_criterion_07_simulation_consistency():
    runs = [("two_channel.json", 2), ("symmetric.json", 6), ("uninformative.json", 3)]
    for name, horizon in runs:
        p = so.load_problem(CONFIGS / name)
        tables = so.solve_truncated(p, horizon)
        rule = so.extract_rule(tables)
        report = so.evaluate(p, rule)
        cfg = so.SimConfig(replications=100_000, seed=20260819, cap=horizon, theta_mode="pi2")
        res = so.simulate(p, rule, cfg)
        assert abs(res.tau_mean - report.n_psi) <= 4 * res.tau_se + 1e-12
        # pi1 == pi2 in every reference file, so the loss mean estimates w_total
        assert abs(res.loss_mean - report.w_total) <= 4 * res.loss_se + 1e-12
        freq_target = p.priors.pi2 @ report.decision_probs
        for d in range(p.n_decisions):
            assert abs(res.decision_freq[d] - freq_target[d]) <= 4 * res.decision_freq_se[d] + 1e-12
        replay = so.simulate(p, rule, cfg)
        assert json.dumps(replay.to_dict(), sort_keys=True) == json.dumps(
            res.to_dict(), sort_keys=True
        )


@criterion(8, "worked reference instance")
def test_criterion_08_worked_reference_instance():
    p = so.load_problem(CONFIGS / "two_channel.json")
    tables = so.solve_truncated(p, 2)
    space = tables.table.space
    after_one = space.index_of(1, (0, 1))
    after_zero = space.index_of(1, (1, 0))
    assert tables.cont[1][after_one] == pytest.approx(0.109, abs=1e-12)
    assert tables.cont[1][after_zero] == pytest.approx(0.136, abs=1e-12)
    assert tables.q0 == pytest.approx(0.256, abs=1e-12)
    rule = so.extract_rule(tables)
    assert rule.at(1)[after_one] == 1.0
    assert rule.at(1)[after_zero] == 0.0
    report = so.evaluate(p, rule)
    assert report.n_psi == pytest.approx(1.55, abs=1e-12)
    assert report.w_total == pytest.approx(0.225, abs=1e-12)
    assert report.error_probs[0] == pytest.approx(0.36, abs=1e-12)
    assert report.error_probs[1] == pytest.approx(0.09, abs=1e-12)


def _two_hypothesis_doc(p_low, p_high, c, pi2):
    return {
        "parameters": ["t1", "t2"],
        "alphabet_size": 2,
        "model": {"kind": "iid", "pmf": [[1 - p_low, p_low], [1 - p_high, p_high]]},
        "loss": [[0.0, 1.0], [1.0, 0.0]],
        "pi1": [0.5, 0.5],
        "pi2": list(pi2),
        "cost": c,
        "constraints": {"groups": [["t1"], ["t2"]], "bounds": [0.1, 0.1]},
    }


def _weighted_optimum(p, lam, horizon):
    """Best truncated rule for sampling cost plus multiplier-weighted losses,
    reported against the unweighted problem."""
    wp = so.weighted_problem(p, lam)
    tables = so.solve_truncated(wp, horizon)
    rule = so.extract_rule(tables, tie_policy="stop")
    dec = so.DecisionStrategy.bayes(tables.table, tables.horizon)
    return rule, dec, so.evaluate(p, rule, dec)


@criterion(9, "two-hypothesis ratio-test benchmark")
def test_criterion_09_ratio_test_benchmark():
    # A ratio test capped at the same horizon is itself a candidate rule, so
    # matching its errors at or below the optimum's achieved errors forces
    # the optimum's expected sample size under either hypothesis to win.
    horizon = 48
    rng = np.random.default_rng(905)
    for _ in range(5):
        p_low = rng.uniform(0.10, 0.35)
        p_high = rng.uniform(0.65, 0.90)
        c = rng.uniform(0.04, 0.12)
        lam = rng.uniform(0.8, 2.5, size=2)
        reports, rules = [], []
        for i in range(2):
            pi2 = [0.0, 0.0]
            pi2[i] = 1.0
            p_i = so.load_problem(_two_hypothesis_doc(p_low, p_high, c, pi2))
            rule, _, rep = _weighted_optimum(p_i, lam, horizon)
            reports.append(rep)
            rules.append((p_i, rule))
        alpha_t = min(r.error_probs[0] for r in reports)
        beta_t = min(r.error_probs[1] for r in reports)
        spec = so.match_sprt_errors(
            rules[0][0], alpha_t, beta_t, cap=horizon, conservative=True
        )
        oc = so.sprt_operating_characteristics(rules[0][0], spec)
        assert oc.alpha <= alpha_t + 1e-12 and oc.beta <= beta_t + 1e-12
        assert reports[0].n_psi <= oc.e_tau[0] + 1e-6
        assert reports[1].n_psi <= oc.e_tau[1] + 1e-6
        for p_i, rule in rules:
            assert so.continuation_is_interval(p_i, rule)


def _middle_point_doc(p_low, p_mid, p_high, c):
    return {
        "parameters": ["t1", "t0", "t2"],
        "alphabet_size": 2,
        "model": {
            "kind": "iid",
            "pmf": [[1 - p_low, p_low], [1 - p_mid, p_mid], [1 - p_high, p_high]],
        },
        "loss": [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]],
        "pi1": [0.5, 0.0, 0.5],
        "pi2": [0.0, 1.0, 0.0],
        "cost": c,
        "constraints": {"groups": [["t1"], ["t2"]], "bounds": [0.1, 0.1]},
    }


@criterion(10, "middle-parameter sample-size benchmark")
def test_criterion_10_middle_parameter_benchmark():
    # Sampling cost is charged at a third parameter between the hypotheses;
    # at matched errors the optimal rule needs no more observations there
    # than the like-capped ratio test.
    horizon = 48
    rng = np.random.default_rng(906)
    for _ in range(3):
        p_low = rng.uniform(0.12, 0.30)
        p_high = rng.uniform(0.70, 0.88)
        p_mid = 0.5 * (p_low + p_high) + rng.uniform(-0.05, 0.05)
        c = rng.uniform(0.04, 0.12)
        lam = rng.uniform(1.5, 3.5, size=2)
        p = so.load_problem(_middle_point_doc(p_low, p_mid, p_high, c))
        rule, _, rep = _weighted_optimum(p, lam, horizon)
        assert rep.n_psi > 1.0  # non-degenerate: the rule actually sequences
        alpha_t, beta_t = rep.error_probs
        spec = so.match_sprt_errors(
            p, alpha_t, beta_t, cap=horizon, conservative=True, hypotheses=(0, 2)
        )
        oc = so.sprt_operating_characteristics(p, spec)
        assert oc.alpha <= alpha_t + 1e-12 and oc.beta <= beta_t + 1e-12
        assert rep.n_psi <= oc.e_tau[1] + 1e-6


@criterion(11, "conditional optimality enumeration")
def test_criterion_11_conditional_optimality(make_random_instance, instance_b):
    rng = np.random.default_rng(707)
    for horizon in (2, 3):
        for _ in range(3):
            p, raw = make_random_instance(rng, m=2)
            doc = {
                "parameters": ["t1", "t2"],
                "alphabet_size": 2,
                "model": {"kind": "iid", "pmf": raw["pmf"]},
                "loss": raw["w"],
                "pi1": raw["pi1"],
                "pi2": raw["pi2"],
                "cost": raw["c"],
                "constraints": {"groups": [["t1"], ["t2"]], "bounds": [0.1, 0.1]},
            }
            p = so.load_problem(doc)
            lam = rng.uniform(0.5, 2.0, size=2)
            rule, dec, rep = _weighted_optimum(p, lam, horizon)
            result = so.MultiplierSearchResult(
                lam=lam,
                targets=rep.w_groups.copy(),
                achieved=rep.w_groups.copy(),
                slack=np.zeros(2),
                rule=rule,
                decision=dec,
                n_psi=rep.n_psi,
                converged=True,
                horizon=horizon,
                weighted=so.weighted_problem(p, lam),
            )
            check = oracle.verify_conditional_optimality(p, result, horizon=horizon)
            assert check.n_rules <= 64
            assert check.ok

    # negative control: delaying every stop by one stage must be flagged
    delay = so.StoppingRule(
        "counts", [np.zeros(2), np.ones(3)], truncated=True
    )
    rep = so.evaluate(instance_b, delay)
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
    assert not oracle.verify_conditional_optimality(instance_b, fake, horizon=2).ok


@criterion(12, "truncatability diagnostics")
def test_criterion_12_truncatability_diagnostics():
    # separated hypotheses, bounded loss: the stage-loss integral dies out
    p = so.load_problem(CONFIGS / "two_channel.json")
    horizons = [2, 4, 8, 16, 32, 64, 128]
    diag = so.truncatability_diagnostic(p, never_stop_rule(p, 128), horizons)
    assert diag.tail_nonincreasing
    assert all(b <= a for a, b in zip(diag.stage_risk, diag.stage_risk[1:]))
    assert diag.tail_risk[-1] < 1e-6
    assert all(t <= b + 1e-15 for t, b in zip(diag.tail_risk, diag.bound))

    # identical rows: nothing is ever learned and never stopping pays
    # c per stage forever, so truncated risks grow without bound
    q = so.load_problem(CONFIGS / "uninformative.json")
    l0 = so.solve_truncated(q, 1).l0
    grow = [4, 8, 16, 32]
    risks = [so.evaluate(q, never_stop_rule(q, n)).r for n in grow]
    for n, r in zip(grow, risks):
        assert r == pytest.approx(q.cost.c * n + l0, abs=1e-12)
    assert all(b > a for a, b in zip(risks, risks[1:]))
