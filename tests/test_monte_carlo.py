import csv
import io
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqopt as so
import seqopt.monte_carlo as mc
from seqopt.bayes_decision import HistoryTable
from seqopt.histories import CountStateSpace, state_space
from seqopt.model import ObservationModel

MASK64 = (1 << 64) - 1
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TRACE_KEYS = ("theta", "tau", "decision", "loss", "cap_hit")


def reference_simulate(p, rule, cfg, decision=None):
    """The per-replication simulator the batch walk replaced.

    One Philox generator per replication, walked in a Python loop; the batch
    walk must reproduce its estimates and trace arrays bit for bit.
    """
    space = state_space(p, rule.engine)  # held so the table below shares it
    if decision is None:
        decision = so.DecisionStrategy.bayes(HistoryTable(p, rule.engine), cfg.cap)
    mode = cfg.theta_mode
    theta_cdf = None if isinstance(mode, int) else np.cumsum(getattr(p.priors, mode))
    iid = p.obs.kind == "iid"
    obs_cdf = np.cumsum(p.obs.iid_pmf, axis=1) if iid else None
    child = (
        [space.children(n).tolist() for n in range(cfg.cap)]
        if isinstance(space, CountStateSpace)
        else None
    )
    k = p.alphabet_size
    w = p.loss.w
    stop_probs = [rule.at(n) for n in range(1, cfg.cap + 1)]
    decisions = [decision.at(n) for n in range(1, cfg.cap + 1)]

    reps = cfg.replications
    taus = np.empty(reps, dtype=np.int64)
    thetas = np.empty(reps, dtype=np.int64)
    decs = np.empty(reps, dtype=np.int64)
    losses = np.empty(reps)
    cap_hits = np.zeros(reps, dtype=bool)
    block_len = 1 + 2 * cfg.cap
    seed = cfg.seed & MASK64

    for r in range(reps):
        gen = np.random.Generator(np.random.Philox(key=[seed, r]))
        u = gen.random(block_len)
        theta = (
            int(np.searchsorted(theta_cdf, u[0], side="right"))
            if theta_cdf is not None
            else int(cfg.theta_mode)
        )
        theta = min(theta, p.n_params - 1)
        state = 0
        history: tuple[int, ...] = ()
        stopped = False
        for n in range(1, cfg.cap + 1):
            if iid:
                x = int(np.searchsorted(obs_cdf[theta], u[2 * n - 1], side="right"))
            else:
                row_cdf = np.cumsum(p.obs.conditional_pmf(theta, history))
                x = int(np.searchsorted(row_cdf, u[2 * n - 1], side="right"))
                history = history + (x,)
            x = min(x, k - 1)
            if child is not None:
                state = child[n - 1][state][x]
            else:
                state = state * k + x
            if u[2 * n] < stop_probs[n - 1][state]:
                taus[r] = n
                decs[r] = int(decisions[n - 1][state])
                stopped = True
                break
        if not stopped:
            taus[r] = cfg.cap
            decs[r] = int(decisions[cfg.cap - 1][state])
            cap_hits[r] = True
        thetas[r] = theta
        losses[r] = w[theta, decs[r]]

    sqrt_r = float(np.sqrt(reps))

    def mean_se(x):
        sd = float(np.std(x, ddof=1)) if reps > 1 else 0.0
        return float(np.mean(x)), sd / sqrt_r

    tau_mean, tau_se = mean_se(taus.astype(float))
    loss_mean, loss_se = mean_se(losses)
    dec_freq = np.empty(p.n_decisions)
    dec_se = np.empty(p.n_decisions)
    for dd in range(p.n_decisions):
        dec_freq[dd], dec_se[dd] = mean_se((decs == dd).astype(float))
    group_mean = group_se = None
    if p.constraints is not None:
        g_count = len(p.constraints.groups)
        group_mean = np.empty(g_count)
        group_se = np.empty(g_count)
        for gi, group in enumerate(p.constraints.groups):
            member = np.isin(thetas, list(group))
            group_mean[gi], group_se[gi] = mean_se(np.where(member, losses, 0.0))
    theta_freq = np.bincount(thetas, minlength=p.n_params).astype(float) / reps
    cap_fraction = float(np.mean(cap_hits))
    trace = None
    if cfg.keep_trace:
        trace = dict(zip(TRACE_KEYS, (thetas, taus, decs, losses, cap_hits)))
    return so.SimResult(
        replications=reps,
        seed=cfg.seed,
        cap=cfg.cap,
        theta_mode=cfg.theta_mode,
        tau_mean=tau_mean,
        tau_se=tau_se,
        loss_mean=loss_mean,
        loss_se=loss_se,
        group_loss_mean=group_mean,
        group_loss_se=group_se,
        decision_freq=dec_freq,
        decision_freq_se=dec_se,
        cap_hit_fraction=cap_fraction,
        flagged=cap_fraction > mc._CAP_HIT_THRESHOLD,
        theta_freq=theta_freq,
        trace=trace,
    )


def reference_trace_csv(res) -> str:
    """SimResult.trace_to_csv as it was written row by row."""
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(["replication", "theta", "tau", "decision", "loss", "cap_hit"])
    t = res.trace
    for i in range(res.replications):
        writer.writerow(
            [i, int(t["theta"][i]), int(t["tau"][i]), int(t["decision"][i]),
             repr(float(t["loss"][i])), int(t["cap_hit"][i])]
        )
    return fh.getvalue()


def _json(res) -> str:
    """to_dict as JSON text: NaN equals NaN, and a numpy scalar fails to serialize."""
    return json.dumps(res.to_dict())


def _assert_same_result(got, ref):
    assert _json(got) == _json(ref)
    if ref.trace is None:
        assert got.trace is None
        return
    assert set(got.trace) == set(ref.trace)
    for key, arr in ref.trace.items():
        assert got.trace[key].dtype == arr.dtype, key
        assert got.trace[key].tobytes() == arr.tobytes(), key
    buf = io.StringIO()
    got.trace_to_csv(buf)
    assert buf.getvalue() == reference_trace_csv(ref)


def _markov_problem(rng, k, m, horizon, groups):
    """Order-1 Markov kernel: the next symbol's pmf depends on the last symbol."""
    rows = rng.uniform(0.05, 1.0, size=(m, k + 1, k))  # row k: no symbol yet
    rows /= rows.sum(axis=2, keepdims=True)
    table = rows.tolist()

    def kernel(theta, hist):
        return table[theta][hist[-1] if hist else k]

    pi = rng.uniform(0.1, 1.0, size=(2, m))
    pi /= pi.sum(axis=1, keepdims=True)
    return so.Problem(
        params=so.ParameterSpace(tuple(f"t{i}" for i in range(m))),
        obs=ObservationModel(alphabet_size=k, kind="dependent", kernel=kernel, horizon=horizon),
        loss=so.LossSpec(tuple(f"d{i}" for i in range(m)), so.zero_one_loss(m)),
        priors=so.Priors(pi[0], pi[1]),
        cost=so.CostSpec(0.02),
        constraints=so.ConstraintSpec(groups, (0.1,) * len(groups)) if groups else None,
    )


def _rule(p, horizon):
    return so.extract_rule(so.solve_truncated(p, horizon))


def test_extracted_rule_simulates_without_rebuilding_stages(monkeypatch):
    p = so.iid_problem(
        [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01
    )
    rule = _rule(p, 100)  # its ValueTables is gone; the rule keeps the table
    built = []
    build = HistoryTable._build_stage
    monkeypatch.setattr(HistoryTable, "_build_stage", lambda t, n: built.append(n) or build(t, n))
    so.simulate(p, rule, so.SimConfig(replications=200, seed=3, cap=100))
    assert built == []


def test_replay_is_byte_identical(instance_b):
    rule = _rule(instance_b, 4)
    cfg = so.SimConfig(replications=2000, seed=42, cap=4)
    a, b = so.simulate(instance_b, rule, cfg), so.simulate(instance_b, rule, cfg)
    assert a.to_dict() == b.to_dict()


def test_different_seed_changes_draws(instance_b):
    rule = _rule(instance_b, 4)
    a = so.simulate(instance_b, rule, so.SimConfig(replications=2000, seed=1, cap=4))
    b = so.simulate(instance_b, rule, so.SimConfig(replications=2000, seed=2, cap=4))
    assert a.tau_mean != b.tau_mean


def test_estimates_match_exact_within_se(instance_b):
    rule = _rule(instance_b, 6)
    rep = so.evaluate(instance_b, rule)
    res = so.simulate(instance_b, rule, so.SimConfig(replications=40000, seed=9, cap=6))
    assert abs(res.tau_mean - rep.n_psi) <= 4 * res.tau_se
    # pi1 equals pi2 here, so the loss estimate targets w_total directly
    assert abs(res.loss_mean - rep.w_total) <= 4 * max(res.loss_se, 1e-9)
    exact_freq = instance_b.priors.pi2 @ rep.decision_probs
    for d in range(2):
        assert abs(res.decision_freq[d] - exact_freq[d]) <= 4 * max(
            res.decision_freq_se[d], 1e-9
        )


def test_group_losses_match_exact(instance_b):
    rule = _rule(instance_b, 2)
    rep = so.evaluate(instance_b, rule)
    res = so.simulate(
        instance_b, rule, so.SimConfig(replications=60000, seed=5, cap=2, theta_mode="pi1")
    )
    for gi in range(2):
        assert abs(res.group_loss_mean[gi] - rep.w_groups[gi]) <= 4 * max(
            res.group_loss_se[gi], 1e-9
        )


def test_always_stop_rule_stops_at_one(instance_b):
    space = state_space(instance_b, "counts")
    rule = so.StoppingRule("counts", [np.ones(space.n_states(1))], truncated=True)
    res = so.simulate(instance_b, rule, so.SimConfig(replications=500, seed=3, cap=1))
    assert res.tau_mean == 1.0
    assert res.tau_se == 0.0
    assert res.cap_hit_fraction == 0.0


def test_cap_hits_flagged(instance_b):
    space = state_space(instance_b, "counts")
    probs = [np.zeros(space.n_states(n)) for n in range(1, 4)]
    rule = so.StoppingRule("counts", probs, truncated=False)
    res = so.simulate(instance_b, rule, so.SimConfig(replications=200, seed=8, cap=3))
    assert res.cap_hit_fraction == 1.0
    assert res.flagged


def test_fixed_theta_mode(instance_b):
    rule = _rule(instance_b, 4)
    res = so.simulate(
        instance_b, rule, so.SimConfig(replications=3000, seed=13, cap=4, theta_mode=1)
    )
    assert res.theta_freq[1] == 1.0
    rep = so.evaluate(instance_b, rule)
    assert abs(res.tau_mean - rep.n_theta[1]) <= 4 * max(res.tau_se, 1e-9)


def test_randomized_rule_simulation_agrees(instance_b):
    # stage-1 stop probability 0.6 after a 1: tau distribution is affected
    tables = so.solve_truncated(instance_b, 2)
    rule = so.extract_rule(tables)
    space = tables.table.space
    rule = rule.with_prob(1, space.index_of(1, (0, 1)), 0.6)
    rep = so.evaluate(instance_b, rule)
    res = so.simulate(instance_b, rule, so.SimConfig(replications=60000, seed=21, cap=2))
    assert abs(res.tau_mean - rep.n_psi) <= 4 * res.tau_se


def _agrees_with_evaluate(p, rule, decision, cap, seed):
    """Monte Carlo under pi1 against the exact evaluation of the rule capped at cap."""
    rep = so.evaluate(p, so.truncate_rule(rule, cap), decision)
    sim = so.simulate(
        p, rule, so.SimConfig(replications=40000, seed=seed, cap=cap, theta_mode="pi1"), decision
    )
    assert abs(sim.tau_mean - rep.n_theta @ p.priors.pi1) <= 4 * max(sim.tau_se, 1e-9)
    for gi in range(len(p.constraints.groups)):
        assert abs(sim.group_loss_mean[gi] - rep.w_groups[gi]) <= 4 * sim.group_loss_se[gi]
    exact_freq = p.priors.pi1 @ rep.decision_probs
    for d in range(p.n_decisions):
        assert abs(sim.decision_freq[d] - exact_freq[d]) <= 4 * sim.decision_freq_se[d]


@pytest.mark.parametrize("targets, horizon, cap", [((0.2, 0.12), 1, 1), ((0.05, 0.03), 8, 5)])
def test_matched_mixture_simulation_agrees(targets, horizon, cap):
    # At horizon 1 every rule stops at once and the match mixes decisions
    # alone: the likeliest decisions would give losses (0.1, 0.15). At cap 5
    # the cap force-stops states the horizon-8 rule would continue.
    p = so.load_problem(CONFIGS / "two_channel.json")
    res = so.match_constraints(p, targets, so.SearchConfig(horizon=horizon))
    assert res.converged
    assert any(((q > 0) & (q < 1)).any() for q in res.decision.probs)
    _agrees_with_evaluate(p, res.rule, res.decision, cap, seed=17)


@pytest.mark.parametrize("cap", [1, 2])
def test_randomized_decisions_reuse_the_stop_draw(instance_b, cap):
    # Stage 1 stops with probability 1/2, so at cap 1 half the replications
    # are force-stopped; their decisions come from (u-p)/(1-p), the others'
    # from u/p, and both must follow the state's decision probabilities.
    stop = [np.full(2, 0.5), np.ones(3)]
    probs = [np.array([[0.3, 0.7], [0.9, 0.1]]), np.array([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]])]
    decision = so.DecisionStrategy([q.argmax(axis=1) for q in probs], probs)
    rule = so.StoppingRule("counts", stop, truncated=True)
    _agrees_with_evaluate(instance_b, rule, decision, cap, seed=23)


def test_trace_export(instance_b):
    rule = _rule(instance_b, 2)
    res = so.simulate(
        instance_b, rule, so.SimConfig(replications=50, seed=2, cap=2, keep_trace=True)
    )
    buf = io.StringIO()
    res.trace_to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "replication,theta,tau,decision,loss,cap_hit"
    assert len(lines) == 51


def test_trace_requires_keep_trace(instance_b):
    rule = _rule(instance_b, 2)
    res = so.simulate(instance_b, rule, so.SimConfig(replications=10, seed=2, cap=2))
    with pytest.raises(so.SeqOptError):
        res.trace_to_csv(io.StringIO())


def test_dependent_model_simulation():
    def kernel(theta, hist):
        if theta == 0:
            return (0.8, 0.2)
        return (0.3, 0.7) if (hist and hist[-1] == 1) else (0.8, 0.2)

    from seqopt.model import ObservationModel

    p = so.Problem(
        params=so.ParameterSpace(("a", "b")),
        obs=ObservationModel(alphabet_size=2, kind="dependent", kernel=kernel, horizon=4),
        loss=so.LossSpec(("d1", "d2"), so.zero_one_loss(2)),
        priors=so.Priors(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
        cost=so.CostSpec(0.02),
    )
    rule = so.extract_rule(so.solve_truncated(p, 4))
    rep = so.evaluate(p, rule)
    res = so.simulate(p, rule, so.SimConfig(replications=30000, seed=6, cap=4))
    assert abs(res.tau_mean - rep.n_psi) <= 4 * max(res.tau_se, 1e-9)
    assert abs(res.loss_mean - rep.w_total) <= 4 * max(res.loss_se, 1e-9)


def test_cap_must_not_exceed_rule_horizon(instance_b):
    rule = _rule(instance_b, 2)
    with pytest.raises(so.SeqOptError):
        so.simulate(instance_b, rule, so.SimConfig(replications=10, seed=1, cap=5))


def test_rule_or_decisions_not_covering_the_cap_raise(instance_b):
    # The same coverage checks as evaluate: a rule over another state space,
    # and a decision strategy that stops short of the cap.
    from conftest import random_instance

    p3, _ = random_instance(np.random.default_rng(3), m=2, k=3)
    alien = so.extract_rule(so.solve_truncated(p3, 6))
    cfg = so.SimConfig(replications=10, seed=1, cap=6)
    with pytest.raises(so.SeqOptError, match="rule stage 1 covers 3 states, problem has 2"):
        so.simulate(instance_b, alien, cfg)
    rule = _rule(instance_b, 6)
    short = so.DecisionStrategy.bayes(HistoryTable(instance_b), 4)
    with pytest.raises(so.SeqOptError, match="decision strategy does not cover"):
        so.simulate(instance_b, rule, cfg, short)


def _random_problem(data, rng):
    kind = data.draw(st.sampled_from(["counts", "tree_iid", "markov"]), label="kind")
    k = data.draw(st.integers(2, 3), label="k")
    m = data.draw(st.integers(2, 3), label="m")
    horizon = data.draw(st.integers(1, 6 if kind == "counts" else 5), label="horizon")
    groups = ((0,), tuple(range(1, m))) if data.draw(st.booleans(), label="groups") else None
    if kind == "markov":
        return _markov_problem(rng, k, m, horizon, groups), "tree", horizon
    pmf = rng.uniform(0.05, 1.0, size=(m, k))
    pmf /= pmf.sum(axis=1, keepdims=True)
    pi = rng.uniform(0.1, 1.0, size=(2, m))
    pi /= pi.sum(axis=1, keepdims=True)
    w = so.zero_one_loss(m) * rng.uniform(0.5, 2.0, size=(m, 1))
    bounds = (0.1,) * len(groups) if groups else None
    p = so.iid_problem(pmf, w, pi[0], pi[1], 0.02, groups=groups, bounds=bounds)
    return p, "counts" if kind == "counts" else "tree", horizon


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_batch_walk_matches_reference(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="model_seed"))
    p, engine, horizon = _random_problem(data, rng)
    space = state_space(p, engine)
    sizes = [space.n_states(n) for n in range(1, horizon + 1)]
    rule_kind = data.draw(st.sampled_from(["random", "all_stop", "never_stop"]), label="rule")
    if rule_kind == "random":
        probs = [rng.uniform(size=s) for s in sizes]
        for v in probs:
            v[rng.random(v.size) < 0.3] = 0.0
            v[rng.random(v.size) < 0.2] = 1.0
    else:
        probs = [np.full(s, 1.0 if rule_kind == "all_stop" else 0.0) for s in sizes]
    rule = so.StoppingRule(engine, probs, truncated=False)
    decision = None
    if data.draw(st.booleans(), label="random_decisions"):
        decision = so.DecisionStrategy([rng.integers(0, p.n_decisions, size=s) for s in sizes])
    cfg = so.SimConfig(
        replications=data.draw(st.integers(1, 40), label="reps"),
        seed=data.draw(st.integers(0, 2**63 - 1), label="seed"),
        cap=data.draw(
            st.one_of(st.just(1), st.just(horizon), st.integers(1, horizon)), label="cap"
        ),
        theta_mode=data.draw(
            st.one_of(st.sampled_from(["pi1", "pi2"]), st.integers(0, p.n_params - 1)),
            label="theta_mode",
        ),
        keep_trace=data.draw(st.booleans(), label="keep_trace"),
    )
    chunk = data.draw(st.sampled_from([7, mc._CHUNK]), label="chunk")
    ref = reference_simulate(p, rule, cfg, decision)
    with mock.patch.object(mc, "_CHUNK", chunk):
        got = so.simulate(p, rule, cfg, decision)
    _assert_same_result(got, ref)
    assert got.stats["chunks"] == -(-cfg.replications // chunk)
    running = got.stats["running"]
    assert len(running) == cfg.cap and running[0] == cfg.replications
    assert all(a >= b for a, b in zip(running, running[1:]))


@pytest.mark.parametrize("engine", ["counts", "tree"])
def test_batch_walk_matches_reference_across_chunks(instance_b, engine):
    rule = so.extract_rule(so.solve_truncated(instance_b, 5, engine=engine))
    rule = rule.with_prob(2, 1, 0.4)
    cfg = so.SimConfig(replications=100, seed=77, cap=5, theta_mode="pi1", keep_trace=True)
    ref = reference_simulate(instance_b, rule, cfg)
    with mock.patch.object(mc, "_CHUNK", 7):
        got = so.simulate(instance_b, rule, cfg)
    _assert_same_result(got, ref)
    assert got.stats["chunks"] == 15


@pytest.mark.parametrize("seed", [0, 2**64 - 1, -12345])
def test_philox_uniforms_match_numpy(seed):
    # An explicit uint64 key: numpy turns a key *list* that mixes a word of
    # 2**63 or more with a smaller one into float64 first, losing bits.
    key0 = seed & MASK64
    reps = np.array([0, 1, 2**32 - 2, 2**32 - 1, 2**32, 2**32 + 1], dtype=np.uint64)
    n = 13
    got = np.concatenate([mc.philox_uniforms(key0, reps, b) for b in range(4)])[:n]
    for j, r in enumerate(reps.tolist()):
        bits = np.random.Philox(key=np.array([key0, r], dtype=np.uint64))
        ref = np.random.Generator(bits).random(n)
        assert got[:, j].tobytes() == ref.tobytes()


def test_seeds_are_taken_mod_2_64_without_collisions(instance_b):
    rule = _rule(instance_b, 4)

    def run(seed):
        cfg = so.SimConfig(replications=300, seed=seed, cap=4, keep_trace=True)
        return so.simulate(instance_b, rule, cfg)

    a, b = run(-1), run(-5)
    assert a.trace["tau"].tobytes() != b.trace["tau"].tobytes()
    assert run(2**64 - 1).trace["tau"].tobytes() == a.trace["tau"].tobytes()


@pytest.mark.parametrize(
    "field, value",
    [("theta_mode", True), ("theta_mode", False), ("theta_mode", 1.0), ("theta_mode", "pi3"),
     ("replications", 2.5), ("replications", True), ("cap", 2.0), ("seed", 1.5), ("seed", "7")],
)
def test_config_types_are_checked(instance_b, field, value):
    rule = _rule(instance_b, 2)
    cfg = so.SimConfig(**{"replications": 10, "seed": 1, "cap": 2, field: value})
    with pytest.raises(so.SeqOptError):
        so.simulate(instance_b, rule, cfg)


def test_numpy_integers_are_accepted(instance_b):
    rule = _rule(instance_b, 2)
    plain = so.simulate(instance_b, rule, so.SimConfig(50, 4, 2, theta_mode=1))
    cfg = so.SimConfig(np.int64(50), np.int64(4), np.int32(2), theta_mode=np.int64(1))
    assert _json(so.simulate(instance_b, rule, cfg)) == _json(plain)


def test_stats_stay_out_of_serialized_output(instance_b):
    rule = _rule(instance_b, 4)
    res = so.simulate(instance_b, rule, so.SimConfig(replications=500, seed=3, cap=4))
    assert list(res.to_dict()) == [
        "replications", "seed", "cap", "theta_mode", "tau", "loss", "group_loss",
        "decision_freq", "decision_freq_se", "cap_hit_fraction", "flagged", "theta_freq",
    ]
    assert set(res.stats) == {"walk_s", "chunks", "philox_blocks", "running"}
    assert res.stats["walk_s"] >= 0.0 and res.stats["chunks"] == 1
    running = res.stats["running"]
    assert running[0] == 500 and len(running) == 4
    # block 0 per replication, then one more for each even stage it reaches
    assert res.stats["philox_blocks"] == 500 + running[1] + running[3]
    assert "stats" not in _json(res)


def test_row_draws_match_searchsorted_right_at_ties():
    cdf = np.cumsum(np.array([[0.25, 0.25, 0.5], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]]), axis=1)
    for u in [0.0, 0.25, 0.5, 0.75, 1.0, np.nextafter(0.5, 0.0), 1.5]:
        uu = np.full(len(cdf), u)
        ref = [np.searchsorted(row, u, side="right") for row in cdf]
        assert mc._draw(cdf, uu).tolist() == ref


def test_draws_above_a_short_cdf_clip_to_the_last_index(monkeypatch):
    # pmf rows and prior sum to 1 - 1e-10, inside the normalization tolerance,
    # so a uniform just below 1 falls past every cdf entry
    short = [0.5, 0.5 - 1e-10]
    p = so.iid_problem([short, short], so.zero_one_loss(2), short, short, 0.02)
    rule = so.StoppingRule("counts", [np.ones(2)], truncated=True)
    decision = so.DecisionStrategy([np.array([0, 1])])  # decision = stage-1 state index
    top = 1.0 - 2.0**-53
    monkeypatch.setattr(
        mc, "philox_uniforms", lambda seed, reps, block: np.full((4, len(reps)), top)
    )
    res = so.simulate(p, rule, so.SimConfig(20, 1, 1, theta_mode="pi2", keep_trace=True), decision)
    assert res.trace["theta"].tolist() == [1] * 20
    # symbol 1 leads to the count state (0, 1), index 0 at stage 1
    assert res.trace["decision"].tolist() == [0] * 20
