"""The forward pass against its scatter-and-mask form in oracle.py.

`push_forward` must equal the per-symbol scatter bit for bit, and every field
of `evaluate`'s report must equal the mask loop's within 1e-12 * max(1, |x|):
the pass books stops per stage as one (D, m) product, so only the summation
order of the stopped mass and the terminal loss differs.
"""

import dataclasses
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqopt as so
from seqopt.bayes_decision import HistoryTable
from seqopt.histories import push_forward, state_space
from seqopt.lagrange import _mixture, _Pack
from seqopt.model import ObservationModel
from seqopt.risk_evaluation import _forward
from seqopt.stopping_policy import reachable_sets

from oracle import reference_forward, scatter_push

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
KINDS = ["counts", "tree_iid", "markov"]


def _problem(rng, kind, k, m, d=2, groups=False):
    """A random problem of K symbols and m parameters; pmfs bounded away from 0."""
    pi = rng.uniform(0.1, 1.0, size=(2, m))
    pi /= pi.sum(axis=1, keepdims=True)
    w = rng.uniform(0.0, 2.0, size=(m, d))
    spec = None
    if groups and m >= 2:
        spec = so.ConstraintSpec(((0,), tuple(range(1, m))), (0.1, 0.1))
    if kind == "markov":
        rows = rng.uniform(0.05, 1.0, size=(m, k + 1, k))  # row k: no symbol yet
        table = (rows / rows.sum(axis=2, keepdims=True)).tolist()

        def kernel(theta, hist):
            return table[theta][hist[-1] if hist else k]

        obs = ObservationModel(alphabet_size=k, kind="dependent", kernel=kernel)
    else:
        pmf = rng.uniform(0.05, 1.0, size=(m, k))
        pmf /= pmf.sum(axis=1, keepdims=True)
        obs = ObservationModel(alphabet_size=k, kind="iid", iid_pmf=pmf)
    return so.Problem(
        params=so.ParameterSpace(tuple(f"t{i}" for i in range(m))),
        obs=obs,
        loss=so.LossSpec(tuple(f"d{j}" for j in range(d)), w),
        priors=so.Priors(pi[0], pi[1]),
        cost=so.CostSpec(0.02),
        constraints=spec,
    )


def _engine(kind):
    return "counts" if kind == "counts" else "tree"


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    k=st.integers(1, 5),
    m=st.integers(1, 4),
    n=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="counts", k=8, m=3, n=5, seed=8)  # 792 states, 8 parents each
def test_push_forward_is_the_scatter_bit_for_bit(kind, k, m, n, seed):
    rng = np.random.default_rng(seed)
    if kind != "counts":
        n = min(n, {1: 6, 2: 5, 3: 3}.get(k, 2))  # K^n states at most
    space = state_space(_problem(rng, kind, k, m), _engine(kind))
    s = space.n_states(n)
    alive = rng.uniform(size=(s, 1)) < 0.7  # rows of zeros among the live ones
    cases = [
        (rng.uniform(size=(s, m)) * alive, True),  # per-parameter mass
        (rng.uniform(size=(s, int(rng.integers(1, 5)))) * alive, False),  # mixture flows
        (alive[:, 0], False),  # reachability
        (rng.uniform(size=(s, 2)) < 0.5, False),
        (np.zeros((s, m)), True),
    ]
    for values, weighted in cases:
        got = push_forward(space, n, values, weighted=weighted)
        want = scatter_push(space, n, values, weighted=weighted)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert _bits(got) == _bits(want)


def _scatter_densities(space, top):
    """Stages 0..top of f_theta as the per-column scatter along child-table rows."""
    m = space.problem.n_params
    out = [np.ones((1, m))]
    for n in range(top):
        table, step = space.children(n).T, space.step_probs(n)
        f_theta = np.empty((space.n_states(n + 1), m))
        for j in range(m):
            for x in range(space.k):
                f_theta[table[x], j] = out[-1][:, j] * step[:, j, x]
        out.append(f_theta)
    return out


@settings(max_examples=60, deadline=None)
@given(
    kind_k=st.one_of(
        st.tuples(st.just("counts"), st.integers(1, 3)),
        st.tuples(st.sampled_from(["tree_iid", "markov"]), st.integers(1, 4)),
    ),
    m=st.integers(1, 3),
    horizon=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_kernels_are_the_index_table_forms_bit_for_bit(kind_k, m, horizon, seed):
    # Slice rows (every tree row, the binary count rows) and the index rows of
    # K = 3 counts, against the forms that gather and scatter by children(n):
    # the forward push, the stage densities, the solve's child sums and the
    # reachable sets. The kernels run before the references ask for a child table.
    kind, k = kind_k
    rng = np.random.default_rng(seed)
    if kind != "counts":
        horizon = min(horizon, {1: 8, 2: 8, 3: 5}.get(k, 4))
    p = _problem(rng, kind, k, m)
    engine = _engine(kind)
    tables = so.solve_truncated(p, horizon, engine)
    space = tables.table.space
    rule = _random_rule(rng, space, engine, horizon, truncated=True)
    reach = reachable_sets(rule, space)
    cases = []
    for n in range(horizon):
        s = space.n_states(n)
        alive = rng.uniform(size=(s, 1)) < 0.7
        for values, weighted in [
            (rng.uniform(size=(s, m)) * alive, True),  # per-parameter mass
            (rng.uniform(size=(s, 2)) * alive, False),  # mixture flows
            (alive[:, 0], False),  # reachability
        ]:
            cases.append((n, values, weighted, push_forward(space, n, values, weighted)))

    for n, values, weighted, got in cases:
        want = scatter_push(space, n, values, weighted)
        assert got.dtype == want.dtype and _bits(got) == _bits(want)
    for n, want in enumerate(_scatter_densities(space, horizon)):
        assert _bits(space.densities(n)) == _bits(want), n
    for n in range(horizon):
        sums = tables.value[n + 1][space.children(n).T].sum(axis=0)
        want = p.cost.c * (space.densities(n) @ p.priors.pi2) + sums
        assert _bits(tables.cont[n]) == _bits(want), n
    masks = [np.ones(space.n_states(1), dtype=bool)]
    for n in range(1, horizon):
        masks.append(scatter_push(space, n, masks[-1] & (rule.at(n) < 1.0), weighted=False))
    assert len(reach) == len(masks) and all(map(np.array_equal, reach, masks))


def _assert_same_report(got, want):
    for f in dataclasses.fields(want):
        if f.name == "stats":
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        if b is None or isinstance(b, (bool, int, str)) or (
            isinstance(b, tuple) and all(isinstance(v, str) for v in b)
        ):
            assert a == b, f.name
            continue
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert a.shape == b.shape, f.name
        inf = np.isinf(b)
        assert np.array_equal(a[inf], b[inf]) and np.isfinite(a[~inf]).all(), f.name
        tol = 1e-12 * np.maximum(1.0, np.abs(b[~inf]))
        assert np.all(np.abs(a[~inf] - b[~inf]) <= tol), f.name


def _random_rule(rng, space, engine, horizon, truncated):
    probs = []
    for n in range(1, horizon + 1):
        s = space.n_states(n)
        p = rng.uniform(size=s)
        p[rng.uniform(size=s) < 0.3] = 0.0
        p[rng.uniform(size=s) < 0.3] = 1.0
        probs.append(p)
    if truncated:
        probs[-1] = np.ones(space.n_states(horizon))
    return so.StoppingRule(engine, probs, truncated)


def _random_probs(rng, space, horizon, d):
    out = []
    for n in range(1, horizon + 1):
        shape = (space.n_states(n), d)
        q = rng.uniform(size=shape) * (rng.uniform(size=shape) < 0.7)
        q[:, 0] += 1e-3
        out.append(q / q.sum(axis=1, keepdims=True))
    return out


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    k=st.integers(1, 3),
    m=st.integers(1, 3),
    d=st.integers(1, 3),
    horizon=st.integers(1, 5),
    strategy=st.sampled_from(["bayes", "deterministic", "randomized", "mixture"]),
    truncated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_matches_the_mask_loop(kind, k, m, d, horizon, strategy, truncated, seed):
    rng = np.random.default_rng(seed)
    if kind != "counts":
        horizon = min(horizon, 4 if k <= 2 else 3)
    p = _problem(rng, kind, k, m, d, groups=True)
    engine = _engine(kind)
    space = state_space(p, engine)
    rule = _random_rule(rng, space, engine, horizon, truncated)
    sizes = [space.n_states(n) for n in range(1, horizon + 1)]
    decision = None
    if strategy == "deterministic":
        decision = so.DecisionStrategy([rng.integers(0, d, size=s) for s in sizes])
    elif strategy == "randomized":
        probs = _random_probs(rng, space, horizon, d)
        decision = so.DecisionStrategy([q.argmax(axis=1) for q in probs], probs)
    elif strategy == "mixture":
        packs = []
        for _ in range(int(rng.integers(1, 4))):
            pair_rule = _random_rule(rng, space, engine, horizon, True)
            pair_decision = so.DecisionStrategy([rng.integers(0, d, size=s) for s in sizes])
            packs.append(_Pack(None, pair_rule, pair_decision, None, horizon))
        mu = rng.dirichlet(np.ones(len(packs)))
        rule, decision = _mixture(space, packs, mu, d)
    lam = rng.uniform(0.0, 5.0, size=2) if p.constraints is not None else None
    got, got_mass = _forward(p, rule, decision, lam)
    want, want_mass = reference_forward(p, rule, decision, lam)
    _assert_same_report(got, want)
    assert _bits(got_mass) == _bits(want_mass)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 4),
    cap=st.integers(1, 30),
    a=st.floats(0.1, 4.0),
    b=st.floats(0.1, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_capped_sprt_matches_the_mask_loop(k, cap, a, b, seed):
    rng = np.random.default_rng(seed)
    pmf = rng.uniform(0.05, 1.0, size=(2, k))
    p = so.iid_problem(pmf / pmf.sum(axis=1, keepdims=True), so.zero_one_loss(2),
                       [0.5, 0.5], [0.5, 0.5], 0.01)
    spec = so.SprtSpec(a_upper=a, b_lower=-b, cap=cap)
    rule, decision = so.sprt_rule(p, spec)
    capped = so.truncate_rule(rule, cap, state_space(p, "counts"))
    got, got_mass = _forward(p, capped, decision)
    want, want_mass = reference_forward(p, capped, decision)
    _assert_same_report(got, want)
    assert _bits(got_mass) == _bits(want_mass)


@settings(max_examples=60, deadline=None)
@given(
    kind_k=st.one_of(
        st.tuples(st.just("counts"), st.integers(2, 4)),
        st.tuples(st.sampled_from(["tree_iid", "markov"]), st.integers(2, 3)),
    ),
    m=st.integers(1, 3),
    d=st.integers(1, 3),
    horizon_stop=st.integers(2, 6).flatmap(
        lambda h: st.tuples(st.just(h), st.integers(1, h - 1))
    ),
    strategy=st.sampled_from(["bayes", "deterministic", "randomized"]),
    truncated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_walk_ends_with_its_mass(kind_k, m, d, horizon_stop, strategy, truncated, seed):
    # A rule that stops every history by stage k < horizon: the pass walks no
    # stage past k, yet books what the mask loop books over every stage.
    kind, k = kind_k
    horizon, stop_at = horizon_stop
    rng = np.random.default_rng(seed)
    if kind != "counts":
        horizon = min(horizon, 6 if k == 2 else 4)
        stop_at = min(stop_at, horizon - 1)
    p = _problem(rng, kind, k, m, d, groups=True)  # fresh pmf and loss: a cold loss view
    engine = _engine(kind)
    space = state_space(p, engine)
    rule = _random_rule(rng, space, engine, horizon, truncated)
    rule.stop_probs[stop_at - 1] = np.ones(space.n_states(stop_at))
    sizes = [space.n_states(n) for n in range(1, horizon + 1)]
    decision = None
    if strategy == "deterministic":
        decision = so.DecisionStrategy([rng.integers(0, d, size=s) for s in sizes])
    elif strategy == "randomized":
        probs = _random_probs(rng, space, horizon, d)
        decision = so.DecisionStrategy([q.argmax(axis=1) for q in probs], probs)
    lam = rng.uniform(0.0, 5.0, size=2) if p.constraints is not None else None
    built = []
    build = HistoryTable._build_stage

    def counted(self, n):
        built.append(n)
        return build(self, n)

    with mock.patch.object(HistoryTable, "_build_stage", counted):
        got, got_mass = _forward(p, rule, decision, lam)  # evaluate's pass, with its mass
    assert max(built, default=0) <= stop_at
    assert built == ([] if decision is not None else list(range(1, len(built) + 1)))
    assert got.stats["stages"] <= stop_at
    assert got.stats["states"] == sum(sizes[: got.stats["stages"]])
    assert got_mass.shape == (sizes[-1], p.n_params) and not got_mass.any()
    want, want_mass = reference_forward(p, rule, decision, lam)
    _assert_same_report(got, want)
    assert _bits(got_mass) == _bits(want_mass)


def test_stats_describe_the_pass_and_stay_out_of_outputs(symmetric):
    rule = so.extract_rule(so.solve_truncated(symmetric, 6))
    rep = so.evaluate(symmetric, rule)
    assert set(rep.stats) == {"forward_s", "stages", "states"}
    assert rep.stats["forward_s"] >= 0.0
    # The rule stops every history by stage 5: no stage-6 state is reachable,
    # so the pass walks stages 1..5 of the 6 it covers.
    reach = reachable_sets(rule, state_space(symmetric))
    assert [bool(r.any()) for r in reach] == [True] * 5 + [False]
    assert rep.stats["stages"] == 5
    assert rep.stats["states"] == sum(n + 1 for n in range(1, 6))  # K=2 count states
    assert "stats" not in rep.to_dict()
    assert "stats" not in repr(rep)


def test_decision_probabilities_leave_the_stopping_mass_alone(symmetric):
    # A file strategy's rows need only sum to 1 within 1e-9; the stopping
    # mass reads the rule alone, so it stays bit for bit the same.
    rule = so.extract_rule(so.solve_truncated(symmetric, 6))
    base = so.evaluate(symmetric, rule)
    bayes = so.DecisionStrategy.bayes(so.HistoryTable(symmetric), 6)
    probs = [np.eye(2)[dec] * (1.0 - 5e-10) for dec in bayes.decisions]
    rep = so.evaluate(symmetric, rule, so.DecisionStrategy(bayes.decisions, probs))
    assert np.array_equal(rep.stop_dist_theta, base.stop_dist_theta)
    assert np.array_equal(rep.mass_stopped_theta, base.mass_stopped_theta)
    assert rep.n_psi == base.n_psi
    assert rep.decision_probs == pytest.approx(base.decision_probs * (1.0 - 5e-10), rel=1e-12)


def _malformed(case, sizes):
    decisions = [np.zeros(s, dtype=np.int64) for s in sizes]
    if case == "short_stage":
        decisions[2] = decisions[2][:-1]
        return so.DecisionStrategy(decisions), "decision stage 3 covers 3 states, problem has 4"
    if case == "negative":
        decisions = [np.full(s, -1) for s in sizes]
        return so.DecisionStrategy(decisions), r"decision stage 1 has indices outside \[0, 2\)"
    if case == "past_last":
        decisions[1][0] = 2
        return so.DecisionStrategy(decisions), r"decision stage 2 has indices outside \[0, 2\)"
    if case == "float":
        decisions = [d.astype(float) for d in decisions]
        return so.DecisionStrategy(decisions), "decision indices must be integers, got float64"
    if case == "probs_shape":
        probs = [np.full((s, 3), 1.0 / 3.0) for s in sizes]
        return (
            so.DecisionStrategy(decisions, probs),
            r"decision probabilities of stage 1 have shape \(2, 3\), expected \(2, 2\)",
        )
    # Rows a rule file could not hold; rows of [0.9, 0.9] once evaluated to
    # decision_probs rows [0.9, 0.9].
    row = {"probs_sum": [0.9, 0.9], "probs_negative": [1.5, -0.5], "probs_nan": [np.nan, 1.0]}
    probs = [np.full((s, 2), 0.5) for s in sizes]
    probs[2][1] = row[case]
    return (
        so.DecisionStrategy(decisions, probs),
        r"decision probabilities of stage 3 must lie in \[0, 1\] and sum to 1",
    )


@pytest.mark.parametrize("call", ["evaluate", "simulate"])
@pytest.mark.parametrize(
    "case",
    ["short_stage", "negative", "past_last", "float", "probs_shape", "probs_sum",
     "probs_negative", "probs_nan"],
)
def test_malformed_decision_strategies_raise(case, call):
    # All -1 decisions once evaluated to r=0.538946 with decision_probs rows
    # summing to 0, and a 3-column probs simulated without error.
    p = so.load_problem(CONFIGS / "symmetric.json")
    rule = so.extract_rule(so.solve_truncated(p, 6))
    decision, message = _malformed(case, [len(rule.at(n)) for n in range(1, 7)])
    with pytest.raises(so.SeqOptError, match=message):
        if call == "evaluate":
            so.evaluate(p, rule, decision)
        else:
            so.simulate(p, rule, so.SimConfig(replications=10, seed=1, cap=6), decision)


@pytest.mark.parametrize("call", ["evaluate", "simulate"])
@pytest.mark.parametrize("value", [1.5, -0.25, np.nan])
def test_stop_probabilities_outside_the_unit_interval_raise(value, call):
    # These once evaluated without error: 1.5 across stage 1 gave r = 0.405,
    # with mass_stopped_theta [1.5, 1.5] and r_finite True.
    p = so.load_problem(CONFIGS / "two_channel.json")
    # with_prob refuses such a value, so the stage is edited in a copy.
    rule = so.extract_rule(so.solve_truncated(p, 6))
    probs = [a.copy() for a in rule.stop_probs]
    probs[1][1] = value
    rule = so.StoppingRule(rule.engine, probs, rule.truncated)
    with pytest.raises(so.SeqOptError, match=r"rule stage 2 has stop probabilities outside \["):
        if call == "evaluate":
            so.evaluate(p, rule)
        else:
            so.simulate(p, rule, so.SimConfig(replications=10, seed=1, cap=6))
