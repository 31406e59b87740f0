import csv
import io
import math
import re
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqopt as so
from seqopt.histories import state_space

from conftest import random_instance
from oracle import (
    exact_backward,
    exact_rule_risk,
    exact_stage_terms,
    reference_rule_csv,
    reference_values_csv,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _optimal_rule(instance_b, horizon=2):
    return so.extract_rule(so.solve_truncated(instance_b, horizon))


def test_extracted_rule_hand_values(instance_b):
    rule = _optimal_rule(instance_b)
    space = state_space(instance_b, "counts")
    i1 = space.index_of(1, (0, 1))
    i0 = space.index_of(1, (1, 0))
    assert rule.at(1)[i1] == 1.0  # stop after a 1
    assert rule.at(1)[i0] == 0.0  # continue after a 0
    assert np.all(rule.at(2) == 1.0)
    assert rule.truncated


@pytest.mark.parametrize("value", [-0.25, 1.5, math.nan, math.inf])
def test_with_prob_refuses_a_value_outside_the_unit_interval(instance_b, value):
    rule = _optimal_rule(instance_b)
    with pytest.raises(so.SeqOptError, match=r"stop probability .* outside \[0, 1\]"):
        rule.with_prob(1, 0, value)
    assert rule.with_prob(1, 0, 0.25).at(1)[0] == 0.25


def test_with_prob_keeps_truncated_only_while_the_last_stage_stops():
    # Letting state 2|1 continue at the last stage once kept truncated=True,
    # so truncate_rule extended the rule past the mass still running, and
    # truncatability_diagnostic reported no reach beyond it.
    p = so.load_problem(CONFIGS / "two_channel.json")
    rule = so.extract_rule(so.solve_truncated(p, 3))
    space = state_space(p, "counts")
    assert rule.with_prob(2, 0, 0.5).truncated and rule.with_prob(3, 2, 1.0).truncated
    running = rule.with_prob(3, space.index_of(3, (2, 1)), 0.0)
    assert not running.truncated and not so.evaluate(p, running).r_finite
    with pytest.raises(so.SeqOptError, match="cannot truncate at 5"):
        so.truncate_rule(running, 5, space)
    with pytest.raises(so.SeqOptError, match="rule undefined at stage 4"):
        so.truncatability_diagnostic(p, running, [3, 4, 5])


def test_exact_tie_gets_requested_probability():
    # with zero sampling cost, one observation after a 1 is exactly worthless
    p = so.iid_problem(
        [[0.8, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.0
    )
    tables = so.solve_truncated(p, 2)
    space = tables.table.space
    i1 = space.index_of(1, (0, 1))
    assert tables.cont[1][i1] == pytest.approx(tables.value[1][i1], abs=1e-15)
    stop = so.extract_rule(tables, tie_policy="stop")
    cont = so.extract_rule(tables, tie_policy="continue")
    half = so.extract_rule(tables, tie_policy=0.5)
    assert stop.at(1)[i1] == 1.0
    assert cont.at(1)[i1] == 0.0
    assert half.at(1)[i1] == 0.5
    assert i1 in stop.tie_states[0]  # stage-1 ties, indexed from stage 1


def test_tie_policy_validation(instance_b):
    tables = so.solve_truncated(instance_b, 2)
    with pytest.raises(so.SeqOptError):
        so.extract_rule(tables, tie_policy="sometimes")
    with pytest.raises(so.SeqOptError):
        so.extract_rule(tables, tie_policy=1.5)


def test_truncate_rule_idempotent_and_extends(instance_b):
    rule = _optimal_rule(instance_b, 3)
    same = so.truncate_rule(rule, 3)
    assert same.horizon == 3
    assert all(np.array_equal(a, b) for a, b in zip(rule.stop_probs, same.stop_probs))
    shorter = so.truncate_rule(rule, 2)
    assert shorter.horizon == 2
    assert np.all(shorter.at(2) == 1.0)
    space = state_space(instance_b, "counts")
    longer = so.truncate_rule(shorter, 4, space)
    assert longer.horizon == 4
    assert np.all(longer.at(3) == 1.0) and np.all(longer.at(4) == 1.0)


@pytest.mark.parametrize("horizon, truncated, message", [
    (0, True, "horizon must be >= 1"),
    (5, False, r"rule only covers stages 1\.\.3, cannot truncate at 5"),
    (5, True, "extending a truncated rule needs the state space"),  # stages 4 and 5 to fill
    (4, True, "extending a truncated rule needs the state space"),  # only the last stage
], ids=["horizon-0", "untruncated", "no-space-stages", "no-space-last"])
def test_truncate_rule_typed_errors(instance_b, horizon, truncated, message):
    rule = _optimal_rule(instance_b, 3)
    rule = so.StoppingRule(rule.engine, rule.stop_probs, truncated=truncated)
    with pytest.raises(so.SeqOptError, match=message):
        so.truncate_rule(rule, horizon)


def test_reachable_sets_prune_stopped_branches(instance_b):
    # three-stage optimum: continue through stage 1, stop at stage 2 on
    # agreement (two 1s or two 0s), continue on a split sample
    rule = _optimal_rule(instance_b, 3)
    space = state_space(instance_b, "counts")
    assert rule.at(2)[space.index_of(2, (0, 2))] == 1.0
    assert rule.at(2)[space.index_of(2, (1, 1))] == 0.0
    assert rule.at(2)[space.index_of(2, (2, 0))] == 1.0
    masks = so.reachable_sets(rule, space)
    assert masks[0].all() and masks[1].all()
    # only the children of the split sample survive to stage 3
    assert not masks[2][space.index_of(3, (0, 3))]
    assert masks[2][space.index_of(3, (1, 2))]
    assert masks[2][space.index_of(3, (2, 1))]
    assert not masks[2][space.index_of(3, (3, 0))]


def test_sandwich_holds_for_extracted_rule(instance_b):
    tables = so.solve_truncated(instance_b, 4)
    rule = so.extract_rule(tables)
    assert so.sandwich_check(rule, tables) == []


def test_sandwich_flags_wrong_rule(instance_b):
    tables = so.solve_truncated(instance_b, 2)
    rule = so.extract_rule(tables)
    space = tables.table.space
    i1 = space.index_of(1, (0, 1))
    bad = rule.with_prob(1, i1, 0.0)  # refuses to stop where stopping is strictly better
    violations = so.sandwich_check(bad, tables)
    assert len(violations) == 1
    v = violations[0]
    assert (v.stage, v.state) == (1, i1)
    assert v.label == "0|1"
    assert v.stop_loss < v.continue_value


def test_sandwich_ignores_unreachable_states(instance_b):
    tables = so.solve_truncated(instance_b, 4)
    rule = so.extract_rule(tables)
    space = tables.table.space
    # stage 2 stops at (0,2), so its child (0,3) is never reached; a wrong
    # entry there must not be reported
    assert rule.at(2)[space.index_of(2, (0, 2))] == 1.0
    i = space.index_of(3, (0, 3))
    assert rule.at(3)[i] == 1.0
    bad = rule.with_prob(3, i, 0.0)
    assert so.sandwich_check(bad, tables) == []


def test_rule_csv_round_trip(instance_b):
    rule = _optimal_rule(instance_b, 3)
    buf = io.StringIO()
    rule.to_csv(buf, instance_b)
    buf.seek(0)
    back, decision = so.rule_from_csv(buf, instance_b)
    assert decision is None
    assert back.engine == rule.engine
    assert back.horizon == rule.horizon
    assert back.truncated == rule.truncated
    for n in range(1, 4):
        assert np.array_equal(back.at(n), rule.at(n))


def test_rule_csv_rejects_gaps(instance_b):
    rule = _optimal_rule(instance_b, 2)
    buf = io.StringIO()
    rule.to_csv(buf, instance_b)
    lines = buf.getvalue().splitlines()
    broken = io.StringIO("\n".join(lines[:-1]) + "\n")
    with pytest.raises(so.SeqOptError):
        so.rule_from_csv(broken, instance_b)


def test_rule_csv_rejects_bad_probability(instance_b):
    rule = _optimal_rule(instance_b, 2)
    buf = io.StringIO()
    rule.to_csv(buf, instance_b)
    text = buf.getvalue().replace("1.0", "1.5", 1)
    with pytest.raises(so.SeqOptError):
        so.rule_from_csv(io.StringIO(text), instance_b)


def test_tie_policies_give_equal_risk():
    # any selection inside the sandwich attains the same risk
    p = so.iid_problem(
        [[0.8, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.0
    )
    tables = so.solve_truncated(p, 2)
    risks = [
        so.evaluate(p, so.extract_rule(tables, tie_policy=tp)).r
        for tp in ("stop", "continue", 0.5)
    ]
    assert max(risks) - min(risks) <= 1e-9
    assert risks[0] == pytest.approx(tables.q0, abs=1e-12)


@st.composite
def _rational_iid(draw):
    """An iid problem with small-integer-ratio pmfs, priors and losses, and a horizon."""
    k, m, d = draw(st.integers(2, 3)), draw(st.integers(2, 3)), draw(st.integers(2, 3))

    def pmf_row(size):
        weights = draw(st.lists(st.integers(0, 9), min_size=size, max_size=size).filter(any))
        return [float(Fraction(v, sum(weights))) for v in weights]

    pmf = [pmf_row(k) for _ in range(m)]
    loss = [draw(st.lists(st.integers(0, 4), min_size=d, max_size=d)) for _ in range(m)]
    cost = float(Fraction(draw(st.integers(1, 60)), 1000))
    horizon = draw(st.integers(1, 60 if k == 2 else 16))
    return so.iid_problem(pmf, loss, pmf_row(m), pmf_row(m), cost), horizon


@settings(max_examples=30, deadline=None)
@given(_rational_iid())
# With an absolute tie margin, 868 stage states of this example read as ties,
# and the "stop" and "continue" rules missed q0 by 5e-4 and 2e-3.
@example((so.load_problem(CONFIGS / "symmetric.json"), 60))
def test_float_solve_and_extraction_match_exact_rationals(problem_horizon):
    """q0, the extracted rules' risks and every strict side against exact rationals.

    The referee takes the problem's float inputs as exact Fractions, so both
    solve the same problem and differ only by rounding.
    """
    p, horizon = problem_horizon
    frac = lambda a: [[Fraction(v) for v in row] for row in np.atleast_2d(a).tolist()]
    terms = exact_stage_terms(
        frac(p.obs.iid_pmf), frac(p.priors.pi1)[0], frac(p.priors.pi2)[0], frac(p.loss.w), horizon
    )
    stages, stop_loss, _ = terms
    c = Fraction(p.cost.c)
    cont = exact_backward(terms, c)
    q0 = cont[stages[0][0]]
    tol = Fraction(1e-12) * max(1, q0)
    tables = so.solve_truncated(p, horizon, engine="counts")
    assert abs(Fraction(tables.q0) - q0) <= tol
    for policy in ("stop", "continue"):
        rule = so.extract_rule(tables, policy)
        stop_probs = [frac(rule.at(n))[0] for n in range(1, horizon + 1)]
        assert abs(exact_rule_risk(terms, c, stop_probs) - q0) <= tol, policy
    # With ties at 0.5, a float stop reads 1 and a float continue 0.
    half = so.extract_rule(tables, 0.5)
    for n in range(1, horizon):
        for s, q in zip(stages[n], half.at(n).tolist()):
            diff = stop_loss[s] - cont[s]
            assert not (diff < 0 and q == 0.0 or diff > 0 and q == 1.0), (n, s)


def _k3_problem() -> so.Problem:
    return so.iid_problem(
        [[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.02
    )


def _random_rule_csv(engine: str, horizon: int = 4) -> tuple[so.StoppingRule, str]:
    p = _k3_problem()
    space = state_space(p, engine)
    rng = np.random.default_rng(5)
    probs = [rng.random(space.n_states(n)) for n in range(1, horizon + 1)]
    rule = so.StoppingRule(engine, probs, truncated=False)
    buf = io.StringIO()
    rule.to_csv(buf, p)
    return rule, buf.getvalue()


@pytest.mark.parametrize("engine", ["counts", "tree"])
def test_rule_csv_round_trip_both_engines(engine):
    rule, text = _random_rule_csv(engine)
    back, _ = so.rule_from_csv(io.StringIO(text), _k3_problem())
    assert (back.engine, back.horizon, back.truncated) == (engine, 4, False)
    for n in range(1, 5):
        assert back.at(n).tobytes() == rule.at(n).tobytes()


@pytest.mark.parametrize(
    "engine,label",
    [
        ("counts", "1|x|1"),
        ("counts", "01|1|0"),
        ("counts", "1|1"),
        ("counts", "1|1|0|0"),
        ("counts", "1|1|1"),
        ("tree", "0,x"),
        ("tree", "0"),
        ("tree", "0,1,2"),
        ("tree", "0,3"),
    ],
    ids=[
        "counts-malformed", "counts-leading-zero", "counts-short", "counts-long",
        "counts-wrong-sum", "tree-malformed", "tree-short", "tree-long", "tree-symbol-range",
    ],
)
def test_rule_csv_rejects_unknown_state_labels(engine, label):
    _, text = _random_rule_csv(engine)
    rows = list(csv.reader(io.StringIO(text)))
    next(r for r in rows if r[1] == "2")[2] = label
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    out.seek(0)
    with pytest.raises(so.SeqOptError, match=f"unknown state '{re.escape(label)}' at stage 2"):
        so.rule_from_csv(out, _k3_problem())


def test_rule_csv_rejects_stage_zero(instance_b):
    text = "engine,stage,state,stop_prob\ncounts,0,0|0,1.0\ncounts,1,1|0,1.0\ncounts,1,0|1,1.0\n"
    with pytest.raises(so.SeqOptError, match=re.escape("unknown state '0|0' at stage 0")):
        so.rule_from_csv(io.StringIO(text), instance_b)


@pytest.mark.parametrize(
    "text",
    [
        "engine,stage,state\ncounts,1,1|0\ncounts,1,0|1\n",
        "engine,stage,state,stop_prob\ncounts,1,1|0,1.0\ncounts,1,0|1\n",
    ],
    ids=["missing-column", "short-row"],
)
def test_rule_csv_rejects_missing_fields(instance_b, text):
    with pytest.raises(so.SeqOptError, match="columns"):
        so.rule_from_csv(io.StringIO(text), instance_b)


@pytest.mark.parametrize("engine, k, horizon", [("counts", 3, 6), ("tree", 3, 4), ("tree", 11, 2)])
def test_rule_csv_matches_row_by_row_writer(engine, k, horizon):
    rng = np.random.default_rng(k * horizon)
    p, _ = random_instance(rng, m=2, k=k)
    space = state_space(p, engine)
    probs = [rng.uniform(size=space.n_states(n)) for n in range(1, horizon + 1)]
    probs[0][0] = 1.0
    rule = so.StoppingRule(engine, probs, truncated=False)
    buf = io.StringIO()
    rule.to_csv(buf, p)
    assert buf.getvalue() == reference_rule_csv(rule, space)


# Floats the writers must spell exactly as repr does: signed zeros, infinities,
# NaN, subnormals, both ends of the exponent range and the two ends of repr's
# positional notation (1e-05 and 1e+16 switch to exponents).
_SPECIAL_FLOATS = [
    0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320, 1e300, 1e-300, 1e-05, 1e16,
]
# A NaN of another payload: the value column must still pick its side by bits.
_NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0])


def _stage_floats(rng, palette, size, fresh_frac=0.5):
    """Special floats and the palette's, or random magnitudes across the exponent range."""
    out = rng.choice(np.array(_SPECIAL_FLOATS + palette + [_NAN_PAYLOAD]), size)
    fresh = rng.random(size) < fresh_frac
    out[fresh] = rng.standard_normal(fresh.sum()) * 10.0 ** rng.integers(-300, 300, fresh.sum())
    return out


@settings(max_examples=40, deadline=None)
@given(
    engine_k_horizon=st.one_of(
        st.tuples(st.just("counts"), st.integers(2, 4), st.integers(1, 7)),
        st.tuples(st.just("tree"), st.integers(2, 11), st.integers(1, 3)),
    ),
    palette=st.lists(st.sampled_from(_SPECIAL_FLOATS) | st.floats(), min_size=1, max_size=6),
    d_count=st.integers(0, 3),
    fresh_frac=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # every value repeated, -0.0 beside 0.0: the rule writer formats by bits
    engine_k_horizon=("counts", 3, 7), palette=[-0.0, 5e-324, 1e-05, 1e16, 1e-05, -0.0],
    d_count=2, fresh_frac=0.0, seed=3,
)
def test_csv_writers_match_row_by_row_writers(engine_k_horizon, palette, d_count, fresh_frac, seed):
    engine, k, horizon = engine_k_horizon
    rng = np.random.default_rng(seed)
    loss = np.ones((2, max(d_count, 1)))  # the problem's decision count is the file's
    p = so.iid_problem(np.full((2, k), 1.0 / k), loss, [0.5, 0.5], [0.5, 0.5], 0.01)
    space = state_space(p, engine)
    sizes = [space.n_states(n) for n in range(horizon + 1)]
    stops = [_stage_floats(rng, palette, s) for s in sizes]
    conts = [_stage_floats(rng, palette, s) for s in sizes[:-1]]
    table = SimpleNamespace(space=space, stage=lambda n: SimpleNamespace(stop_loss=stops[n]))
    tables = so.ValueTables(table, horizon, conts)
    buf = io.StringIO()
    tables.to_csv(buf)
    assert buf.getvalue() == reference_values_csv(tables)

    stage_probs = [_stage_floats(rng, palette, s, fresh_frac) for s in sizes[1:]]
    rule = so.StoppingRule(engine, stage_probs, True)
    probs = decision = None
    if d_count:
        probs = [
            _stage_floats(rng, palette, s * d_count, fresh_frac).reshape(s, d_count)
            for s in sizes[1:]
        ]
        decision = so.DecisionStrategy([np.zeros(s, dtype=np.uint8) for s in sizes[1:]], probs)
    buf = io.StringIO()
    rule.to_csv(buf, p, decision)
    assert buf.getvalue() == reference_rule_csv(rule, space, probs)


@pytest.mark.parametrize("width", [1, 3])
def test_rule_csv_refuses_probs_of_another_width(width):
    # A file with two decision columns over three-column rows would be refused
    # by rule_from_csv; the writer refuses the strategy first and writes nothing.
    p = so.load_problem(CONFIGS / "two_channel.json")
    rule = so.extract_rule(so.solve_truncated(p, 3))
    sizes = [state_space(p).n_states(n) for n in range(1, 4)]
    decision = so.DecisionStrategy([np.zeros(s, dtype=np.uint8) for s in sizes],
                                   [np.full((s, width), 1.0 / width) for s in sizes])
    buf = io.StringIO()
    message = f"decision probabilities of stage 1 are {width} decisions wide"
    with pytest.raises(so.SeqOptError, match=message) as exc:
        rule.to_csv(buf, p, decision)
    assert f"the problem has {p.n_decisions}" in str(exc.value)
    assert buf.getvalue() == ""


def test_only_extracted_rules_keep_their_table(instance_b):
    tables = so.solve_truncated(instance_b, 3)
    rule = so.extract_rule(tables)
    assert rule._table is tables.table
    buf = io.StringIO()
    rule.to_csv(buf, instance_b)
    buf.seek(0)
    derived = (
        rule.with_prob(1, 0, 0.5),
        so.truncate_rule(rule, 2),
        so.rule_from_csv(buf, instance_b)[0],
    )
    assert all(r._table is None for r in derived)


def _randomized(probs: list[np.ndarray]) -> so.DecisionStrategy:
    """The strategy of (S, D) decision probabilities, each state's likeliest decision kept."""
    return so.DecisionStrategy([q.argmax(axis=1) for q in probs], probs)


def _decision_probs(space, horizon: int, d_count: int) -> so.DecisionStrategy:
    rng = np.random.default_rng(9)
    out = []
    for n in range(1, horizon + 1):
        q = rng.random((space.n_states(n), d_count))
        out.append(q / q.sum(axis=1, keepdims=True))
    return _randomized(out)


@settings(max_examples=40, deadline=None)
@given(
    engine_k_horizon=st.one_of(
        st.tuples(st.just("counts"), st.integers(2, 3), st.integers(1, 6)),
        st.tuples(st.just("tree"), st.integers(2, 3), st.integers(1, 4)),
    ),
    d_count=st.integers(1, 3),
    first_d_count=st.integers(1, 3),
    kind=st.sampled_from(["deterministic", "bayes", "randomized"]),
    truncated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # the shared space's first problem has three decisions, this one two
    engine_k_horizon=("counts", 2, 3), d_count=2, first_d_count=3, kind="deterministic",
    truncated=True, seed=1,
)
def test_rule_file_round_trips_a_procedure(
    engine_k_horizon, d_count, first_d_count, kind, truncated, seed
):
    """to_csv(fh, p, decision), then rule_from_csv(fh, p), evaluates as the pair did."""
    engine, k, horizon = engine_k_horizon
    rng = np.random.default_rng(seed)
    pmf = rng.uniform(0.1, 1.0, size=(2, k))
    pmf /= pmf.sum(axis=1, keepdims=True)

    def problem(d: int) -> so.Problem:
        return so.iid_problem(pmf, rng.uniform(0, 1, (2, d)), [0.4, 0.6], [0.5, 0.5], 0.01)

    # The space is shared per model: a problem with another loss built it first.
    space = state_space(problem(first_d_count), engine)
    p = problem(d_count)
    assert state_space(p, engine) is space
    sizes = [space.n_states(n) for n in range(1, horizon + 1)]
    stops = [np.where(rng.random(s) < 0.5, rng.choice([0.0, 0.5, 1.0], s), rng.random(s))
             for s in sizes]
    if truncated:
        stops[-1][:] = 1.0
    rule = so.StoppingRule(engine, stops, truncated)
    if kind == "deterministic":  # built by hand: int64 indices, no d_count
        decision = so.DecisionStrategy([rng.integers(0, d_count, s) for s in sizes])
    elif kind == "bayes":
        decision = so.DecisionStrategy.bayes(so.HistoryTable(p, engine), horizon)
    else:
        q = [rng.random((s, d_count)) for s in sizes]
        decision = _randomized([x / x.sum(axis=1, keepdims=True) for x in q])
    buf = io.StringIO()
    rule.to_csv(buf, p, decision)
    buf.seek(0)
    back, back_decision = so.rule_from_csv(buf, p)
    want = so.evaluate(p, rule, decision).to_dict()
    assert so.evaluate(p, back, back_decision).to_dict() == want


@pytest.mark.parametrize("engine", ["counts", "tree"])
def test_rule_csv_decision_columns_round_trip(engine):
    rule, _ = _random_rule_csv(engine)
    p = _k3_problem()
    decision = _decision_probs(state_space(p, engine), rule.horizon, 2)
    buf = io.StringIO()
    rule.to_csv(buf, p, decision)
    assert buf.getvalue().splitlines()[0] == (
        "engine,stage,state,stop_prob,decision_prob_0,decision_prob_1"
    )
    buf.seek(0)
    back, back_decision = so.rule_from_csv(buf, p)
    assert back_decision.d_count is None  # randomized: with_decision refuses it anyway
    for n in range(1, rule.horizon + 1):
        assert back.at(n).tobytes() == rule.at(n).tobytes()
        assert back_decision.probs[n - 1].tobytes() == decision.probs[n - 1].tobytes()
        assert np.array_equal(back_decision.at(n), decision.at(n))
        assert back_decision.at(n).dtype == np.uint8
    _, text = _random_rule_csv(engine)
    assert so.rule_from_csv(io.StringIO(text), p)[1] is None


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: [r[:-1] for r in rows], "decision columns"),
        (lambda rows: [r[:4] + [r[5], r[4]] for r in rows], "decision columns"),
        (lambda rows: rows[:3] + [rows[3][:4] + ["0.5", "0.6"]] + rows[4:], "sum to 1"),
        (lambda rows: rows[:3] + [rows[3][:4] + ["-0.5", "1.5"]] + rows[4:], "lie in"),
    ],
    ids=["one-column", "out-of-order", "bad-sum", "negative"],
)
def test_rule_csv_rejects_bad_decision_columns(edit, message):
    rule, _ = _random_rule_csv("counts")
    p = _k3_problem()
    buf = io.StringIO()
    rule.to_csv(buf, p, _decision_probs(state_space(p, "counts"), rule.horizon, 2))
    rows = edit(list(csv.reader(io.StringIO(buf.getvalue()))))
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    out.seek(0)
    with pytest.raises(so.SeqOptError, match=message):
        so.rule_from_csv(out, p)


def test_rule_csv_reports_the_first_offending_row(instance_b):
    text = (
        "engine,stage,state,stop_prob\n"
        "counts,1,1|0,1.5\ncounts,1,9|9,1.0\ncounts,1,0|1,1.0\n"
    )
    with pytest.raises(so.SeqOptError, match=re.escape("stop probability 1.5 outside [0, 1]")):
        so.rule_from_csv(io.StringIO(text), instance_b)
    text = text.replace("1.5", "1.0").replace("0|1,1.0", "0|1,2.0")
    with pytest.raises(so.SeqOptError, match=re.escape("unknown state '9|9' at stage 1")):
        so.rule_from_csv(io.StringIO(text), instance_b)


_HEAD = "engine,stage,state,stop_prob"
_HEAD_D = _HEAD + ",decision_prob_0,decision_prob_1"


@pytest.mark.parametrize(
    "text, message",
    [
        # A stage that does not read names its row, ahead of a later short stage.
        (f"{_HEAD}\ncounts,1,1|0,1.0\ncounts,x,0|1,1.0\ncounts,2,2|0,1.0\n",
         "rule file row 2, column 'stage': 'x' is not an integer"),
        (f"{_HEAD}\ncounts,1,1|0,1.0\ncounts,1.0,0|1,1.0\n",
         "rule file row 2, column 'stage': '1.0' is not an integer"),
        (f"{_HEAD}\ncounts,99999999999999999999,1|0,1.0\n",
         "rule file row 1, column 'stage': '99999999999999999999' is not an integer"),
        # A stop probability that does not read comes before a later one outside [0, 1] ...
        (f"{_HEAD}\ncounts,1,1|0,abc\ncounts,1,0|1,1.5\n",
         "rule file row 1, column 'stop_prob': 'abc' is not a number"),
        # ... and after an earlier one, and after an unknown state above it.
        (f"{_HEAD}\ncounts,1,1|0,1.5\ncounts,1,0|1,abc\n",
         "rule file row 2, column 'stop_prob': 'abc' is not a number"),
        (f"{_HEAD}\ncounts,1,9|9,1.0\ncounts,1,0|1,abc\ncounts,1,1|0,1.0\n",
         "unknown state '9|9' at stage 1"),
        # The first row with a cell that does not read, at its leftmost such column.
        (f"{_HEAD_D}\ncounts,1,1|0,1.0,1.0,y\ncounts,1,0|1,1.0,x,z\n",
         "rule file row 1, column 'decision_prob_1': 'y' is not a number"),
        (f"{_HEAD_D}\ncounts,1,1|0,1.0,1.0,0.0\ncounts,1,0|1,1.0,x,z\n",
         "rule file row 2, column 'decision_prob_0': 'x' is not a number"),
        # Decision cells are read after every stop probability is checked.
        (f"{_HEAD_D}\ncounts,1,1|0,1.0,x,0.0\ncounts,1,0|1,2.0,0.0,1.0\n",
         "stop probability 2.0 outside [0, 1]"),
        # Quoted text reads as csv.reader reads it.
        (f'{_HEAD}\n"counts","1","1|0","1.0"\n"counts","1","0|1","one"\n',
         "rule file row 2, column 'stop_prob': 'one' is not a number"),
    ],
    ids=["stage", "stage-float", "stage-overflow", "prob-first", "prob-second",
         "unknown-state-first", "decision-leftmost", "decision-first-row", "decision-last",
         "quoted"],
)
def test_rule_csv_names_the_first_unreadable_cell(instance_b, text, message):
    with pytest.raises(so.SeqOptError, match=re.escape(message)):
        so.rule_from_csv(io.StringIO(text), instance_b)


def test_rule_csv_that_is_not_text_raises(instance_b, tmp_path):
    path = tmp_path / "rule.csv"
    path.write_bytes(f"{_HEAD}\ncounts,1,1|0,1.0\n".encode() + b"counts,1,0|1,\xff\n")
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(so.SeqOptError, match="rule file is not CSV text"):
            so.rule_from_csv(fh, instance_b)


@pytest.mark.parametrize(
    "row", ["counts,3000,3000|0,1.0", 'tree,40,"' + ",".join(["0"] * 40) + '",1.0'],
    ids=["counts", "tree"],
)
def test_rule_csv_past_the_state_budget_raises_before_building(row):
    # One row naming a far stage: the budget check comes before any stage is
    # built or any per-stage array is sized.
    p = so.load_problem(CONFIGS / "symmetric.json")
    space = state_space(p, row.split(",")[0])  # held, to look at it after
    # Another test may still hold the space, with stages built.
    states = getattr(space, "_states", {})  # the count engine's built stages
    built = len(states)
    with pytest.raises(so.BudgetExceededError):
        so.rule_from_csv(io.StringIO("engine,stage,state,stop_prob\n" + row + "\n"), p)
    assert len(states) == built


def test_incomplete_rule_csv_raises_before_building():
    # Rows are counted per stage against closed-form stage sizes, and rows
    # naming one state twice are found by their text, before any label is
    # looked up. So an incomplete file, or one that repeats a state, raises
    # with no count stage built, ahead of any row error.
    p = so.load_problem(CONFIGS / "symmetric.json")
    space = state_space(p, "counts")  # held, to look at it after
    built = len(space._states)  # another test may still hold the space
    short_stage_2 = "counts,2,2|0,1.0\ncounts,2,1|1,1.0\n"
    repeats_1_0 = "rule file repeats state '1|0' at stage 1"
    cases = [
        # One row naming stage 2800 (3.9M states, inside the budget).
        ("counts,2800,2800|0,1.0\n", "rule file leaves stage 1 states undefined"),
        # Complete at stage 1, one row short at stage 2, and naming stage 2800.
        ("counts,1,1|0,0.5\ncounts,1,0|1,0.5\n" + short_stage_2 + "counts,2800,2800|0,1.0\n",
         "rule file leaves stage 2 states undefined"),
        # An out-of-range row at stage 1, then a short stage 2: the stage is named.
        ("counts,1,1|0,1.5\ncounts,1,0|1,0.5\n" + short_stage_2,
         "rule file leaves stage 2 states undefined"),
        # Three rows for stage 1's two states, '1|0' twice: this read as
        # [1.0, 1.0], the later row winning.
        ("counts,1,1|0,0.0\ncounts,1,0|1,1.0\ncounts,1,1|0,1.0\n", repeats_1_0),
        # As many rows as states, one of them named twice and one not at all.
        ("counts,1,1|0,0.0\ncounts,1,1|0,1.0\n", repeats_1_0),
    ]
    for rows, message in cases:
        with pytest.raises(so.SeqOptError, match=re.escape(message)):
            so.rule_from_csv(io.StringIO("engine,stage,state,stop_prob\n" + rows), p)
        assert len(space._states) == built


def _corrupt(label: str, sep: str, k: int, pick: int) -> str:
    """A label that names no state of its stage: too long, padded, zero-led or out of range."""
    if pick == 0:
        return f"{label}{sep}0"
    if pick == 1:
        return f" {label}"
    if pick == 2:
        return f"0{label}"
    # One symbol out of range on the tree; one count raised, so the sum is off.
    parts = label.split(sep)
    parts[0] = str(k) if sep == "," else str(int(parts[0]) + 1)
    return sep.join(parts)


@settings(max_examples=40, deadline=None)
@given(
    engine_k_horizon=st.one_of(
        st.tuples(st.just("counts"), st.integers(2, 4), st.integers(1, 8)),
        st.tuples(st.just("tree"), st.integers(2, 3), st.integers(1, 4)),
    ),
    decisions=st.booleans(),
    pick=st.integers(0, 3),
    # Quote-free text is split, quoted text goes through csv.reader: both read alike.
    quoting=st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    eol=st.sampled_from(["\r\n", "\n", "\r"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rule_csv_reads_shuffled_rows_and_names_a_corrupt_label(
    engine_k_horizon, decisions, pick, quoting, eol, seed
):
    engine, k, horizon = engine_k_horizon
    rng = np.random.default_rng(seed)
    p = so.iid_problem(np.full((2, k), 1.0 / k), so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01)
    space = state_space(p, engine)
    sizes = [space.n_states(n) for n in range(1, horizon + 1)]
    rule = so.StoppingRule(engine, [rng.random(s) for s in sizes], truncated=False)
    decision = None
    if decisions:
        probs = [rng.random((s, p.n_decisions)) for s in sizes]
        decision = _randomized([q / q.sum(axis=1, keepdims=True) for q in probs])
    buf = io.StringIO()
    rule.to_csv(buf, p, decision)
    header, *rows = csv.reader(io.StringIO(buf.getvalue()))
    rows = [rows[i] for i in rng.permutation(len(rows))]

    def read(body):
        out = io.StringIO(newline="")
        csv.writer(out, quoting=quoting, lineterminator=eol).writerows([header] + body)
        out.seek(0)
        return so.rule_from_csv(out, p)

    back, back_decision = read(rows)
    assert [a.tobytes() for a in back.stop_probs] == [a.tobytes() for a in rule.stop_probs]
    if decisions:
        assert [q.tobytes() for q in back_decision.probs] == [q.tobytes() for q in decision.probs]
    else:
        assert back_decision is None
    row = rows[rng.integers(len(rows))]
    row[2] = _corrupt(row[2], "|" if engine == "counts" else ",", k, pick)
    message = f"unknown state '{row[2]}' at stage {row[1]}"
    with pytest.raises(so.SeqOptError, match=re.escape(message)):
        read(rows)
