import gc
import math
import weakref
from dataclasses import fields, replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqopt as so
from seqopt.bayes_decision import HistoryTable, decision_dtype
from seqopt.model import with_loss

from conftest import random_instance
from oracle import stage_loss, tree_history, tree_index


def _stop(p: so.Problem, hist: tuple[int, ...]) -> tuple[int, float]:
    """(decision, stop loss) the tree engine's loss view holds at a history."""
    st = HistoryTable(p, "tree").stage(len(hist))
    idx = tree_index(p.alphabet_size, hist)
    return int(st.decision[idx]), float(st.stop_loss[idx])


def test_stage_loss_hand_values(instance_b):
    # one observation: symbol 1 favors the second parameter
    d, loss = _stop(instance_b, (1,))
    assert d == 1
    assert loss == pytest.approx(0.10, abs=1e-12)
    d0, loss0 = _stop(instance_b, (0,))
    assert d0 == 0
    assert loss0 == pytest.approx(0.15, abs=1e-12)


def test_stage_loss_two_observations(instance_b):
    cases = {
        (1, 1): (1, 0.02),
        (1, 0): (1, 0.08),
        (0, 1): (1, 0.08),
        (0, 0): (0, 0.045),
    }
    for hist, (exp_d, exp_loss) in cases.items():
        d, loss = _stop(instance_b, hist)
        assert d == exp_d, hist
        assert loss == pytest.approx(exp_loss, abs=1e-12), hist


def test_no_observation_loss(instance_b):
    table = HistoryTable(instance_b)
    assert table.l0 == pytest.approx(0.5, abs=1e-15)


def test_tie_reported_on_symmetric_history():
    p = so.iid_problem(
        [[0.3, 0.7], [0.7, 0.3]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01
    )
    f = so.state_space(p, "tree").densities(2)[tree_index(2, (0, 1))]
    costs = (f * p.priors.pi1) @ p.loss.w
    assert costs[0] == costs[1]  # both decisions cost the same
    d, loss = _stop(p, (0, 1))
    assert d == 0  # lowest index wins ties
    assert loss == pytest.approx(0.5 * 0.21, abs=1e-15)


def test_stage_loss_matches_reference_on_random_instances():
    rng = np.random.default_rng(21)
    for _ in range(10):
        p, raw = random_instance(rng)
        table = HistoryTable(p, "tree")
        for n in range(3):
            stage = table.stage(n)
            for idx in range(2**n):
                hist = tree_history(2, n, idx)
                exp_loss, exp_d = stage_loss(raw["pmf"], raw["pi1"], raw["w"], hist)
                assert stage.stop_loss[idx] == pytest.approx(exp_loss, abs=1e-13)
                assert stage.decision[idx] == exp_d


def test_posterior_hand_value(instance_b):
    # The stop loss per unit of pi2 mixture density: in the Bayes setting
    # (pi1 == pi2) the posterior expected loss of the best decision.
    idx = tree_index(2, (1,))
    f = so.state_space(instance_b, "tree").densities(1)[idx]
    weighted = f * instance_b.priors.pi1
    assert weighted / weighted.sum() == pytest.approx([2 / 9, 7 / 9], abs=1e-14)
    _, loss = _stop(instance_b, (1,))
    assert loss / (f @ instance_b.priors.pi2) == pytest.approx(2 / 9, abs=1e-14)


def test_stagewise_risk_hand_values(instance_b):
    assert so.stagewise_bayes_risk(instance_b, 1) == pytest.approx(0.25, abs=1e-12)
    assert so.stagewise_bayes_risk(instance_b, 2) == pytest.approx(0.225, abs=1e-12)


def test_stagewise_risk_monotone_nonincreasing(instance_b, symmetric):
    for p in (instance_b, symmetric):
        risks = [so.stagewise_bayes_risk(p, n) for n in range(1, 13)]
        assert all(a >= b - 1e-12 for a, b in zip(risks, risks[1:]))


def test_stagewise_risk_flat_when_uninformative(uninformative):
    for n in range(1, 6):
        assert so.stagewise_bayes_risk(uninformative, n) == pytest.approx(0.5, abs=1e-12)


def test_multiplier_scaling_scales_losses(instance_b):
    d, loss = _stop(instance_b, (1,))
    wp = so.weighted_problem(instance_b, [2.0, 2.0])
    d2, loss2 = _stop(wp, (1,))
    assert d2 == d
    assert loss2 == pytest.approx(2 * loss, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 3), n=st.integers(0, 8))
def test_stagewise_risk_matches_history_sum(seed, k, n):
    # Both engines' forward-mass risk against the sum of the stage loss over
    # every length-n history, computed history by history.
    p, raw = random_instance(np.random.default_rng(seed), k=k)
    want = sum(
        stage_loss(raw["pmf"], raw["pi1"], raw["w"], hist)[0]
        for hist in product(range(k), repeat=n)
    )
    for engine in ("tree", "counts"):
        got = so.stagewise_bayes_risk(p, n, engine)
        assert abs(got - want) <= 1e-12 * max(1.0, want), engine


def test_stagewise_risk_stays_finite_at_depth(symmetric):
    # Per-history densities underflow long before n = 1000, and the history
    # counts of a count state overflow past n = 1030; forward mass does neither.
    risks = [so.stagewise_bayes_risk(symmetric, n) for n in (1000, 1040, 2048)]
    assert all(math.isfinite(r) and r > 0 for r in risks)
    assert risks[0] >= risks[1] >= risks[2]


def _markov_problem() -> so.Problem:
    from seqopt.model import ObservationModel

    rows = {0: ((0.6, 0.3, 0.1), (0.2, 0.5, 0.3)), 1: ((0.1, 0.3, 0.6), (0.3, 0.3, 0.4))}

    def kernel(theta, hist):
        # order 1: the next symbol depends on whether the last one was 0
        return rows[theta][0 if not hist or hist[-1] == 0 else 1]

    return so.Problem(
        params=so.ParameterSpace(("a", "b")),
        obs=ObservationModel(alphabet_size=3, kind="dependent", kernel=kernel),
        loss=so.LossSpec(("d1", "d2"), so.zero_one_loss(2)),
        priors=so.Priors(np.array([0.4, 0.6]), np.array([0.5, 0.5])),
        cost=so.CostSpec(0.02),
    )


def reference_stages(p: so.Problem, space, n: int) -> list[tuple[np.ndarray, ...]]:
    """Stages 0..n as one table computed densities and losses together.

    Per stage: (f_theta, stop_loss, decision). This is the arithmetic the
    state space and the loss view split between them.
    """
    out = []
    f_theta = np.ones((1, p.n_params))
    for stage in range(n + 1):
        if stage > 0:
            children = space.children(stage - 1)
            step = space.step_probs(stage - 1)
            nxt = np.empty((space.n_states(stage), p.n_params))
            for x in range(p.alphabet_size):
                nxt[children[:, x], :] = f_theta * step[:, :, x]
            f_theta = nxt
        costs = (f_theta * p.priors.pi1[None, :]) @ p.loss.w
        decision = costs.argmin(axis=1).astype(decision_dtype(p.n_decisions))
        out.append((f_theta, costs.min(axis=1), decision))
    return out


def test_loss_changes_share_one_layer(instance_b):
    # Loss and prior changes alike share the space: its densities need neither.
    table = HistoryTable(instance_b)
    pi = np.array([0.3, 0.7])
    for other in (
        so.weighted_problem(instance_b, [3.0, 0.5]),
        with_loss(instance_b, 2.0 * instance_b.loss.w),
        replace(instance_b, priors=so.Priors(pi, instance_b.priors.pi2)),
        replace(instance_b, priors=so.Priors(instance_b.priors.pi1, pi)),
    ):
        view = HistoryTable(other)
        assert view.space is table.space
        assert so.state_space(other, "counts") is table.space
    assert so.state_space(instance_b, "tree") is not table.space


def test_layer_is_freed_with_its_last_holder(instance_b):
    tables = so.solve_truncated(instance_b, 6)
    ref = weakref.ref(tables.table.space)
    view = HistoryTable(so.weighted_problem(instance_b, [2.0, 1.0]))
    assert view.space is ref()
    del tables
    gc.collect()
    assert ref() is not None  # the loss view still holds it
    del view
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("engine", ["counts", "tree", "kernel"])
def test_shared_stage_arrays_are_bit_identical(instance_b, engine):
    if engine == "kernel":
        p, engine, n = _markov_problem(), "tree", 6
    else:
        p, n = instance_b, 8
    first = HistoryTable(p, engine)
    first.stage(n // 2)  # the other views extend stages the first one built
    unshared = type(first.space)(p)
    # A scaled loss, and one with two equal columns: there every state ties,
    # which pins the lowest-index decision. Then a pi1-only and a pi2-only change.
    pi = np.array([0.3, 0.7])
    for other in (
        with_loss(p, 1.5 * p.loss.w),
        with_loss(p, p.loss.w[:, [0, 0]]),
        replace(p, priors=so.Priors(pi, p.priors.pi2)),
        replace(p, priors=so.Priors(p.priors.pi1, pi)),
    ):
        shared = HistoryTable(other, engine)
        assert shared.space is first.space
        ref = reference_stages(other, so.state_space(p, engine), n)
        for stage in range(n + 1):
            st, f_theta = shared.stage(stage), shared.space.densities(stage)
            for got, want in zip((f_theta, st.stop_loss, st.decision), ref[stage]):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert f_theta.tobytes() == unshared.densities(stage).tobytes()


@pytest.mark.parametrize("k, m, horizon", [(2, 3, 200), (3, 2, 60)])
def test_stored_bytes_per_state(k, m, horizon):
    # What a solve holds per state: int32 counts, intp child tables (numpy
    # casts every index array to intp for a gather), float64 densities and
    # stage losses, and one byte per decision index. A widened dtype fails here.
    p, _ = random_instance(np.random.default_rng(k), m=m, k=k)
    assert p.n_decisions == m
    table = HistoryTable(p, "counts")
    space = table.space
    index_bytes = np.dtype(np.intp).itemsize
    for n in range(horizon + 1):
        st, size = table.stage(n), space.n_states(n)
        per_state = [
            a.nbytes / size
            for a in (space.states(n), space.densities(n), st.stop_loss, st.decision)
        ]
        assert per_state == [4 * k, 8 * m, 8, 1], n
        if n < horizon:
            assert space.children(n).nbytes == index_bytes * k * size


def test_pi2_change_shares_the_densities_and_the_view(instance_b, monkeypatch):
    # pi2 and c price observations in the solve; the loss view needs neither.
    table = HistoryTable(instance_b)
    mine = [table.stage(n) for n in range(7)]
    built = len(table.space._densities)
    calls = _count_stage_builds(monkeypatch)
    pi2 = np.array([0.3, 0.7])
    other = HistoryTable(replace(instance_b, priors=so.Priors(instance_b.priors.pi1, pi2)))
    assert other.space is table.space and other._stages is table._stages
    assert [other.stage(n) for n in range(7)] == mine
    assert calls == [] and len(table.space._densities) == built


def test_shared_arrays_are_read_only(instance_b):
    table = HistoryTable(instance_b)
    st = table.stage(3)
    assert [f.name for f in fields(st)] == ["stop_loss", "decision"]
    for arr in (table.space.densities(3), st.stop_loss, st.decision):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def _count_stage_builds(monkeypatch) -> list[int]:
    calls: list[int] = []
    build = HistoryTable._build_stage

    def counted(self, n):
        calls.append(n)
        return build(self, n)

    monkeypatch.setattr(HistoryTable, "_build_stage", counted)
    return calls


def test_one_view_serves_solve_evaluate_and_bayes(monkeypatch):
    p, _ = random_instance(np.random.default_rng(8), m=2, k=3)
    calls = _count_stage_builds(monkeypatch)
    tables = so.solve_truncated(p, 30)
    so.evaluate(p, so.extract_rule(tables))
    decision = so.DecisionStrategy.bayes(HistoryTable(p), 30)
    assert sorted(calls) == list(range(31))  # each stage once, for all three
    assert HistoryTable(p)._stages is tables.table._stages
    assert all(decision.at(n) is tables.table.stage(n).decision for n in range(1, 31))
    # limit mode: each doubling's solve reuses the stages the previous one built
    q, _ = random_instance(np.random.default_rng(9), m=2, k=2)
    calls.clear()
    limit = so.solve_limit(q, tol=0.0, n_cap=64)
    assert limit.horizon == 64 and sorted(calls) == list(range(65))


def test_other_loss_or_pi1_gets_its_own_view(instance_b):
    table = HistoryTable(instance_b)
    other_loss = HistoryTable(with_loss(instance_b, 2.0 * instance_b.loss.w))
    assert other_loss.space is table.space and other_loss._stages is not table._stages
    pi = np.array([0.3, 0.7])
    other_pi1 = HistoryTable(replace(instance_b, priors=so.Priors(pi, instance_b.priors.pi2)))
    assert other_pi1.space is table.space and other_pi1._stages is not table._stages
    assert other_loss.stage(2).stop_loss.tobytes() == (2.0 * table.stage(2).stop_loss).tobytes()


def test_views_and_layers_die_with_the_last_table_and_rule(instance_b):
    tables = so.solve_truncated(instance_b, 6)
    rule = so.extract_rule(tables)
    space, view = weakref.ref(tables.table.space), weakref.ref(tables.table._stages)
    del tables
    gc.collect()
    assert space() is not None and view() is not None  # the rule keeps its table
    del rule
    gc.collect()
    assert space() is None and view() is None
