import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest

import seqopt as so

from conftest import random_instance
from oracle import backward_values, reference_values_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_two_stage_hand_values(instance_b):
    tables = so.solve_truncated(instance_b, 2)
    assert tables.l0 == pytest.approx(0.5, abs=1e-15)
    assert tables.q0 == pytest.approx(0.256, abs=1e-12)
    assert tables.v0 == pytest.approx(0.256, abs=1e-12)
    # stage-1 continuation values, counts engine orders states (0|1), (1|0)
    space = tables.table.space
    i1 = space.index_of(1, (0, 1))
    i0 = space.index_of(1, (1, 0))
    assert tables.cont[1][i1] == pytest.approx(0.109, abs=1e-12)
    assert tables.cont[1][i0] == pytest.approx(0.136, abs=1e-12)
    assert tables.value[1][i1] == pytest.approx(0.10, abs=1e-12)
    assert tables.value[1][i0] == pytest.approx(0.136, abs=1e-12)


def test_one_stage_hand_value(instance_b):
    assert so.solve_truncated(instance_b, 1).q0 == pytest.approx(0.27, abs=1e-12)


def test_matches_reference_recursion_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(8):
        p, raw = random_instance(rng)
        for horizon in (1, 2, 3):
            v, q = backward_values(
                raw["pmf"], raw["pi1"], raw["pi2"], raw["w"], raw["c"], horizon
            )
            tables = so.solve_truncated(p, horizon)
            assert tables.q0 == pytest.approx(q[()], abs=1e-12)
            assert tables.v0 == pytest.approx(v[()], abs=1e-12)


def test_values_nonincreasing_in_horizon(instance_b):
    prev = None
    for horizon in range(1, 11):
        tables = so.solve_truncated(instance_b, horizon)
        if prev is not None:
            assert tables.q0 <= prev + 1e-15
        prev = tables.q0


def test_pointwise_value_monotone_in_horizon(instance_b):
    t4 = so.solve_truncated(instance_b, 4)
    t5 = so.solve_truncated(instance_b, 5)
    for n in range(5):
        assert np.all(t5.value[n] <= t4.value[n] + 1e-15)


def test_limit_mode_converges(instance_b):
    tables = so.solve_limit(instance_b, tol=1e-10)
    assert tables.converged is True
    qs = [q for _, q in tables.q0_trace]
    assert all(a >= b - 1e-15 for a, b in zip(qs, qs[1:]))
    assert abs(qs[-1] - qs[-2]) <= 1e-10


def test_limit_mode_flags_nonconvergence(uninformative):
    # identical pmfs converge at once: q0 = c + l0 exactly, every horizon
    tables = so.solve_limit(uninformative, tol=1e-12)
    assert tables.converged is True
    assert tables.q0 == pytest.approx(0.05 + 0.5, abs=1e-15)

    # an artificially unreachable tolerance on a slowly converging instance
    slow = so.iid_problem(
        [[0.52, 0.48], [0.48, 0.52]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.0001
    )
    capped = so.solve_limit(slow, tol=0.0, n_cap=8)
    assert capped.converged is False
    assert capped.horizon == 8


def test_engines_agree(instance_b):
    for horizon in (1, 2, 3, 5):
        qt = so.solve_truncated(instance_b, horizon, engine="tree").q0
        qc = so.solve_truncated(instance_b, horizon, engine="counts").q0
        assert qt == pytest.approx(qc, abs=1e-14)


def test_dependent_model_requires_tree():
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
    tables = so.solve_truncated(p, 3)
    assert tables.engine == "tree"
    assert 0.0 < tables.q0 < tables.l0
    with pytest.raises(so.SeqOptError):
        so.solve_truncated(p, 3, engine="counts")


def test_csv_export_has_all_stages(instance_b):
    tables = so.solve_truncated(instance_b, 3)
    buf = io.StringIO()
    tables.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "stage,state,stop_loss,continue_value,value"
    # stages 0..3 on the counts engine: 1 + 2 + 3 + 4 states
    assert len(lines) == 1 + 1 + 2 + 3 + 4


def test_should_take_observations(instance_b, uninformative):
    worth, margin = so.should_take_observations(so.solve_truncated(instance_b, 2))
    assert worth is True
    assert margin == pytest.approx(0.5 - 0.256, abs=1e-12)
    flat, margin0 = so.should_take_observations(so.solve_truncated(uninformative, 2))
    assert flat is False
    assert margin0 == pytest.approx(-0.05, abs=1e-12)


def test_state_budget_enforced(instance_b):
    with pytest.raises(so.BudgetExceededError):
        so.solve_truncated(instance_b, 30, engine="tree", state_budget=1000)


def test_value_never_exceeds_stop_loss():
    rng = np.random.default_rng(31)
    for _ in range(5):
        p, _ = random_instance(rng)
        tables = so.solve_truncated(p, 4)
        for n in range(tables.horizon + 1):
            stop = tables.table.stage(n).stop_loss
            assert np.all(tables.value[n] <= stop + 1e-15)


def test_zero_cost_values_monotone_and_nonnegative():
    # free observations: longer horizons can only help, values stay >= 0
    p = so.iid_problem(
        [[0.8, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.0
    )
    q_prev = float("inf")
    for n in range(1, 7):
        q0 = so.solve_truncated(p, n).q0
        assert 0.0 <= q0 <= q_prev + 1e-15
        q_prev = q0


@pytest.mark.parametrize("engine, k, horizon", [("counts", 3, 6), ("tree", 3, 4), ("tree", 11, 2)])
def test_values_csv_matches_row_by_row_writer(engine, k, horizon):
    p, _ = random_instance(np.random.default_rng(k + horizon), m=3, k=k)
    tables = so.solve_truncated(p, horizon, engine=engine)
    buf = io.StringIO()
    tables.to_csv(buf)
    assert buf.getvalue() == reference_values_csv(tables)


@pytest.mark.parametrize(
    "engine, k, horizon",
    [("counts", 2, 40), ("counts", 3, 12), ("counts", 8, 5), ("tree", 3, 4), ("tree", 9, 2)],
)
def test_child_sums_are_the_row_sums_bit_for_bit(engine, k, horizon):
    # Each state's children are summed from the symbol-major table; that must
    # be the row sum of the state-by-state gather, also where numpy adds a
    # row of 8 or more terms pairwise.
    p, _ = random_instance(np.random.default_rng(k * horizon), m=3, k=k)
    tables = so.solve_truncated(p, horizon, engine=engine)
    space = tables.table.space
    for n in range(horizon):
        rows = tables.value[n + 1][np.ascontiguousarray(space.children(n))]  # (S, K)
        want = p.cost.c * (space.densities(n) @ p.priors.pi2) + rows.sum(axis=1)
        assert tables.cont[n].tobytes() == want.tobytes()


@pytest.mark.parametrize("engine", ["counts", "tree", "kernel"])
def test_value_is_derived_from_cont_bit_for_bit(instance_b, engine):
    # A solve stores cont alone; value and v0 come from it and the loss view.
    p, horizon = instance_b, 6
    if engine == "kernel":  # its kernel covers histories up to length 3
        p, engine, horizon = so.load_problem(CONFIGS / "markov_burst.json"), "tree", 3
    tables = so.solve_truncated(p, horizon, engine=engine)
    names = [f.name for f in dataclasses.fields(tables)]
    assert "value" not in names and "problem" not in names
    assert len(tables.value) == horizon + 1 and tables.value is tables.value
    for n in range(horizon):
        want = np.minimum(tables.table.stage(n).stop_loss, tables.cont[n])
        assert tables.value[n].tobytes() == want.tobytes()
    assert tables.value[horizon].tobytes() == tables.table.stage(horizon).stop_loss.tobytes()
    assert np.float64(tables.v0).tobytes() == tables.value[0].tobytes()


def test_stats_describe_the_solve_and_stay_out_of_values_csv(instance_b):
    tables = so.solve_truncated(instance_b, 6)
    sizes = [tables.table.space.n_states(n) for n in range(7)]
    assert tables.stats["stages"] == 7 and tables.stats["solve_s"] >= 0.0
    assert tables.stats["states"] == sum(sizes) and tables.stats["peak_states"] == max(sizes)
    with_stats, without = io.StringIO(), io.StringIO()
    tables.to_csv(with_stats)
    dataclasses.replace(tables, stats={}).to_csv(without)
    assert with_stats.getvalue() == without.getvalue() == reference_values_csv(tables)
