import re
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqopt as so
from seqopt.histories import check_state_budget
from seqopt.model import ObservationModel

from oracle import reference_label

MAX_STATES = 3000  # states through the top stage, per drawn example


def reference_count_stages(k: int, n: int):
    """Stages 0..n of the count engine by plain enumeration.

    Each stage is the sorted set of children of the one before; this is the
    reference the block-built stages are checked against.
    """
    states = [[(0,) * k]]
    index = [{(0,) * k: 0}]
    children = []
    for stage in range(n):
        cur = states[stage]
        nxt = sorted(
            {counts[:x] + (counts[x] + 1,) + counts[x + 1 :] for counts in cur for x in range(k)}
        )
        idx = {c: i for i, c in enumerate(nxt)}
        ch = np.empty((len(cur), k), dtype=np.int64)
        for si, counts in enumerate(cur):
            for x in range(k):
                ch[si, x] = idx[counts[:x] + (counts[x] + 1,) + counts[x + 1 :]]
        states.append(nxt)
        index.append(idx)
        children.append(ch)
    return states, index, children


def _space(k: int) -> so.CountStateSpace:
    pmf = np.full((2, k), 1.0 / k)
    if k == 1:  # problems need two symbols; the space itself takes one
        p = so.iid_problem(np.full((2, 2), 0.5), so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01)
        return so.CountStateSpace(replace(p, obs=ObservationModel(1, "iid", pmf)))
    return so.CountStateSpace(so.iid_problem(pmf, so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01))


def _deepest_stage(k: int) -> int:
    """Largest n whose stages 0..n hold at most MAX_STATES states, C(n+k, k)."""
    n = 0
    while comb(n + 1 + k, k) <= MAX_STATES:
        n += 1
    return n


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_count_space_matches_reference_enumeration(data):
    k = data.draw(st.integers(1, 6), label="k")
    n = data.draw(st.integers(0, _deepest_stage(k) if k > 1 else 40), label="n")
    first = data.draw(st.integers(0, n), label="first build")
    ref_states, ref_index, ref_children = reference_count_stages(k, n)
    space = _space(k)
    space.n_states(first)  # build in two steps to exercise the incremental path
    for stage in range(n + 1):
        states = space.states(stage)
        assert states.dtype == np.int32 and states.shape == (len(ref_states[stage]), k)
        assert [tuple(row) for row in states.tolist()] == ref_states[stage]
        assert space.n_states(stage) == len(ref_states[stage]) == comb(stage + k - 1, k - 1)
        for i, counts in enumerate(ref_states[stage]):
            assert space.index_of(stage, counts) == ref_index[stage][counts] == i
        assert space.labels(stage) == ["|".join(map(str, c)) for c in ref_states[stage]]
        if stage < n:
            assert np.array_equal(space.children(stage), ref_children[stage])


def test_deep_binary_space_children_and_index():
    n = 600
    _, _, ref_children = reference_count_stages(2, n)
    space = _space(2)
    assert space.n_states(n) == n + 1
    assert all(np.array_equal(space.children(s), ref_children[s]) for s in range(n))
    assert space.index_of(n, (250, 350)) == 250


@pytest.mark.parametrize(
    "counts",
    [(1, 1), (2, 0, 0, 0), (3, -1, 0), (1, 0, 0), (2, 1, 0)],
    ids=["short", "long", "negative", "sum-low", "sum-high"],
)
def test_index_of_rejects_non_compositions(counts):
    space = _space(3)
    with pytest.raises(so.SeqOptError):
        space.index_of(2, counts)


def reference_budget_total(engine: str, k: int, horizon: int) -> int:
    """States in stages 0..horizon, one stage at a time."""
    return sum(k**n if engine == "tree" else comb(n + k - 1, k - 1) for n in range(horizon + 1))


@settings(max_examples=200, deadline=None)
@given(
    engine=st.sampled_from(["tree", "counts"]),
    k=st.integers(2, 6),
    horizon=st.integers(1, 60),
    offset=st.integers(-2, 2),
)
def test_state_budget_matches_stagewise_totals(engine, k, horizon, offset):
    total = reference_budget_total(engine, k, horizon)
    budget = max(total + offset, 0)  # offset 0 is the exact-budget boundary
    space = so.state_space(_space(k).problem, engine)
    if total > budget:
        with pytest.raises(so.BudgetExceededError) as err:
            check_state_budget(space, horizon, budget)
        assert str(err.value) == (
            f"{engine} engine needs more than {budget} states for horizon {horizon}"
        )
    else:
        check_state_budget(space, horizon, budget)


DEEP = 2828  # stages 0..2828 of a binary count space: 4,003,035 states, past the budget
DEEP_SPRT = so.SprtSpec(2.0, -2.0, cap=DEEP)


@pytest.mark.parametrize(
    "walk",
    [
        lambda p, rule, space: so.stagewise_bayes_risk(p, DEEP),
        lambda p, rule, space: so.truncatability_diagnostic(p, rule, [2, DEEP]),
        lambda p, rule, space: so.truncate_rule(rule, DEEP, space),
        lambda p, rule, space: so.sprt_rule(p, DEEP_SPRT),
        lambda p, rule, space: so.sprt_operating_characteristics(p, DEEP_SPRT),
        lambda p, rule, space: so.match_sprt_errors(p, 0.05, 0.05, cap=DEEP),
    ],
    ids=["stagewise", "truncatability", "truncate", "sprt_rule", "sprt_oc", "sprt_match"],
)
def test_deep_walks_past_the_budget_raise_before_building(walk):
    p = so.load_problem(Path(__file__).parent.parent / "configs" / "symmetric.json")
    rule = so.extract_rule(so.solve_truncated(p, 4))
    space = so.state_space(p, "counts")  # held, to look at it after
    built = (len(space._states), len(space._densities))
    with pytest.raises(so.BudgetExceededError):
        walk(p, rule, space)
    assert (len(space._states), len(space._densities)) == built


@pytest.mark.parametrize(
    "engine, k, top", [("counts", 2, 7), ("counts", 4, 5), ("tree", 2, 6), ("tree", 12, 2)]
)
def test_stage_labels_match_single_labels(engine, k, top):
    # Each reference label is spelled out on its own: tree digits, count rows.
    space = so.state_space(_space(k).problem, engine)
    for n in range(top + 1):
        assert space.labels(n) == [reference_label(space, n, i) for i in range(space.n_states(n))]


def test_only_the_engines_know_the_state_encoding():
    """No module asks which engine it holds; stage walks read the engine interface.

    A new engine is then one class in histories.py.
    """
    asks = re.compile(r"\.engine\s*[!=]=|isinstance\([^)]*StateSpace")
    hits = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(Path(so.__file__).parent.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), start=1)
        if asks.search(line)
    ]
    assert hits == []
