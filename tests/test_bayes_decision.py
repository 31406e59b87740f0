import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import seqopt as so
from seqopt.bayes_decision import DensityLayer, HistoryTable, density_layer
from seqopt.model import with_loss

from conftest import random_instance
from oracle import stage_loss


def test_stage_loss_hand_values(instance_b):
    # one observation: symbol 1 favors the second parameter
    d, loss, _ = so.bayes_decide(instance_b, (1,))
    assert d == 1
    assert loss == pytest.approx(0.10, abs=1e-12)
    d0, loss0, _ = so.bayes_decide(instance_b, (0,))
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
        d, loss, _ = so.bayes_decide(instance_b, hist)
        assert d == exp_d, hist
        assert loss == pytest.approx(exp_loss, abs=1e-12), hist


def test_no_observation_loss(instance_b):
    table = HistoryTable(instance_b)
    assert table.l0 == pytest.approx(0.5, abs=1e-15)


def test_tie_reported_on_symmetric_history():
    p = so.iid_problem(
        [[0.3, 0.7], [0.7, 0.3]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01
    )
    d, loss, ties = so.bayes_decide(p, (0, 1))
    assert d == 0  # lowest index wins ties
    assert ties == (0, 1)
    assert loss == pytest.approx(0.5 * 0.21, abs=1e-15)


def test_stage_loss_matches_reference_on_random_instances():
    rng = np.random.default_rng(21)
    from itertools import product

    for _ in range(10):
        p, raw = random_instance(rng)
        for n in range(3):
            for hist in product(range(2), repeat=n):
                exp_loss, exp_d = stage_loss(raw["pmf"], raw["pi1"], raw["w"], hist)
                d, loss, _ = so.bayes_decide(p, hist)
                assert loss == pytest.approx(exp_loss, abs=1e-13)
                assert d == exp_d


def test_posterior_hand_value(instance_b):
    post = so.posterior(instance_b, (1,))
    assert post == pytest.approx([2 / 9, 7 / 9], abs=1e-14)
    assert so.posterior_risk(instance_b, (1,)) == pytest.approx(2 / 9, abs=1e-14)


def test_posterior_normalizes(instance_b):
    for hist in [(0,), (1, 0), (1, 1, 0)]:
        assert so.posterior(instance_b, hist).sum() == pytest.approx(1.0, abs=1e-14)


def test_posterior_zero_mass_raises():
    def kernel(theta, hist):
        return (1.0, 0.0) if theta == 0 else (0.0, 1.0)

    from seqopt.model import ObservationModel

    p = so.Problem(
        params=so.ParameterSpace(("a", "b")),
        obs=ObservationModel(alphabet_size=2, kind="dependent", kernel=kernel, horizon=3),
        loss=so.LossSpec(("d1", "d2"), so.zero_one_loss(2)),
        priors=so.Priors(np.array([1.0, 0.0]), np.array([1.0, 0.0])),
        cost=so.CostSpec(0.02),
    )
    with pytest.raises(so.SeqOptError):
        so.posterior(p, (1,))


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
    d, loss, _ = so.bayes_decide(instance_b, (1,), lam=None)
    wp = so.weighted_problem(instance_b, [2.0, 2.0])
    d2, loss2, _ = so.bayes_decide(wp, (1,))
    assert d2 == d
    assert loss2 == pytest.approx(2 * loss, abs=1e-14)


def test_engines_build_identical_stage_losses(instance_b):
    tree = HistoryTable(instance_b, engine="tree")
    counts = HistoryTable(instance_b, engine="counts")
    for n in range(1, 6):
        st_t = tree.stage(n)
        st_c = counts.stage(n)
        # aggregate over tree states per count vector equals counts entry
        risk_t = float(st_t.mult @ st_t.stop_loss)
        risk_c = float(st_c.mult @ st_c.stop_loss)
        assert risk_t == pytest.approx(risk_c, abs=1e-13)


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

    Per stage: (f_theta, f_pi1, f_pi2, mult, stop_loss, decision). This is the
    arithmetic the density layer and the loss view split between them.
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
        out.append(
            (f_theta, f_theta @ p.priors.pi1, f_theta @ p.priors.pi2, space.mult(stage),
             costs.min(axis=1), costs.argmin(axis=1))
        )
    return out


def test_loss_changes_share_one_layer(instance_b):
    table = HistoryTable(instance_b)
    for other in (
        so.weighted_problem(instance_b, [3.0, 0.5]),
        with_loss(instance_b, 2.0 * instance_b.loss.w),
    ):
        view = HistoryTable(other)
        assert view.layer is table.layer and view.space is table.space
        assert density_layer(other, "counts") is table.layer
    pi = np.array([0.3, 0.7])
    for other, engine in (
        (replace(instance_b, priors=so.Priors(pi, instance_b.priors.pi2)), "auto"),
        (replace(instance_b, priors=so.Priors(instance_b.priors.pi1, pi)), "auto"),
        (instance_b, "tree"),
    ):
        layer = density_layer(other, engine)
        assert layer is not table.layer and layer.space is not table.space


def test_layer_is_freed_with_its_last_holder(instance_b):
    tables = so.solve_truncated(instance_b, 6)
    ref = weakref.ref(tables.table.layer)
    view = HistoryTable(so.weighted_problem(instance_b, [2.0, 1.0]))
    assert view.layer is ref()
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
    first.stage(n // 2)  # the second view extends stages the first one built
    shared = HistoryTable(with_loss(p, 1.5 * p.loss.w), engine)
    assert shared.layer is first.layer
    unshared = DensityLayer(p, so.state_space(p, engine))
    ref = reference_stages(shared.problem, so.state_space(p, engine), n)
    for stage in range(n + 1):
        st, d = shared.stage(stage), unshared.stage(stage)
        arrays = (st.f_theta, st.f_pi1, st.f_pi2, st.mult, st.stop_loss, st.decision)
        for got, want in zip(arrays, ref[stage]):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for got, want in zip(arrays, (d.f_theta, d.f_pi1, d.f_pi2, d.mult)):
            assert got.tobytes() == want.tobytes()


def test_shared_arrays_are_read_only(instance_b):
    st = HistoryTable(instance_b).stage(3)
    for arr in (st.f_theta, st.f_pi1, st.f_pi2, st.mult, st.stop_loss, st.decision):
        with pytest.raises(ValueError):
            arr[0] = 1.0
