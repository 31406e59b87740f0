import numpy as np
import pytest

import seqopt as so
from seqopt.model import ObservationModel

from conftest import random_instance
from oracle import joint_prob, mixture


def test_valid_instance_passes(instance_b):
    so.validate_problem(instance_b)


def test_validation_collects_all_violations():
    p = so.Problem(
        params=so.ParameterSpace(("a", "b")),
        obs=ObservationModel(alphabet_size=2, iid_pmf=np.array([[0.9, 0.2], [0.3, 0.7]])),
        loss=so.LossSpec(("d1", "d2"), np.array([[0.0, -1.0], [1.0, 0.0]])),
        priors=so.Priors(np.array([0.6, 0.6]), np.array([0.5, 0.5])),
        cost=so.CostSpec(0.02),
    )
    with pytest.raises(so.InvalidProblemError) as exc:
        so.validate_problem(p)
    msgs = exc.value.errors
    assert any("pmf" in m for m in msgs)
    assert any("negative loss" in m for m in msgs)
    assert any("pi1" in m for m in msgs)
    assert len(msgs) >= 3


def test_validation_rejects_overlapping_groups():
    p = so.iid_problem(
        [[0.8, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.02
    )
    from dataclasses import replace

    bad = replace(p, constraints=so.ConstraintSpec(((0,), (0, 1)), (0.1, 0.1)))
    with pytest.raises(so.InvalidProblemError, match="overlap"):
        so.validate_problem(bad)


def test_joint_density_empty_history_is_one(instance_b):
    assert so.joint_density(instance_b, 0, ()) == 1.0
    assert so.joint_density(instance_b, 1, ()) == 1.0


def test_joint_density_matches_reference(instance_b):
    pmf = [[0.8, 0.2], [0.3, 0.7]]
    for hist in [(0,), (1,), (0, 1), (1, 1, 0), (0, 0, 0, 1)]:
        for t in range(2):
            assert so.joint_density(instance_b, t, hist) == pytest.approx(
                joint_prob(pmf, t, hist), abs=1e-15
            )


def test_joint_density_rejects_bad_symbol(instance_b):
    with pytest.raises(so.SeqOptError):
        so.joint_density(instance_b, 0, (2,))


def test_densities_sum_to_one_over_histories():
    rng = np.random.default_rng(7)
    p, raw = random_instance(rng, m=3)
    from itertools import product

    for n in range(1, 5):
        for t in range(3):
            total = sum(
                so.joint_density(p, t, h) for h in product(range(2), repeat=n)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def test_mixture_density_is_prior_average(instance_b):
    pmf = [[0.8, 0.2], [0.3, 0.7]]
    for hist in [(1,), (0, 1), (1, 1, 1)]:
        assert so.mixture_density(instance_b, hist) == pytest.approx(
            mixture(pmf, [0.5, 0.5], hist), abs=1e-15
        )
        assert so.mixture_density(instance_b, hist, prior="pi1") == pytest.approx(
            mixture(pmf, [0.5, 0.5], hist), abs=1e-15
        )


def test_dependent_model_chain_rule():
    # After a 1 the next symbol is 1 with certainty under theta b.
    def kernel_b(theta, hist):
        if theta == 0:
            return (0.8, 0.2)
        if hist and hist[-1] == 1:
            return (0.0, 1.0)
        return (0.8, 0.2)

    p = so.Problem(
        params=so.ParameterSpace(("a", "b")),
        obs=ObservationModel(
            alphabet_size=2, kind="dependent", kernel=kernel_b, horizon=4
        ),
        loss=so.LossSpec(("d1", "d2"), so.zero_one_loss(2)),
        priors=so.Priors(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
        cost=so.CostSpec(0.02),
    )
    so.validate_problem(p)
    assert so.joint_density(p, 1, (1, 1)) == pytest.approx(0.2, abs=1e-15)
    assert so.joint_density(p, 1, (1, 0)) == 0.0
    assert so.joint_density(p, 0, (1, 1)) == pytest.approx(0.04, abs=1e-15)


def test_dependent_model_domain_error_past_horizon():
    def kernel(theta, hist):
        return (0.5, 0.5)

    p = so.Problem(
        params=so.ParameterSpace(("a", "b")),
        obs=ObservationModel(alphabet_size=2, kind="dependent", kernel=kernel, horizon=2),
        loss=so.LossSpec(("d1", "d2"), so.zero_one_loss(2)),
        priors=so.Priors(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
        cost=so.CostSpec(0.02),
    )
    with pytest.raises(so.KernelDomainError):
        p.obs.conditional_pmf(0, (0, 1, 0))


def test_zero_one_loss_shape():
    w = so.zero_one_loss(3)
    assert w.shape == (3, 3)
    assert np.trace(w) == 0.0
    assert w.sum() == 6.0


def test_iid_problem_rejects_bad_pmf():
    with pytest.raises(so.InvalidProblemError):
        so.iid_problem([[0.9, 0.2], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.02)


def test_exchangeability_of_joint_density(instance_b):
    a = so.joint_density(instance_b, 1, (1, 0, 1, 1))
    b = so.joint_density(instance_b, 1, (1, 1, 1, 0))
    assert a == pytest.approx(b, abs=1e-15)


def _kernel_problem(kernel, horizon, k=2, w=None, labels=("a", "b")):
    m = len(labels)
    return so.Problem(
        params=so.ParameterSpace(labels),
        obs=ObservationModel(alphabet_size=k, kind="dependent", kernel=kernel, horizon=horizon),
        loss=so.LossSpec(("d1", "d2"), so.zero_one_loss(m) if w is None else np.asarray(w)),
        priors=so.Priors(np.full(m, 1.0 / m), np.full(m, 1.0 / m)),
        cost=so.CostSpec(0.02),
    )


def _validation_errors(p, **kwargs):
    with pytest.raises(so.InvalidProblemError) as exc:
        so.validate_problem(p, **kwargs)
    return exc.value.errors


def test_validation_table_kernel_missing_history_and_bad_loss():
    table = {(t, h): (0.5, 0.5) for t in range(2) for h in [(), (0,), (1,), (0, 0), (1, 0)]}
    table.update({(0, (1, 1)): (0.5, 0.5)})  # (0, 1) missing for both, (1, 1) for theta 1
    p = _kernel_problem(table, horizon=3, w=[[0.0, -1.0], [1.0, 0.0]])
    assert _validation_errors(p) == [
        "kernel undefined for history (0, 1)",
        "kernel undefined for history (0, 1)",
        "kernel undefined for history (1, 1)",
        "negative loss entry (loss matrix must be finite and >= 0)",
    ]


def test_validation_reports_wrong_length_row():
    def kernel(theta, hist):
        return (0.2, 0.3, 0.5) if theta == 1 and hist == (1,) else (0.4, 0.6)

    assert _validation_errors(_kernel_problem(kernel, horizon=3)) == [
        "dimension mismatch: kernel pmf at (1,) has shape (3,)",
    ]


def test_validation_names_label_and_history_of_bad_rows():
    def kernel(theta, hist):
        if hist == (0, 1) and theta == 0:
            return (-0.25, 1.25)
        if hist == (1, 0, 1) and theta == 1:
            return (0.5, 0.6)
        if hist == (1, 1):
            return (-0.5, 0.5)
        return (0.3, 0.7)

    p = _kernel_problem(kernel, horizon=4, labels=("low", "high"))
    assert _validation_errors(p) == [
        "negative probability in kernel pmf of low at (0, 1)",
        "negative probability in kernel pmf of low at (1, 1)",
        "pmf-not-normalized: kernel pmf of low at (1, 1) sums to 0.0",
        "negative probability in kernel pmf of high at (1, 1)",
        "pmf-not-normalized: kernel pmf of high at (1, 1) sums to 0.0",
        "pmf-not-normalized: kernel pmf of high at (1, 0, 1) sums to 1.1",
    ]


def test_validation_state_budget_message():
    def kernel(theta, hist):
        return (0.1, 0.8) if hist == (1, 0) else (0.5, 0.5)

    p = _kernel_problem(kernel, horizon=6)
    # Budget 5 covers the root, both stage-1 and the first two stage-2
    # histories; (1, 0) is the sixth history in breadth-first order.
    assert _validation_errors(p, kernel_state_budget=5) == [
        "kernel validation exceeded state budget 5",
    ]
    assert _validation_errors(p, kernel_state_budget=6) == [
        "pmf-not-normalized: kernel pmf of a at (1, 0) sums to 0.9",
        "pmf-not-normalized: kernel pmf of b at (1, 0) sums to 0.9",
        "kernel validation exceeded state budget 6",
    ]
    flat = _kernel_problem(lambda t, h: (0.5, 0.5), horizon=3)
    so.validate_problem(flat, kernel_state_budget=7)
    assert _validation_errors(flat, kernel_state_budget=6) == [
        "kernel validation exceeded state budget 6",
    ]


def test_validation_budget_keeps_errors_found_before_it():
    def kernel(theta, hist):
        return (0.7, 0.7) if hist in ((1,), (0, 1), (1, 1, 0)) else (0.5, 0.5)

    p = _kernel_problem(kernel, horizon=5, labels=("a",), w=[[0.0, 1.0]])
    assert _validation_errors(p, kernel_state_budget=5) == [
        "pmf-not-normalized: kernel pmf of a at (1,) sums to 1.4",
        "pmf-not-normalized: kernel pmf of a at (0, 1) sums to 1.4",
        "kernel validation exceeded state budget 5",
    ]


def test_validation_stops_collecting_kernel_rows_at_the_cap():
    from itertools import product

    p = _kernel_problem(lambda t, h: (0.6, 0.6), horizon=8, w=[[0.0, -1.0], [1.0, 0.0]])
    histories = [h for n in range(8) for h in product(range(2), repeat=n)]
    expected = [
        f"pmf-not-normalized: kernel pmf of {lab} at {h} sums to 1.2"
        for h in histories[:51]
        for lab in ("a", "b")
    ]
    expected.append("negative loss entry (loss matrix must be finite and >= 0)")
    assert _validation_errors(p) == expected
