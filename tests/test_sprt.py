import bisect
import math
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqopt as so
from seqopt import sprt
from seqopt.histories import state_space
from seqopt.risk_evaluation import _forward

from oracle import tree_history


@pytest.fixture
def channel():
    return so.iid_problem(
        [[0.7, 0.3], [0.3, 0.7]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01
    )


DELTA = math.log(0.7 / 0.3)  # per-symbol log-LR step on this channel


def test_llr_increments_hand_value(channel):
    inc = so.llr_increments(channel)
    assert inc == pytest.approx([-DELTA, DELTA], abs=1e-14)


def test_llr_by_state_counts(channel):
    space = state_space(channel, "counts")
    llr = so.llr_by_state(channel, space, 2)
    values = dict(zip(space.labels(2), llr))
    assert values["0|2"] == pytest.approx(2 * DELTA, abs=1e-13)
    assert values["1|1"] == pytest.approx(0.0, abs=1e-13)
    assert values["2|0"] == pytest.approx(-2 * DELTA, abs=1e-13)


def test_rule_stops_when_llr_leaves_interval(channel):
    spec = so.SprtSpec(a_upper=3.0, b_lower=-3.0, cap=6)
    rule, decision = so.sprt_rule(channel, spec)
    space = state_space(channel, "counts")
    # |llr| at stage 3 peaks at 3 * 0.847 = 2.54 < 3: no stop yet
    for n in (1, 2, 3):
        assert np.all(rule.at(n) == 0.0)
    # four same-symbol observations reach 3.39 >= 3
    llr4 = so.llr_by_state(channel, space, 4)
    assert np.array_equal(rule.at(4), (np.abs(llr4) >= 3.0).astype(float))
    # threshold stops decide the side they crossed; unstopped states sit on
    # their proximity side of the midpoint (here 0) in case the cap hits them
    stopped = np.abs(llr4) >= 3.0
    assert np.array_equal(decision.at(4)[stopped], (llr4[stopped] >= 3.0).astype(int))
    assert np.array_equal(decision.at(4), (llr4 >= 0.0).astype(int))


def test_operating_characteristics_symmetric(channel):
    spec = so.SprtSpec(a_upper=math.log(3.0), b_lower=-math.log(3.0), cap=100)
    oc = so.sprt_operating_characteristics(channel, spec)
    assert oc.alpha == pytest.approx(oc.beta, abs=1e-12)
    assert oc.e_tau[0] == pytest.approx(oc.e_tau[1], abs=1e-9)
    assert oc.tail_theta == pytest.approx([0.0, 0.0], abs=1e-9)
    # one step of the log-LR walk crosses log 3, so the test can stop at once
    assert oc.e_tau[0] >= 1.0


def test_single_step_thresholds_give_one_observation(channel):
    spec = so.SprtSpec(a_upper=0.5, b_lower=-0.5, cap=10)
    oc = so.sprt_operating_characteristics(channel, spec)
    assert oc.e_tau == pytest.approx([1.0, 1.0], abs=1e-12)
    assert oc.alpha == pytest.approx(0.3, abs=1e-12)
    assert oc.beta == pytest.approx(0.3, abs=1e-12)


def test_wider_thresholds_reduce_errors_and_raise_sample_size(channel):
    specs = [
        so.SprtSpec(a_upper=a, b_lower=-a, cap=150) for a in (1.0, 2.0, 3.0)
    ]
    ocs = [so.sprt_operating_characteristics(channel, s) for s in specs]
    alphas = [oc.alpha for oc in ocs]
    taus = [oc.e_tau[0] for oc in ocs]
    assert alphas[0] > alphas[1] > alphas[2]
    assert taus[0] < taus[1] < taus[2]


def test_conservative_matching_meets_targets(channel):
    spec = so.match_sprt_errors(channel, 0.05, 0.05, cap=150, conservative=True)
    oc = so.sprt_operating_characteristics(channel, spec)
    assert oc.alpha <= 0.05 + 1e-12
    assert oc.beta <= 0.05 + 1e-12


def test_conservative_matching_loose_targets_stop_immediately(channel):
    spec = so.match_sprt_errors(channel, 0.4, 0.4, cap=50, conservative=True)
    oc = so.sprt_operating_characteristics(channel, spec)
    assert oc.alpha == pytest.approx(0.3, abs=1e-9)
    assert oc.e_tau[0] == pytest.approx(1.0, abs=1e-9)


def test_unreachable_targets_raise(channel):
    with pytest.raises(so.UnreachableTargetsError) as exc:
        so.match_sprt_errors(channel, 1e-6, 1e-6, cap=5, conservative=True)
    err = exc.value
    assert err.achieved is not None


def test_oc_agrees_with_simulation(channel):
    spec = so.SprtSpec(a_upper=math.log(9.0), b_lower=-math.log(9.0), cap=60)
    oc = so.sprt_operating_characteristics(channel, spec)
    rule, decision = so.sprt_rule(channel, spec)
    capped = so.truncate_rule(rule, spec.cap, state_space(channel, "counts"))
    res = so.simulate(
        channel, capped,
        so.SimConfig(replications=30000, seed=77, cap=60, theta_mode=0),
        decision=decision,
    )
    assert abs(res.tau_mean - oc.e_tau[0]) <= 4 * res.tau_se
    wrong = res.decision_freq[1]  # deciding the upper hypothesis under the lower
    se = max(res.decision_freq_se[1], 1e-9)
    assert abs(wrong - oc.alpha) <= 4 * se


def test_continuation_is_interval_for_sprt(channel):
    spec = so.SprtSpec(a_upper=3.0, b_lower=-3.0, cap=8)
    rule, _ = so.sprt_rule(channel, spec)
    capped = so.truncate_rule(rule, 8, state_space(channel, "counts"))
    assert so.continuation_is_interval(channel, capped)


def test_interval_check_catches_hole(channel):
    spec = so.SprtSpec(a_upper=3.0, b_lower=-3.0, cap=6)
    rule, _ = so.sprt_rule(channel, spec)
    space = state_space(channel, "counts")
    capped = so.truncate_rule(rule, 6, space)
    # stopping on a balanced sample splits the continuation region in two
    middle = space.index_of(4, (2, 2))
    holed = capped.with_prob(4, middle, 1.0)
    assert not so.continuation_is_interval(channel, holed)


def test_sprt_requires_iid():
    def kernel(theta, hist):
        return (0.8, 0.2) if theta == 0 else (0.3, 0.7)

    from seqopt.model import ObservationModel

    p = so.Problem(
        params=so.ParameterSpace(("a", "b")),
        obs=ObservationModel(alphabet_size=2, kind="dependent", kernel=kernel, horizon=4),
        loss=so.LossSpec(("d1", "d2"), so.zero_one_loss(2)),
        priors=so.Priors(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
        cost=so.CostSpec(0.02),
    )
    with pytest.raises(so.SeqOptError):
        so.sprt_rule(p, so.SprtSpec(a_upper=1.0, b_lower=-1.0, cap=5))


def test_bad_thresholds_rejected(channel):
    with pytest.raises(so.SeqOptError):
        so.sprt_rule(channel, so.SprtSpec(a_upper=-1.0, b_lower=1.0, cap=5))


@pytest.mark.parametrize("cap", [0, -3, 2.5, True], ids=["zero", "negative", "float", "bool"])
def test_bad_cap_rejected(channel, cap):
    # A typed error, not numpy's ValueError or TypeError; True is not the cap 1.
    spec = so.SprtSpec(a_upper=1.0, b_lower=-1.0, cap=cap)
    message = f"cap must be an integer >= 1, got {cap!r}"
    for call in (
        lambda: so.sprt_rule(channel, spec),
        lambda: so.sprt_operating_characteristics(channel, spec),
        lambda: so.match_sprt_errors(channel, 0.05, 0.05, cap=cap),
    ):
        with pytest.raises(so.SeqOptError, match=re.escape(message)):
            call()


def reference_llr_by_state_tree(p, space, n, hypotheses=(0, 1)):
    """Tree-state log-LRs with counts taken by walking each history in Python."""
    inc = so.llr_increments(p, hypotheses)
    counts = np.zeros((space.n_states(n), space.k))
    for idx in range(space.n_states(n)):
        for x in tree_history(space.k, n, idx):
            counts[idx, x] += 1
    terms = np.multiply(counts, inc, out=np.zeros(counts.shape), where=counts > 0)
    return terms.sum(axis=1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_llr_by_state_tree_matches_history_loop(k):
    rng = np.random.default_rng(k)
    pmf = rng.uniform(0.05, 1.0, size=(2, k))
    if k > 2:
        pmf[0, 0] = pmf[1, 0] = 0.0  # symbol 0: log-LR nan
        pmf[0, 1] = 0.0  # symbol 1: log-LR +inf
    pmf /= pmf.sum(axis=1, keepdims=True)
    p = so.iid_problem(pmf, so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01)
    space = state_space(p, "tree")
    for n in range(1, 6):
        for hyp in ((0, 1), (1, 0)):
            got = so.llr_by_state(p, space, n, hyp)
            want = reference_llr_by_state_tree(p, space, n, hyp)
            assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("pmf", [
    [[0, 0.5, 0.5], [0, 0.2, 0.8]], [[0, 1], [0.5, 0.5]], [[0, 0.5, 0.5], [0.5, 0, 0.5]],
], ids=["nan", "inf", "inf-and-minus-inf"])
def test_zero_pmf_entries_give_infinite_and_nan_log_lrs_without_warnings(pmf):
    # A symbol both hypotheses rule out computed -inf - (-inf), and an unseen
    # symbol 0 * inf, each with numpy's invalid-value warning (an error here).
    p = so.iid_problem(pmf, so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01)
    zero = np.asarray(pmf) == 0
    inc = so.llr_increments(p)
    assert np.array_equal(np.isnan(inc), zero[0] & zero[1])
    assert np.array_equal(np.isposinf(inc), zero[0] & ~zero[1])
    assert np.array_equal(np.isneginf(inc), ~zero[0] & zero[1])
    space = state_space(p, "counts")
    counts = space.states(3)
    seen = counts > 0
    llr = so.llr_by_state(p, space, 3)
    # nan exactly at the states of density 0 under both hypotheses
    assert np.array_equal(np.isnan(llr), (seen & zero[0]).any(1) & (seen & zero[1]).any(1))
    finite = ~(seen & zero.any(0)).any(1)
    assert np.array_equal(llr[finite], (counts[finite] * np.where(zero.any(0), 0.0, inc)).sum(1))
    oc = so.sprt_operating_characteristics(p, so.SprtSpec(2.0, -2.0, cap=6))
    assert 0.0 <= oc.alpha <= 1.0 and 0.0 <= oc.beta <= 1.0


def two_pass_oc(p, spec):
    """Capped report plus the tail as 1 - mass stopped by the open (uncapped) rule."""
    rule, decision = so.sprt_rule(p, spec)
    open_report = so.evaluate(p, rule, decision)
    capped = so.truncate_rule(rule, spec.cap, state_space(p, "counts"))
    return so.evaluate(p, capped, decision), 1.0 - open_report.mass_stopped_theta


def assert_same_report(a, b):
    assert a.to_dict() == b.to_dict()
    for name in ("n_theta", "stop_dist_theta", "decision_probs", "mass_stopped_theta"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize(
    "a, b, cap", [(math.log(3.0), -math.log(3.0), 100), (2.0, -1.0, 12), (3.0, -3.0, 40)]
)
def test_one_pass_oc_matches_two_pass(channel, a, b, cap):
    spec = so.SprtSpec(a, b, cap=cap)
    oc = so.sprt_operating_characteristics(channel, spec)
    report, tail = two_pass_oc(channel, spec)
    assert_same_report(oc.report, report)
    assert np.abs(oc.tail_theta - tail).max() <= 1e-15
    assert oc.tail_theta.max() > 0 or cap == 100  # the short caps do force-stop mass


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(2, 3),
    weights=st.lists(st.integers(1, 9), min_size=6, max_size=6),
    cap=st.integers(1, 40),
    a=st.floats(0.05, 4.0),
    b=st.floats(0.05, 4.0),
    hypotheses=st.sampled_from([(0, 1), (1, 0)]),
)
def test_one_pass_oc_matches_two_pass_random(k, weights, cap, a, b, hypotheses):
    pmf = np.array(weights[: 2 * k], dtype=float).reshape(2, k)
    pmf /= pmf.sum(axis=1, keepdims=True)
    p = so.iid_problem(pmf, so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01)
    spec = so.SprtSpec(a, -b, hypotheses, cap)
    oc = so.sprt_operating_characteristics(p, spec)
    report, tail = two_pass_oc(p, spec)
    assert_same_report(oc.report, report)
    # 1 - (mass stopped) carries the rounding of summing every stage's
    # stopped mass; the direct sum of the force-stopped mass does not.
    assert np.abs(oc.tail_theta - tail).max() <= (cap + 1) * 2.0**-51
    # Every field is bit for bit the forward pass of sprt_rule capped by truncate_rule.
    rule, decision = so.sprt_rule(p, spec)
    _, arrived = _forward(p, so.truncate_rule(rule, cap, state_space(p, "counts")), decision)
    i, j = hypotheses
    assert oc.alpha == report.decision_probs[i, 1] and oc.beta == report.decision_probs[j, 0]
    assert np.array_equal(oc.e_tau, report.n_theta)
    assert np.array_equal(oc.tail_theta, (arrived * (1.0 - rule.at(cap))[:, None]).sum(axis=0))


def test_oc_stats_describe_the_pass_and_stay_out_of_outputs(channel):
    spec = so.SprtSpec(2.0, -2.0, cap=12)
    oc = so.sprt_operating_characteristics(channel, spec)
    assert set(oc.stats) == {"rule_s", "forward_s", "stages", "states"}
    assert oc.stats["rule_s"] >= 0 and oc.stats["forward_s"] >= 0
    assert oc.stats["stages"] == 12
    space = state_space(channel, "counts")
    assert oc.stats["states"] == sum(space.n_states(n) for n in range(1, 13))
    assert "stats" not in oc.to_dict() and "stats" not in repr(oc)


def count_oc_calls(monkeypatch):
    """Record the spec of every _oc call the threshold search makes."""
    calls = []
    real = sprt._oc

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(sprt, "_oc", counted)
    return calls


def test_symmetric_match_needs_few_oc_calls(monkeypatch):
    p = so.load_problem(Path(__file__).resolve().parent.parent / "configs" / "symmetric.json")
    calls = count_oc_calls(monkeypatch)
    spec = so.match_sprt_errors(p, 0.05, 0.05, cap=50, conservative=True)
    assert 0 < len(calls) <= 16
    oc = so.sprt_operating_characteristics(p, spec)
    assert oc.alpha <= 0.05 and oc.beta <= 0.05


def test_unreachable_match_computes_each_capped_rule_once(monkeypatch):
    # Eight sweeps of two 62-probe searches land on few distinct capped rules;
    # each one's operating characteristics are computed once, and probes that
    # differ only in where they cut a level's rounding copies are one rule.
    p = so.load_problem(Path(__file__).resolve().parent.parent / "configs" / "symmetric.json")
    calls = count_oc_calls(monkeypatch)
    with pytest.raises(so.UnreachableTargetsError):
        so.match_sprt_errors(p, 0.05, 0.05, cap=200)
    assert 0 < len(calls) <= 18


@pytest.mark.parametrize("sweeps", [0, -1, 1.5, True], ids=["zero", "negative", "float", "bool"])
def test_bad_max_sweeps_rejected(channel, sweeps):
    # A typed error, not a TypeError or an "unreachable" that searched nothing.
    message = f"max_sweeps must be an integer >= 1, got {sweeps!r}"
    with pytest.raises(so.SeqOptError, match=re.escape(message)) as exc:
        so.match_sprt_errors(channel, 0.05, 0.05, cap=20, max_sweeps=sweeps)
    assert not isinstance(exc.value, so.UnreachableTargetsError)


def test_match_reads_one_llr_table(monkeypatch):
    # The threshold search reads one log-LR table of stages 1..cap for its
    # breakpoints and every OC it computes.
    p = so.load_problem(Path(__file__).resolve().parent.parent / "configs" / "symmetric.json")
    stages = []
    real_llr = sprt.llr_by_state

    def llr_counted(p_, space, n, hypotheses=(0, 1)):
        stages.append(n)
        return real_llr(p_, space, n, hypotheses)

    monkeypatch.setattr(sprt, "llr_by_state", llr_counted)
    ocs = count_oc_calls(monkeypatch)
    spec = so.match_sprt_errors(p, 0.05, 0.05, cap=50, conservative=True)
    assert stages == list(range(1, 51))
    assert 0 < len(ocs) <= 30
    monkeypatch.undo()
    oc = so.sprt_operating_characteristics(p, spec)
    assert oc.alpha <= 0.05 and oc.beta <= 0.05


def test_matched_rule_decides_each_level_one_way():
    # On symmetric.json the log-LR of a count state is (c1 - c0) * log(7/3),
    # but its float sum gives one level a copy per stage, a few ulps apart.
    # The matched conservative threshold once fell among the copies of
    # c1 - c0 = 3 and stopped 4 states of that level while 20 continued.
    p = so.load_problem(Path(__file__).resolve().parent.parent / "configs" / "symmetric.json")
    spec = so.match_sprt_errors(p, 0.05, 0.05, cap=50, conservative=True)
    rule, decision = so.sprt_rule(p, spec)
    space = state_space(p, "counts")
    stages = range(1, spec.cap + 1)
    level = np.concatenate([space.states(n)[:, 1] - space.states(n)[:, 0] for n in stages])
    stop = np.concatenate([rule.at(n) for n in stages])
    decide = np.concatenate([decision.at(n) for n in stages])
    for d in np.unique(level):
        assert len(np.unique(stop[level == d])) == 1, d
        assert len(np.unique(decide[level == d])) == 1, d


def assert_thresholds_clear_of_levels(p, spec):
    """Read against spec's thresholds and midpoint, llr_by_state's copies of
    each level and its exact log-LR, (c1 - c0) * inc_1 for rows that are each
    other's reverse, stop alike at every stage and decide alike at the cap."""
    inc = so.llr_increments(p, spec.hypotheses)
    assert inc[0] == -inc[1]
    space = state_space(p, "counts")
    a, b = Fraction(spec.a_upper), Fraction(spec.b_lower)
    mid = 0.5 * (spec.a_upper + spec.b_lower)
    for n in range(1, spec.cap + 1):
        llr = so.llr_by_state(p, space, n, spec.hypotheses)
        level = space.states(n)[:, 1] - space.states(n)[:, 0]
        for d, x in zip(level.tolist(), llr.tolist()):
            exact = d * Fraction(inc[1])
            assert (x <= spec.b_lower or x >= spec.a_upper) == (exact <= b or exact >= a), (n, d)
            if n == spec.cap:
                assert (x >= mid) == (exact >= Fraction(mid)), (n, d)


@pytest.mark.parametrize("case", ["symmetric.json", "midpoint-raised"])
def test_matched_thresholds_clear_every_copy_of_a_level(case):
    # The merged table alone is not enough: the returned thresholds, read
    # against llr_by_state's own copies of a level or its exact log-LR, must
    # stop or continue the whole level. A threshold one ulp above a level's
    # smallest copy did not. The second match moves its midpoint up, clear
    # of the cap levels next to it.
    if case == "symmetric.json":
        p = so.load_problem(Path(__file__).resolve().parent.parent / "configs" / case)
        cap, targets = 50, (0.05, 0.05)
    else:
        p = so.iid_problem([[0.65, 0.35], [0.35, 0.65]], so.zero_one_loss(2),
                           [0.5, 0.5], [0.5, 0.5], 0.01)
        cap, targets = 15, (0.2, 0.1)
    spec = so.match_sprt_errors(p, *targets, cap=cap, conservative=True)
    assert_thresholds_clear_of_levels(p, spec)
    oc = so.sprt_operating_characteristics(p, spec)
    assert oc.alpha <= targets[0] and oc.beta <= targets[1]


@settings(max_examples=20, deadline=None)
@given(
    q=st.floats(0.55, 0.95),
    cap=st.integers(3, 40),
    targets=st.tuples(st.floats(0.01, 0.2), st.floats(0.01, 0.2)),
    conservative=st.booleans(),
)
# Clearing both thresholds of the level pair +-3 moves their midpoint 4.9e-15
# past the cap's one-copy level 0.0: the best spec takes that new rule, and
# reports its errors.
@example(q=0.65625, cap=16, targets=(0.125, 0.15625), conservative=False)
def test_matched_thresholds_clear_reversed_row_levels(q, cap, targets, conservative):
    # Thresholds that land at a level can put the midpoint at a cap level
    # too; both are moved clear, and an unreachable match's best spec is,
    # with the errors of its own rule.
    p = so.iid_problem([[q, 1 - q], [1 - q, q]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01)
    try:
        spec = so.match_sprt_errors(p, *targets, cap=cap, conservative=conservative)
        achieved = None
    except so.UnreachableTargetsError as err:
        spec, achieved = err.best, err.achieved
    assert_thresholds_clear_of_levels(p, spec)
    oc = so.sprt_operating_characteristics(p, spec)
    if achieved is not None:
        assert (oc.alpha, oc.beta) == achieved
    elif conservative:
        assert oc.alpha <= targets[0] and oc.beta <= targets[1]
    else:
        assert abs(oc.alpha - targets[0]) <= 1e-4 and abs(oc.beta - targets[1]) <= 1e-4


@pytest.mark.parametrize(
    "tops, start, a_gap, b_gap, want",
    [
        # Room below level 0's copies [0, 1e-3]: a goes down.
        ([0.0, 1e-3], (1.5, -1.499), (1.0, 2.0), (-1.6, -0.5), (1.497, -1.499)),
        # No room below: the midpoint goes past level 0's copies, clear above them.
        ([0.0, 1e-3], (1.0, -0.999), (1.0, 2.0), (-0.999, -0.5), (1.003, -0.999)),
        # Past a one-copy level 0.0 is clear already: nothing moves.
        ([0.0, 0.0], (1.0, -0.9), (1.0, 2.0), (-0.9, -0.5), (1.0, -0.9)),
    ],
    ids=["room", "past-several-copies", "past-one-copy"],
)
def test_midpoint_clears_its_cap_gap_or_the_next(tops, start, a_gap, b_gap, want):
    # Cap levels -1, 0 and 1, with level 0's copies from tops[0] to tops[1];
    # the midpoint starts in the gap below level 0, and half a bound is 1e-3.
    levels, top = np.array([-1.0, tops[0], 1.0]), np.array([-1.0, tops[1], 1.0])
    a, b = sprt._clear_midpoint(*start, a_gap, b_gap, levels, top, 1, 1e-3)
    assert (a, b) == pytest.approx(want, abs=1e-12)


def test_midpoint_leaves_a_one_copy_level_it_lands_on():
    # Thresholds cleared symmetrically put the midpoint exactly on the one-copy
    # cap level 0.0, which bisect_left (and the rule, llr >= midpoint) files
    # in the gap below it; a float more of a keeps it in gap 2, above the level.
    levels = np.array([-1.0, 0.0, 1.0])
    a, b = sprt._clear_midpoint(1.0, -1.0, (1.0, 2.0), (-1.5, -1.0), levels, levels, 2, 1e-3)
    assert (a, b) == (math.nextafter(1.0, math.inf), -1.0)
    assert bisect.bisect_left(levels.tolist(), 0.5 * (a + b)) == 2


def llr_table_and_levels(p, cap, hypotheses):
    """_llr_table of stages 1..cap, llr_by_state's values and c1 - c0 per entry."""
    space = state_space(p, "counts")
    table = sprt._llr_table(p, space, so.SprtSpec(1.0, -1.0, hypotheses, cap))
    sizes = [s.stop - s.start for s in table.stages]
    assert sizes == [space.n_states(n) for n in range(1, cap + 1)]
    raw = np.concatenate([so.llr_by_state(p, space, n, hypotheses) for n in range(1, cap + 1)])
    level = np.concatenate([space.states(n)[:, 1] - space.states(n)[:, 0]
                            for n in range(1, cap + 1)])
    finite = np.isfinite(table.llr)
    assert np.array_equal(table.levels, np.unique(table.llr[finite]))
    assert np.all(table.levels[1:] - table.tops[:-1] > table.bound)
    return table.llr, raw, level


@settings(max_examples=25, deadline=None)
@given(
    q=st.one_of(st.floats(0.02, 0.45), st.floats(0.55, 0.98)),
    cap=st.integers(1, 60),
    hypotheses=st.sampled_from([(0, 1), (1, 0)]),
)
def test_llr_table_gives_one_value_per_level(q, cap, hypotheses):
    # Rows that are each other's reverse give inc_0 = -inc_1 exactly, so the
    # log-LR is (c1 - c0) * inc_1 in exact arithmetic: one table value per
    # distinct c1 - c0, taken from among its float copies.
    p = so.iid_problem([[q, 1 - q], [1 - q, q]], so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01)
    table, raw, level = llr_table_and_levels(p, cap, hypotheses)
    for d in np.unique(level):
        assert len(np.unique(table[level == d])) == 1
        assert table[level == d][0] in raw[level == d]
    assert len(np.unique(table)) == len(np.unique(level))


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
    cap=st.integers(1, 12),
    hypotheses=st.sampled_from([(0, 1), (1, 0)]),
)
def test_llr_table_keeps_distinct_log_lrs(k, seed, cap, hypotheses):
    # Generic pmfs put distinct count vectors far more than a rounding bound
    # apart, so nothing merges and the table is llr_by_state's, bit for bit.
    pmf = np.random.default_rng(seed).uniform(0.05, 1.0, size=(2, k))
    pmf /= pmf.sum(axis=1, keepdims=True)
    p = so.iid_problem(pmf, so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01)
    table, raw, _ = llr_table_and_levels(p, cap, hypotheses)
    assert np.array_equal(table, raw)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    cap=st.integers(1, 12),
    hypotheses=st.sampled_from([(0, 1), (1, 0)]),
)
def test_llr_table_keeps_infinite_and_nan_log_lrs(seed, cap, hypotheses):
    pmf = np.random.default_rng(seed).uniform(0.05, 1.0, size=(2, 3))
    pmf[0, 0] = pmf[1, 0] = 0.0  # symbol 0: log-LR nan
    pmf[0, 1] = 0.0  # symbol 1: log-LR +inf or -inf
    pmf /= pmf.sum(axis=1, keepdims=True)
    p = so.iid_problem(pmf, so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01)
    table, raw, _ = llr_table_and_levels(p, cap, hypotheses)
    assert np.isinf(table).any() and np.isnan(table).any()
    assert np.array_equal(table, raw, equal_nan=True)


def reference_bisect(oc_of, lo, hi, target, iters=60):
    """Threshold search over the reals: 60 halvings of [lo, hi]."""
    f_lo, f_hi = oc_of(lo), oc_of(hi)
    if f_hi > target:
        return hi, f_hi
    if f_lo <= target:
        return lo, f_lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = oc_of(mid)
        if f_mid <= target:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return hi, f_hi


def reference_match(p, alpha, beta, cap, tol=1e-4, conservative=False, max_sweeps=8,
                    threshold_limit=60.0):
    """match_sprt_errors with each threshold found by reference_bisect."""
    a = min(max(math.log((1 - beta) / alpha), 1e-6), threshold_limit)
    b = max(min(math.log(beta / (1 - alpha)), -1e-6), -threshold_limit)
    spec = so.SprtSpec(a, b, (0, 1), cap)
    achieved = (math.inf, math.inf)
    for _ in range(max_sweeps):
        a, _ = reference_bisect(
            lambda av: so.sprt_operating_characteristics(p, replace(spec, a_upper=av)).alpha,
            1e-6, threshold_limit, alpha,
        )
        spec = replace(spec, a_upper=a)
        b_mag, _ = reference_bisect(
            lambda bv: so.sprt_operating_characteristics(p, replace(spec, b_lower=-bv)).beta,
            1e-6, threshold_limit, beta,
        )
        spec = replace(spec, b_lower=-b_mag)
        oc = so.sprt_operating_characteristics(p, spec)
        achieved = (oc.alpha, oc.beta)
        if conservative:
            if achieved[0] <= alpha and achieved[1] <= beta:
                return spec
        elif abs(achieved[0] - alpha) <= tol and abs(achieved[1] - beta) <= tol:
            return spec
    if conservative and achieved[0] <= alpha and achieved[1] <= beta:
        return spec
    raise so.UnreachableTargetsError("unreachable", best=spec, achieved=achieved)


def match_outcome(match, p, alpha, beta, cap, conservative):
    """(alpha, beta, e_tau) of the matched spec, or the error's achieved pair."""
    try:
        spec = match(p, alpha, beta, cap=cap, conservative=conservative, max_sweeps=2)
    except so.UnreachableTargetsError as err:
        oc = so.sprt_operating_characteristics(p, err.best)
        assert (oc.alpha, oc.beta) == err.achieved  # the error carries its best spec
        return "unreachable", err.achieved
    oc = so.sprt_operating_characteristics(p, spec)
    return "matched", (oc.alpha, oc.beta), tuple(oc.e_tau.tolist())


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(2, 3),
    weights=st.lists(st.integers(1, 9), min_size=6, max_size=6),
    cap=st.integers(1, 30),
    a=st.floats(0.05, 4.0),
    b=st.floats(0.05, 4.0),
    slack=st.sampled_from([0.0, 0.0, 0.01, 0.2]),
    conservative=st.booleans(),
)
def test_lattice_match_agrees_with_real_bisection(k, weights, cap, a, b, slack, conservative):
    """The match against reference_match on random two-hypothesis tests.

    Targets are operating characteristics some thresholds achieve, raised by
    `slack`. Each threshold search is reference_bisect's, and two thresholds
    with the same capped rule have the same errors, so the outcomes are equal
    even where an error is not monotone in its threshold.
    """
    pmf = np.array(weights[: 2 * k], dtype=float).reshape(2, k)
    pmf /= pmf.sum(axis=1, keepdims=True)
    p = so.iid_problem(pmf, so.zero_one_loss(2), [0.5, 0.5], [0.5, 0.5], 0.01)
    space = state_space(p, "counts")  # shared by every OC call below
    drawn = so.sprt_operating_characteristics(p, so.SprtSpec(a, -b, cap=cap))
    alpha, beta = drawn.alpha * (1 + slack), drawn.beta * (1 + slack)
    if not (0 < alpha < 1 and 0 < beta < 1):
        return
    got = match_outcome(so.match_sprt_errors, p, alpha, beta, cap, conservative)
    want = match_outcome(reference_match, p, alpha, beta, cap, conservative)
    assert got == want

    if got[0] == "matched":
        a_hat, b_hat = got[1]
        if conservative:
            assert a_hat <= alpha and b_hat <= beta
        else:
            assert abs(a_hat - alpha) <= 1e-4 and abs(b_hat - beta) <= 1e-4
