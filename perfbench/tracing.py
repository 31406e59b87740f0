"""In-memory spans around seqopt's public calls, installed from outside.

The package itself is not instrumented. `install` replaces, for the
duration of a `with` block, each traced function or method by a wrapper that
records one span per call: name, start, end, parent span and the op id it
ran under. A function one module imported from another (for example
`seqopt.lagrange.solve_truncated`) is the same object as the original, so
every module attribute bound to it is replaced, and a call through any of
those names is seen.

Methods that run in hot loops with nothing to do (a count space asked for a
stage it already built, a tree space asked for cached kernel rows) are
passed straight through, so a span means real work and the tracing cost
stays small next to it.

Counts (solves, probes, OC calls, states built, distinct inputs) are taken
at the same boundaries, from arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        # (name, start, end, parent index or -1, op id, phase)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False
        self.op_id = ""
        self.phase = ""
        self.counts: Counter = Counter()
        self.keys: dict[str, list] = defaultdict(list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, self.phase])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, phase: str, op_id: str):
        """Root span of one benchmark operation; every call inside shares its id."""
        self.phase, self.op_id = phase, op_id
        idx = self.open(f"op.{op_id}")
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def key(self, name: str, value) -> None:
        """Record one input or outcome; distinct values over records is a waste ratio."""
        self.keys[name].append(value)

    def distinct_frac(self, name: str) -> float:
        vals = self.keys.get(name, [])
        return len(set(vals)) / len(vals) if vals else 0.0

    def self_times(self, phase: str | None = None) -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, ph) in enumerate(self.spans):
            if phase is None or ph == phase:
                out[name] += (end - start) - child[i]
        return dict(out)

    def inclusive_times(self, phase: str) -> dict[str, float]:
        """Wall time per span name, counting only outermost spans of that name."""
        out: dict[str, float] = defaultdict(float)
        names = [s[0] for s in self.spans]
        for name, start, end, parent, _, ph in self.spans:
            if ph != phase:
                continue
            p = parent
            while p >= 0 and names[p] != name:
                p = self.spans[p][3]
            if p < 0:
                out[name] += end - start
        return dict(out)

    def records(self):
        """Spans as JSON-ready dicts, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        for i, (name, start, end, parent, op_id, phase) in enumerate(self.spans):
            yield {
                "id": i, "name": name, "start": start - t0, "end": end - t0,
                "parent": parent, "op": op_id, "phase": phase,
            }


def _obs_key(problem):
    obs = problem.obs
    if obs.kind == "iid":
        return ("iid", obs.iid_pmf.tobytes())
    return ("kernel", id(obs.kernel))


def _density_key(table):
    p = table.problem
    return (table.space.engine, _obs_key(p), p.priors.pi1.tobytes(), p.priors.pi2.tobytes())


def _wrap(tracer: Tracer, name: str, fn, skip=None, count=None, prepare=None):
    """Span around fn.

    `skip(args)` true means the call has no work to record. `count(tracer,
    args, out, state)` takes counts from the result, with `state =
    prepare(args)` taken before the call.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active or (skip is not None and skip(args)):
            return fn(*args, **kwargs)
        state = prepare(args) if prepare is not None else None
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer, args, out, state)
        return out

    return traced


# --- counters taken at span boundaries -------------------------------------


def _count_space(tracer, args, out, state):
    space = args[0]
    tracer.count("histories.spaces_built")
    tracer.key("histories.model", (space.engine, _obs_key(space.problem)))


def _count_stages(tracer, args, out, built_before):
    space, n = args[0], args[1]
    tracer.count(
        "histories.states_built",
        sum(len(space._states[s]) for s in range(built_before, n + 1)),
    )


def _count_kernel_rows(tracer, args, out, state):
    tracer.count("histories.states_built", len(out))


def _count_table(tracer, args, out, state):
    tracer.count("bayes_decision.tables_built")
    tracer.key("bayes_decision.densities", _density_key(args[0]))


def _count_solve(tracer, args, out, state):
    tracer.count("backward_induction.solves")
    tracer.count("backward_induction.states_visited", sum(len(v) for v in out.value))


def _count_limit(tracer, args, out, state):
    tracer.count("backward_induction.limit_solves")
    tracer.count("backward_induction.limit_horizon_sum", out.horizon)


def _count_extract(tracer, args, out, state):
    tracer.count("stopping_policy.tie_states", sum(len(t) for t in out.tie_states))


def _count_evaluate(tracer, args, out, state):
    tracer.count("risk_evaluation.calls")


def _count_match(tracer, args, out, state):
    for row in out.frontier_trace:
        if "gamma" not in row:
            tracer.count("lagrange.probes")
            tracer.key("lagrange.achieved", tuple(row["achieved"]))


def _count_oc(tracer, args, out, state):
    tracer.count("sprt.oc_calls")
    tracer.key("sprt.oc", (out.alpha, out.beta))


def _count_simulate(tracer, args, out, state):
    tracer.count("monte_carlo.replications", out.replications)
    tracer.count("monte_carlo.cap_hits", round(out.cap_hit_fraction * out.replications))


class _Target(NamedTuple):
    owner: object  # module or class holding the callable
    attr: str
    name: str  # span name, "<layer>.<what>"
    skip: Callable | None = None
    count: Callable | None = None
    prepare: Callable | None = None


def _targets(so) -> list[_Target]:
    h, bd, bi = so.histories, so.bayes_decision, so.backward_induction
    sp, re, lg, sprt = so.stopping_policy, so.risk_evaluation, so.lagrange, so.sprt
    return [
        _Target(h.CountStateSpace, "__init__", "histories.CountStateSpace", count=_count_space),
        _Target(h.CountStateSpace, "_build_to", "histories.CountStateSpace.build",
                skip=lambda a: a[1] in a[0]._states, count=_count_stages,
                prepare=lambda a: len(a[0]._states)),
        _Target(h.TreeStateSpace, "__init__", "histories.TreeStateSpace", count=_count_space),
        _Target(h.TreeStateSpace, "step_probs", "histories.TreeStateSpace.kernel_rows",
                skip=lambda a: a[0].problem.obs.kind == "iid" or a[1] in a[0]._step_cache,
                count=_count_kernel_rows),
        _Target(bd.HistoryTable, "__init__", "bayes_decision.HistoryTable", count=_count_table),
        _Target(bd.HistoryTable, "_build_stage", "bayes_decision.stage"),
        _Target(bi, "solve_truncated", "backward_induction.solve_truncated", count=_count_solve),
        _Target(bi, "solve_limit", "backward_induction.solve_limit", count=_count_limit),
        _Target(bi.ValueTables, "to_csv", "cli.write.values_csv"),
        _Target(sp, "extract_rule", "stopping_policy.extract_rule", count=_count_extract),
        _Target(sp, "truncate_rule", "stopping_policy.truncate_rule"),
        _Target(sp, "reachable_sets", "stopping_policy.reachable_sets"),
        _Target(sp, "rule_from_csv", "cli.write.rule_from_csv"),
        _Target(sp.StoppingRule, "to_csv", "cli.write.rule_csv"),
        _Target(re, "evaluate", "risk_evaluation.evaluate", count=_count_evaluate),
        _Target(lg, "match_constraints", "lagrange.match_constraints", count=_count_match),
        _Target(lg, "weighted_problem", "lagrange.weighted_problem"),
        _Target(sprt, "match_sprt_errors", "sprt.match_sprt_errors"),
        _Target(sprt, "sprt_operating_characteristics", "sprt.operating_characteristics",
                count=_count_oc),
        _Target(sprt, "sprt_rule", "sprt.sprt_rule"),
        _Target(sprt, "llr_by_state", "sprt.llr_by_state"),
        _Target(so.monte_carlo, "simulate", "monte_carlo.simulate", count=_count_simulate),
        _Target(so.config, "load_problem", "config.load_problem"),
        _Target(so.config, "problem_to_dict", "config.problem_to_dict"),
        _Target(so.model, "validate_problem", "model.validate_problem"),
        _Target(so.model, "iid_problem", "model.iid_problem"),
        _Target(so.cli, "main", "cli.main"),
    ]


@contextmanager
def install(tracer: Tracer):
    """Wrap every traced callable in every seqopt module; restore on exit."""
    import seqopt as so

    modules = [so] + [
        importlib.import_module(f"seqopt.{m.name}") for m in pkgutil.iter_modules(so.__path__)
    ]
    saved: list[tuple[object, str, object]] = []
    for t in _targets(so):
        owner, attr = t.owner, t.attr
        fn = owner.__dict__[attr]
        wrapped = _wrap(tracer, t.name, fn, t.skip, t.count, t.prepare)
        if isinstance(owner, type):
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    saved.append((mod, key, fn))
                    setattr(mod, key, wrapped)
    try:
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
