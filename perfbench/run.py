"""seqopt benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

One caller, one process, one thread, closed loop: each operation starts when
the previous one has finished. A run sets the workload up three times
(setup_s is the median), then repeats rounds over the workload's fixed
operations until --seconds have passed, checking every output after its
operation, outside the timed span. End-to-end metrics are medians over
rounds.

With --trace 1 the run first does the same untraced rounds, then wraps
seqopt's public calls (see tracing.py) and traces one more set-up, the
reference checks and one round. The per-layer metrics cover those three
phases; the report splits them by phase, and the spans are written to
perfbench/out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Exit status is 0 whenever that line is
printed, 2 when the package cannot be found.
"""

import os

# BLAS and OpenMP pools must be sized before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "workload_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "config.load_s": "s", "model.validate_s": "s",
    "histories.build_s": "s", "histories.spaces_built": "count",
    "histories.states_built": "count", "histories.distinct_frac": "frac",
    "bayes_decision.stage_s": "s", "bayes_decision.tables_built": "count",
    "bayes_decision.distinct_frac": "frac",
    "backward_induction.pass_s": "s", "backward_induction.solves": "count",
    "backward_induction.states_per_s": "1/s", "backward_induction.limit_horizon": "stages",
    "stopping_policy.extract_s": "s", "stopping_policy.tie_states": "count",
    "risk_evaluation.forward_s": "s", "risk_evaluation.calls": "count",
    "lagrange.self_s": "s", "lagrange.probes": "count", "lagrange.distinct_rule_frac": "frac",
    "sprt.self_s": "s", "sprt.oc_calls": "count", "sprt.distinct_oc_frac": "frac",
    "monte_carlo.walk_s": "s", "monte_carlo.us_per_rep": "us", "monte_carlo.cap_hit_frac": "frac",
    "cli.write_s": "s", "trace.overhead_s": "s",
}
CALL_METRICS = ["solve_s", "evaluate_s", "cli_s", "match_s", "sprt_match_s", "simulate_s"]


def _import_seconds() -> float:
    """Wall time of `import seqopt` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import seqopt"], env=env, check=True)
    return time.perf_counter() - t0


def _setup(workloads, name: str, seed: int, workdir: Path):
    """One set-up: a fresh import, config loading, instance generation and validation."""
    t0 = time.perf_counter()
    import_s = _import_seconds()
    workload = workloads.SETUPS[name](seed, workdir)
    return workload, import_s + time.perf_counter() - t0


@dataclass
class RoundResult:
    calls: object  # workloads.CallTimes
    workload_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    solve_ops: int = 0
    optimality_misses: int = 0
    failures: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    numbers: list = field(default_factory=list)  # (op name, checked output numbers)
    op_seconds: list = field(default_factory=list)  # (op name, wall seconds)


class HostGauge:
    """Times a fixed piece of interpreter and numpy work between operations.

    On a shared host the same operation runs 20-40% slower or faster for
    tens of seconds at a time as neighbours come and go. The gauge is timed
    after every set-up and operation, outside every timed span, and the
    end-to-end times are scaled by REFERENCE_S / (median gauge time of the
    run): they read as seconds on a host where the gauge takes REFERENCE_S.
    The gauge uses no seqopt code, so a change to the package does not move
    it. Raw wall times are printed and saved beside the scaled ones.
    """

    REFERENCE_S = 0.02
    SAMPLES = 3

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        import numpy as np

        for _ in range(self.SAMPLES):
            t0 = time.perf_counter()
            acc, table = 0, {}
            for i in range(60_000):
                acc += i * i % 7
                table[i & 1023] = acc
            a = np.arange(200_000, dtype=float)
            for _ in range(20):
                a = np.sqrt(a * 1.0001 + 1.0)
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return self.REFERENCE_S / statistics.median(self.samples)


def run_round(workloads, workload, tracer=None, gauge=None) -> RoundResult:
    """Every operation once; checks run between operations, outside the timing."""
    times = workloads.CallTimes()
    res = RoundResult(times)
    for op in workload.ops:
        res.attempted += 1
        op_span = tracer.op("round", op.name) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        error = None
        with op_span:
            try:
                output = op.run(times)
            except Exception as e:  # an op that raises is a failed op, never dropped
                error = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        res.workload_s += dt
        res.op_seconds.append((op.name, dt))
        if tracer:
            tracer.active = False
        if gauge:
            gauge.sample()
        if error is None:
            try:
                outcome = op.check(output)
            except Exception as e:
                outcome = workloads.Outcome(failures=[f"check raised {type(e).__name__}: {e}"])
        else:
            outcome = workloads.Outcome(failures=[error])
        if tracer:
            tracer.active = True
        if outcome.failures:
            res.failed += 1
            res.failures += [f"{op.name}: {f}" for f in outcome.failures]
        res.flags += [f"{op.name}: {f}" for f in outcome.flags]
        res.solve_ops += outcome.solve_op
        res.optimality_misses += outcome.optimality_miss
        res.numbers.append((op.name, outcome.numbers))
    return res


def _reference(workloads, seed, workdir, tracer=None):
    if tracer:
        tracer.phase, tracer.op_id = "reference", "reference"
    try:
        return workloads.reference_checks(seed, workdir)
    except Exception as e:
        return workloads.Outcome(failures=[f"reference checks raised {type(e).__name__}: {e}"])


def per_layer(tracer, traced_round_s: float, untraced_round_s: float) -> dict[str, float]:
    """Per-layer metrics over the traced set-up, reference checks and round."""
    self_s = tracer.self_times()
    c = tracer.counts

    def layer(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    solve_self = self_s.get("backward_induction.solve_truncated", 0.0)
    walk = layer("monte_carlo.")
    reps = c["monte_carlo.replications"]
    limit_solves = c["backward_induction.limit_solves"]
    return {
        "config.load_s": layer("config."),
        "model.validate_s": layer("model."),
        "histories.build_s": layer("histories."),
        "histories.spaces_built": c["histories.spaces_built"],
        "histories.states_built": c["histories.states_built"],
        "histories.distinct_frac": tracer.distinct_frac("histories.model"),
        "bayes_decision.stage_s": layer("bayes_decision."),
        "bayes_decision.tables_built": c["bayes_decision.tables_built"],
        "bayes_decision.distinct_frac": tracer.distinct_frac("bayes_decision.densities"),
        "backward_induction.pass_s": layer("backward_induction."),
        "backward_induction.solves": c["backward_induction.solves"],
        "backward_induction.states_per_s": (
            c["backward_induction.states_visited"] / solve_self if solve_self > 0 else 0.0
        ),
        "backward_induction.limit_horizon": (
            c["backward_induction.limit_horizon_sum"] / limit_solves if limit_solves else 0.0
        ),
        "stopping_policy.extract_s": self_s.get("stopping_policy.extract_rule", 0.0),
        "stopping_policy.tie_states": c["stopping_policy.tie_states"],
        "risk_evaluation.forward_s": layer("risk_evaluation."),
        "risk_evaluation.calls": c["risk_evaluation.calls"],
        "lagrange.self_s": layer("lagrange."),
        "lagrange.probes": c["lagrange.probes"],
        "lagrange.distinct_rule_frac": tracer.distinct_frac("lagrange.achieved"),
        "sprt.self_s": layer("sprt."),
        "sprt.oc_calls": c["sprt.oc_calls"],
        "sprt.distinct_oc_frac": tracer.distinct_frac("sprt.oc"),
        "monte_carlo.walk_s": walk,
        "monte_carlo.us_per_rep": walk / reps * 1e6 if reps else 0.0,
        "monte_carlo.cap_hit_frac": c["monte_carlo.cap_hits"] / reps if reps else 0.0,
        "cli.write_s": layer("cli.write."),
        "trace.overhead_s": traced_round_s - untraced_round_s,
    }


def _layer_table(tracer, phase: str) -> list[str]:
    self_s = tracer.self_times(phase)
    total = sum(self_s.values())
    by_layer: dict[str, float] = {}
    for name, v in self_s.items():
        key = "benchmark (op glue)" if name.startswith("op.") else name.split(".")[0]
        by_layer[key] = by_layer.get(key, 0.0) + v
    lines = [f"  {phase}: {total:.4f} s of self time"]
    for key, v in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {key:<22} {v:10.4f} s  {100 * v / total if total else 0:5.1f}%")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["exact", "search", "simulate"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "seqopt" / "__init__.py").is_file():
        print(f"error: the seqopt package is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    import tracing

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        return _run(args, workloads, tracing, tag, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def typical_round_s(rounds: list[RoundResult]) -> float:
    """Sum over the operations of each one's median time over rounds."""
    per_op = zip(*(r.op_seconds for r in rounds))
    return sum(statistics.median(dt for _, dt in times) for times in per_op)


def _run(args, workloads, tracing, tag: str, workdir: Path) -> int:
    gauge = HostGauge()
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        workload, dt = _setup(workloads, args.workload, args.seed, workdir)
        setup_times.append(dt)
        gauge.sample()
    reference = _reference(workloads, args.seed, workdir)

    rounds: list[RoundResult] = []
    t_start = time.perf_counter()
    while True:
        rounds.append(run_round(workloads, workload, gauge=gauge))
        if time.perf_counter() - t_start + typical_round_s(rounds) > args.seconds:
            break
    timed_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = rounds[0]
    failures = [f for r in rounds for f in r.failures]
    failures += [f"reference: {f}" for f in reference.failures]
    if any(r.numbers != first.numbers for r in rounds[1:]):
        failures.append("rounds over the same inputs gave different outputs")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    output_digest = workloads.digest([first.numbers, reference.numbers])
    lines = [
        f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
        f"{first.attempted} ops in {timed_s:.1f} s; "
        f"inputs {workload.inputs_digest}, outputs {output_digest}",
        f"ops attempted {attempted}, failed {failed}; "
        f"ops_failed_frac {failed / attempted:.4g} (base {attempted})",
    ]
    result = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
              "inputs_digest": workload.inputs_digest, "outputs_digest": output_digest,
              "round_seconds": [r.workload_s for r in rounds],
              "op_seconds": [r.op_seconds for r in rounds],
              "setup_seconds": setup_times, "gauge_seconds": gauge.samples}

    if args.trace:
        metrics, more, trace_failures = _traced(
            args, workloads, tracing, tag, workdir, first, typical_round_s(rounds)
        )
        failures += trace_failures
        json_metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()}
    else:
        values, more, details = _end_to_end(rounds, setup_times, gauge, peak_rss_mb)
        result.update(details)
        json_metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    lines += more

    flags = sorted(set(first.flags + reference.flags))
    if flags:
        lines.append("flags (valid results, reported, not failures):")
        lines += [f"  {f}" for f in flags]
    if failures:
        lines.append("FAILURES:")
        lines += [f"  {f}" for f in failures]
    print("\n".join(lines))

    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": json_metrics,
    }
    result.update(summary, flags=flags, failures=failures)
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


def _end_to_end(rounds, setup_times, gauge, peak_rss_mb):
    """End-to-end metrics, report lines and the details kept in the result file."""
    first = rounds[0]
    scale = gauge.scale()
    values = {
        "setup_s": statistics.median(setup_times) * scale,
        "workload_s": typical_round_s(rounds) * scale,
        "peak_rss_mb": peak_rss_mb,
    }
    call_s = {m: statistics.median(r.calls.seconds[m] for r in rounds)
              for m in CALL_METRICS if first.calls.calls[m]}
    lines = [
        f"end-to-end metrics, seconds scaled by the host gauge x{scale:.4f} "
        f"(median of {len(gauge.samples)} gauge runs "
        f"{statistics.median(gauge.samples) * 1e3:.2f} ms; raw wall seconds in brackets):",
        f"  setup_s      {values['setup_s']:.4f} s  [median of "
        + ", ".join(f"{t:.3f}" for t in setup_times) + "]",
        f"  workload_s   {values['workload_s']:.4f} s  [sum of per-op medians over "
        f"{len(rounds)} rounds; round totals "
        + ", ".join(f"{r.workload_s:.3f}" for r in rounds) + "]",
    ]
    for metric, med in call_s.items():
        lines.append(
            f"  {metric:<12} {med * scale:.4f} s  [{med:.4f}]  "
            f"({first.calls.calls[metric]} calls per round, median over rounds)"
        )
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    lines.append(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    lines.append(f"  ops_failed_frac {failed / attempted:.4g} ({failed}/{attempted})")
    if first.solve_ops:
        lines.append(
            f"  optimality_miss_frac {first.optimality_misses / first.solve_ops:.4g} "
            f"({first.optimality_misses}/{first.solve_ops} solve ops per round)"
        )
    details = {
        "gauge_scale": scale,
        "call_seconds": call_s,
        "calls_per_round": dict(first.calls.calls),
        "solve_ops": first.solve_ops,
        "optimality_misses": first.optimality_misses,
    }
    return values, lines, details


def _traced(args, workloads, tracing, tag, workdir, untraced: RoundResult, untraced_s: float):
    """Trace one set-up, the reference checks and one round; per-layer metrics."""
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        tracer.active = True
        tracer.phase, tracer.op_id = "setup", "setup"
        workload = workloads.SETUPS[args.workload](args.seed, workdir)
        reference = _reference(workloads, args.seed, workdir, tracer)
        traced = run_round(workloads, workload, tracer)
        tracer.active = False
    failures = [f"traced: {f}" for f in traced.failures + reference.failures]
    if traced.numbers != untraced.numbers:
        failures.append("the traced round gave different outputs from the untraced rounds")
    metrics = per_layer(tracer, traced.workload_s, untraced_s)
    round_self = sum(tracer.self_times("round").values())
    if abs(traced.workload_s - round_self) > max(
        metrics["trace.overhead_s"], 0.01 * traced.workload_s
    ):
        failures.append(
            f"round self times sum to {round_self:.4f} s, traced workload_s is "
            f"{traced.workload_s:.4f} s"
        )
    lines = [
        f"traced round {traced.workload_s:.4f} s vs untraced {untraced_s:.4f} s; "
        f"self times sum to {round_self:.4f} s",
        "self time by layer and phase:",
    ]
    for phase in ("setup", "reference", "round"):
        lines += _layer_table(tracer, phase)
    inclusive = tracer.inclusive_times("round")
    for top in ("lagrange.match_constraints", "sprt.match_sprt_errors", "monte_carlo.simulate"):
        if top in inclusive:
            lines.append(
                f"  round time under {top}: {inclusive[top]:.4f} s "
                f"({100 * inclusive[top] / traced.workload_s:.1f}% of the traced round)"
            )
    spans_path = OUT / f"spans-{tag}.jsonl"
    with open(spans_path, "w") as fh:
        for rec in tracer.records():
            fh.write(json.dumps(rec) + "\n")
    lines.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    lines.append("per-layer metrics:")
    for name, value in metrics.items():
        lines.append(f"  {name:<36} {value:.6g} {PER_LAYER[name]}")
    return metrics, lines, failures


if __name__ == "__main__":
    sys.exit(main())
