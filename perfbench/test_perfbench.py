"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench

Same seed: same inputs, same per-layer counts, same output digests.
Different seed: different inputs. Threads are pinned before numpy loads, and
a checkout without the package gives a non-zero exit and no result line.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SETUPS)


def test_threads_pinned_before_numpy_is_imported():
    env = {k: v for k, v in os.environ.items() if k not in run.THREAD_VARS}
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import os, run; "
        "assert 'numpy' not in sys.modules; "
        "print(','.join(os.environ[v] for v in run.THREAD_VARS))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().split(",") == ["1"] * len(run.THREAD_VARS)


@pytest.mark.parametrize("name", ["exact", "simulate"])
def test_seed_fixes_the_inputs(name, tmp_path):
    setup = workloads.SETUPS[name]
    first = setup(1, tmp_path).inputs_digest
    assert setup(1, tmp_path).inputs_digest == first
    assert setup(2, tmp_path).inputs_digest != first


def test_search_seed_orders_fixed_operations(tmp_path):
    orders = {
        tuple(op.name for op in workloads.setup_search(seed, tmp_path).ops) for seed in range(8)
    }
    assert len(orders) > 1
    assert len({frozenset(o) for o in orders}) == 1


def _traced_round(name, seed, workdir):
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        tracer.active = True
        tracer.phase = "setup"
        workload = workloads.SETUPS[name](seed, workdir)
        reference = workloads.reference_checks(seed, workdir)
        result = run.run_round(workloads, workload, tracer)
        tracer.active = False
    metrics = run.per_layer(tracer, result.workload_s, result.workload_s)
    counts = {k: v for k, v in metrics.items() if run.PER_LAYER[k] in ("count", "frac", "stages")}
    outputs = workloads.digest([result.numbers, reference.numbers])
    return result, reference, counts, outputs


@pytest.mark.parametrize("name", ["exact", "search", "simulate"])
def test_same_seed_repeats_counts_and_outputs(name, tmp_path):
    a, ref_a, counts_a, out_a = _traced_round(name, 3, tmp_path)
    b, ref_b, counts_b, out_b = _traced_round(name, 3, tmp_path)
    assert not a.failures and not ref_a.failures
    assert counts_a == counts_b
    assert out_a == out_b
    assert a.workload_s != b.workload_s  # times are measured, not fixed


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
