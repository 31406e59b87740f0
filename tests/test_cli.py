"""End to end runs of the command line interface, checked through main()."""

import builtins
import io
import json
from collections import Counter
from pathlib import Path

import pytest

import seqopt as so
from seqopt.cli import _self_check, main
from seqopt.histories import state_space

from oracle import reference_rule_csv, reference_values_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TWO_CHANNEL = str(CONFIGS / "two_channel.json")
SYMMETRIC = str(CONFIGS / "symmetric.json")
UNINFORMATIVE = str(CONFIGS / "uninformative.json")
# Two nearly equal coins. Past stage ~1074 the per-history densities underflow
# to 0, and a solve reports a q0 below what its extracted rule attains.
NEAR_COINS = dict(
    pmf=[[0.48, 0.52], [0.52, 0.48]], loss=so.zero_one_loss(2), pi1=[0.5, 0.5],
    pi2=[0.5, 0.5], cost=2e-5,
)


def run(capsys, *argv: str) -> tuple[int, Path]:
    code = main(list(argv))
    captured = capsys.readouterr()
    run.err = captured.err
    out = captured.out.strip().splitlines()
    return code, Path(out[-1]) if out else Path()


def test_solve_truncated(tmp_path, capsys):
    code, out_dir = run(
        capsys, "--out-root", str(tmp_path), "solve", TWO_CHANNEL, "--horizon", "2"
    )
    assert code == 0
    assert out_dir.name.startswith("solve-")
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["q0"] == pytest.approx(0.256, abs=1e-12)
    assert summary["l0"] == pytest.approx(0.5)
    assert summary["horizon"] == 2
    assert summary["take_observations"] is True
    assert summary["report"]["n_psi"] == pytest.approx(1.55, abs=1e-12)
    assert summary["report"]["error_probs"] == pytest.approx([0.36, 0.09], abs=1e-12)
    assert (out_dir / "values.csv").exists()
    assert (out_dir / "rule.csv").exists()


def test_manifest_and_determinism(tmp_path, capsys):
    argv = ("--out-root", str(tmp_path), "solve", TWO_CHANNEL, "--horizon", "3")
    code1, dir1 = run(capsys, *argv)
    first = {f.name: f.read_bytes() for f in dir1.iterdir()}
    code2, dir2 = run(capsys, *argv)
    assert code1 == code2 == 0
    assert dir1 == dir2
    for f in dir2.iterdir():
        assert f.read_bytes() == first[f.name]

    manifest = json.loads((dir1 / "manifest.json").read_text())
    assert set(manifest) == {"command", "config_sha256", "parameters", "version", "outputs"}
    assert manifest["command"] == "solve"
    assert manifest["outputs"] == sorted(manifest["outputs"])
    assert len(manifest["config_sha256"]) == 64


@pytest.mark.parametrize("name, horizon", [("two_channel", 30), ("markov_burst", 3)])
def test_solve_files_match_row_by_row_writers(tmp_path, capsys, name, horizon):
    # counts labels at H=30; tree labels such as "0,1,0", which csv quotes, at H=3
    config = str(CONFIGS / f"{name}.json")
    code, out_dir = run(
        capsys, "--out-root", str(tmp_path), "solve", config, "--horizon", str(horizon)
    )
    assert code == 0
    tables = so.solve_truncated(so.load_problem(config), horizon)
    rule = so.extract_rule(tables)
    assert (out_dir / "values.csv").read_bytes() == reference_values_csv(tables).encode()
    assert (out_dir / "rule.csv").read_bytes() == (
        reference_rule_csv(rule, tables.table.space).encode()
    )


def test_search_rule_file_matches_row_by_row_writer(tmp_path, capsys):
    code, out_dir = run(
        capsys,
        "--out-root", str(tmp_path),
        "search", TWO_CHANNEL,
        "--targets", "0.18,0.045",
        "--horizon", "4",
    )
    assert code == 0
    p = so.load_problem(TWO_CHANNEL)
    res = so.match_constraints(p, [0.18, 0.045], so.SearchConfig(horizon=4))
    probs = [res.decision.stage_probs(n, p.n_decisions) for n in range(1, res.rule.horizon + 1)]
    space = state_space(p, res.rule.engine)
    text = reference_rule_csv(res.rule, space, probs)
    assert text.splitlines()[0].endswith(",decision_prob_0,decision_prob_1")
    assert (out_dir / "rule.csv").read_bytes() == text.encode()


def test_solve_limit_mode(tmp_path, capsys):
    code, out_dir = run(capsys, "--out-root", str(tmp_path), "solve", UNINFORMATIVE)
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["q0"] == pytest.approx(0.55, abs=1e-12)
    assert summary["take_observations"] is False


@pytest.mark.parametrize("horizon, flagged", [(1024, False), (1075, True)])
def test_self_check_flags_only_a_rule_off_its_optimum(horizon, flagged):
    p = so.iid_problem(**NEAR_COINS)
    tables = so.solve_truncated(p, horizon)
    check = _self_check(tables.q0, so.evaluate(p, so.extract_rule(tables)).r)
    assert check["flagged"] is flagged


def test_solve_exits_flagged_when_its_rule_misses_q0(tmp_path, capsys):
    config = tmp_path / "near_coins.json"
    config.write_text(json.dumps(so.problem_to_dict(so.iid_problem(**NEAR_COINS))))
    code, out_dir = run(
        capsys, "--out-root", str(tmp_path), "solve", str(config), "--horizon", "1075"
    )
    assert code == 5
    summary = json.loads((out_dir / "summary.json").read_text())
    gap = abs(summary["report"]["r"] - summary["q0"])
    assert summary["self_check"] == {"gap": gap, "flagged": True}
    assert gap > 0.1


def test_evaluate_round_trip(tmp_path, capsys):
    _, solve_dir = run(
        capsys, "--out-root", str(tmp_path), "solve", TWO_CHANNEL, "--horizon", "2"
    )
    code, ev_dir = run(
        capsys,
        "--out-root", str(tmp_path),
        "evaluate", TWO_CHANNEL,
        "--rule", str(solve_dir / "rule.csv"),
    )
    assert code == 0
    report = json.loads((ev_dir / "report.json").read_text())
    summary = json.loads((solve_dir / "summary.json").read_text())
    assert report == summary["report"]
    assert (ev_dir / "report.csv").exists()


def test_search_lagrange(tmp_path, capsys):
    code, out_dir = run(
        capsys,
        "--out-root", str(tmp_path),
        "search", TWO_CHANNEL,
        "--targets", "0.18,0.045",
        "--horizon", "2",
    )
    assert code == 0
    result = json.loads((out_dir / "result.json").read_text())
    lag = result["lagrange"]
    assert lag["converged"] is True
    assert lag["achieved"] == pytest.approx([0.18, 0.045], abs=1e-9)
    assert lag["n_psi"] == pytest.approx(1.55, abs=1e-9)
    header = (out_dir / "trace.csv").read_text().splitlines()[0]
    assert header == "lam_0,lam_1,achieved_0,achieved_1,n_psi"
    assert (out_dir / "rule.csv").exists()


def _evaluate_rule(capsys, tmp_path, config: str, rule_csv: Path) -> dict:
    code, ev_dir = run(
        capsys, "--out-root", str(tmp_path), "evaluate", config, "--rule", str(rule_csv)
    )
    assert code == 0
    return json.loads((ev_dir / "report.json").read_text())


def test_search_rule_keeps_its_decisions(tmp_path, capsys):
    code, out_dir = run(
        capsys,
        "--out-root", str(tmp_path),
        "search", TWO_CHANNEL,
        "--targets", "0.2,0.12",
        "--horizon", "1",
    )
    assert code == 0
    lag = json.loads((out_dir / "result.json").read_text())["lagrange"]
    assert lag["converged"] is True
    assert lag["achieved"] == pytest.approx([0.18, 0.12], abs=1e-12)
    header = (out_dir / "rule.csv").read_text().splitlines()[0]
    assert header == "engine,stage,state,stop_prob,decision_prob_0,decision_prob_1"
    report = _evaluate_rule(capsys, tmp_path, TWO_CHANNEL, out_dir / "rule.csv")
    assert report["w_groups"] == pytest.approx(lag["achieved"], abs=1e-12)
    assert report["n_psi"] == pytest.approx(lag["n_psi"], abs=1e-12)


def test_lagrange_mixture_rule_file_reads_back(tmp_path, capsys):
    # This mixture leaves states unreached, where mu summing to 1 + 2^-52
    # once wrote stop probabilities of 1.0000000000000002 that evaluate refused.
    code, out_dir = run(
        capsys,
        "--out-root", str(tmp_path),
        "search", TWO_CHANNEL,
        "--targets", "0.3,0.03",
        "--horizon", "5",
    )
    assert code == 0
    _evaluate_rule(capsys, tmp_path, TWO_CHANNEL, out_dir / "rule.csv")


def test_sprt_rule_keeps_its_decisions(tmp_path, capsys):
    code, out_dir = run(
        capsys,
        "--out-root", str(tmp_path),
        "search", SYMMETRIC,
        "--targets", "0.05,0.05",
        "--mode", "sprt",
        "--cap", "30",
        "--conservative",
    )
    assert code == 0
    oc = json.loads((out_dir / "result.json").read_text())["sprt"]
    report = _evaluate_rule(capsys, tmp_path, SYMMETRIC, out_dir / "rule.csv")
    assert report["error_probs"] == pytest.approx([oc["alpha"], oc["beta"]], abs=1e-12)


def test_search_sprt(tmp_path, capsys):
    code, out_dir = run(
        capsys,
        "--out-root", str(tmp_path),
        "search", TWO_CHANNEL,
        "--targets", "0.3,0.3",
        "--mode", "sprt",
        "--cap", "40",
        "--conservative",
    )
    assert code == 0
    result = json.loads((out_dir / "result.json").read_text())
    assert result["sprt"]["alpha"] <= 0.3 + 1e-12
    assert result["sprt"]["beta"] <= 0.3 + 1e-12
    assert (out_dir / "rule.csv").exists()


def test_search_sprt_result_leaves_stats_out(tmp_path, capsys):
    code, out_dir = run(
        capsys,
        "--out-root", str(tmp_path),
        "search", TWO_CHANNEL,
        "--targets", "0.3,0.3",
        "--mode", "sprt",
        "--cap", "40",
        "--conservative",
    )
    assert code == 0
    p = so.load_problem(TWO_CHANNEL)
    spec = so.match_sprt_errors(p, 0.3, 0.3, cap=40, conservative=True)
    oc = so.sprt_operating_characteristics(p, spec)
    assert oc.stats
    payload = {"mode": "sprt", "targets": [0.3, 0.3], "sprt": oc.to_dict()}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert (out_dir / "result.json").read_text() == text


def test_search_compare(tmp_path, capsys):
    code, out_dir = run(
        capsys,
        "--out-root", str(tmp_path),
        "search", TWO_CHANNEL,
        "--targets", "0.18,0.045",
        "--horizon", "2",
        "--cap", "25",
        "--compare",
    )
    assert code == 0
    lines = (out_dir / "comparison.csv").read_text().splitlines()
    assert lines[0] == "method,alpha,beta,n_psi,e_tau_theta1,e_tau_theta2"
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert set(rows) == {"lagrange", "sprt"}
    # like for like: the ratio test was matched to the optimal rule's errors
    assert float(rows["sprt"][1]) <= float(rows["lagrange"][1]) + 1e-12
    assert float(rows["sprt"][2]) <= float(rows["lagrange"][2]) + 1e-12
    assert (out_dir / "sprt_rule.csv").exists()


def test_simulate_deterministic(tmp_path, capsys):
    _, solve_dir = run(
        capsys, "--out-root", str(tmp_path), "solve", TWO_CHANNEL, "--horizon", "2"
    )
    argv = (
        "--out-root", str(tmp_path),
        "simulate", TWO_CHANNEL,
        "--rule", str(solve_dir / "rule.csv"),
        "--reps", "4000",
        "--seed", "11",
    )
    code, sim_dir = run(capsys, *argv)
    assert code == 0
    first = (sim_dir / "estimates.json").read_bytes()
    run(capsys, *argv)
    assert (sim_dir / "estimates.json").read_bytes() == first
    est = json.loads(first)
    assert abs(est["tau"]["mean"] - 1.55) <= 4 * est["tau"]["se"]


def test_simulate_trace(tmp_path, capsys):
    _, solve_dir = run(
        capsys, "--out-root", str(tmp_path), "solve", TWO_CHANNEL, "--horizon", "2"
    )
    code, sim_dir = run(
        capsys,
        "--out-root", str(tmp_path),
        "simulate", TWO_CHANNEL,
        "--rule", str(solve_dir / "rule.csv"),
        "--reps", "50",
        "--seed", "3",
        "--trace",
    )
    assert code == 0
    assert len((sim_dir / "trace.csv").read_text().splitlines()) == 51


def test_simulate_cap_hits_flag(tmp_path, capsys):
    rule = tmp_path / "never.csv"
    rule.write_text(
        "engine,stage,state,stop_prob\n"
        "counts,1,0|1,0.0\n"
        "counts,1,1|0,0.0\n"
    )
    code, sim_dir = run(
        capsys,
        "--out-root", str(tmp_path),
        "simulate", TWO_CHANNEL,
        "--rule", str(rule),
        "--reps", "200",
        "--seed", "1",
        "--cap", "1",
    )
    assert code == 5
    est = json.loads((sim_dir / "estimates.json").read_text())
    assert est["cap_hit_fraction"] == 1.0
    assert est["flagged"] is True


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"schema_version\": 1}")
    code, _ = run(capsys, "--out-root", str(tmp_path), "solve", str(bad))
    assert code == 2
    assert "error:" in run.err


def test_exit_code_missing_file(tmp_path, capsys):
    code, _ = run(capsys, "--out-root", str(tmp_path), "solve", str(tmp_path / "nope.json"))
    assert code == 2


def test_exit_code_bad_targets(tmp_path, capsys):
    code, _ = run(
        capsys,
        "--out-root", str(tmp_path),
        "search", TWO_CHANNEL,
        "--targets", "0.1,zap",
    )
    assert code == 2


def test_exit_code_infeasible(tmp_path, capsys):
    code, _ = run(
        capsys,
        "--out-root", str(tmp_path),
        "search", TWO_CHANNEL,
        "--targets", "0.0001,0.0001",
        "--horizon", "2",
    )
    assert code == 3


def test_exit_code_unreachable_sprt(tmp_path, capsys):
    code, _ = run(
        capsys,
        "--out-root", str(tmp_path),
        "search", TWO_CHANNEL,
        "--targets", "0.000001,0.000001",
        "--mode", "sprt",
        "--cap", "5",
        "--conservative",
    )
    assert code == 3


def test_exit_code_bad_sprt_cap(tmp_path, capsys):
    code, _ = run(
        capsys,
        "--out-root", str(tmp_path),
        "search", SYMMETRIC,
        "--targets", "0.05,0.05",
        "--mode", "sprt",
        "--cap", "0",
    )
    assert code == 2
    assert "cap must be an integer >= 1, got 0" in run.err


def test_exit_code_compare_needs_two_decisions(tmp_path, capsys):
    # Three decisions have no error pair to hold the ratio test to: a typed
    # error before the Lagrange search runs, not a TypeError after it.
    config = tmp_path / "three.json"
    config.write_text(json.dumps({
        "schema_version": 1, "parameters": ["a", "b", "c"], "alphabet_size": 2,
        "model": {"kind": "iid", "pmf": [[0.8, 0.2], [0.5, 0.5], [0.2, 0.8]]},
        "loss": [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "pi1": [0.3, 0.4, 0.3],
        "pi2": [0.3, 0.4, 0.3], "cost": 0.02,
        "constraints": {"groups": [["a"], ["c"]], "bounds": [0.3, 0.3]},
    }))
    argv = ("--out-root", str(tmp_path / "out"), "search", str(config), "--targets", "0.3,0.3",
            "--horizon", "4")
    code, _ = run(capsys, *argv, "--compare")
    assert code == 2
    assert "--compare needs a two-decision loss" in run.err
    assert "lagrange:" not in run.err and not (tmp_path / "out").exists()
    code, _ = run(capsys, *argv, "--mode", "sprt")
    assert code == 2
    assert "ratio-test decisions need a two-decision loss" in run.err


def test_exit_code_budget(tmp_path, capsys):
    code, _ = run(
        capsys,
        "--out-root", str(tmp_path),
        "solve", TWO_CHANNEL,
        "--horizon", "25",
        "--engine", "tree",
    )
    assert code == 4


def test_exit_code_rule_past_the_budget(tmp_path, capsys):
    rule = tmp_path / "rule.csv"
    rule.write_text('engine,stage,state,stop_prob\ntree,40,"' + ",".join(["0"] * 40) + '",1.0\n')
    code, _ = run(capsys, "--out-root", str(tmp_path), "evaluate", SYMMETRIC, "--rule", str(rule))
    assert code == 4
    assert "states for horizon 40" in run.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "seqopt" in capsys.readouterr().out


_RULE_HEAD = "engine,stage,state,stop_prob"


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
@pytest.mark.parametrize(
    "content, message",
    [
        (f"{_RULE_HEAD}\ncounts,x,1|0,1.0\ncounts,1,0|1,1.0\n",
         "rule file row 1, column 'stage': 'x' is not an integer"),
        (f"{_RULE_HEAD}\ncounts,1,1|0,1.0\ncounts,1,0|1,abc\n",
         "rule file row 2, column 'stop_prob': 'abc' is not a number"),
        (f"{_RULE_HEAD},decision_prob_0,decision_prob_1\n"
         "counts,1,1|0,1.0,1.0,0.0\ncounts,1,0|1,1.0,x,1.0\n",
         "rule file row 2, column 'decision_prob_0': 'x' is not a number"),
        (f"{_RULE_HEAD}\ncounts,1,1|0,1.0\n".encode() + b"counts,1,0|1,\xff\n",
         "rule file is not CSV text"),
    ],
    ids=["stage", "stop_prob", "decision", "undecodable"],
)
def test_malformed_rule_cells_exit_2(tmp_path, capsys, command, content, message):
    # Each of these once ended in a ValueError or UnicodeDecodeError traceback, exit 1.
    rule = tmp_path / "rule.csv"
    if isinstance(content, bytes):
        rule.write_bytes(content)
    else:
        rule.write_text(content)
    extra = ["--reps", "10", "--seed", "1"] if command == "simulate" else []
    code, _ = run(
        capsys, "--out-root", str(tmp_path), command, SYMMETRIC, "--rule", str(rule), *extra
    )
    assert code == 2
    assert f"error: {message}" in run.err


def test_config_not_utf8_exits_2(tmp_path, capsys):
    # A byte that is not UTF-8 once ended in a UnicodeDecodeError traceback, exit 1.
    bad = tmp_path / "latin.json"
    bad.write_bytes(b'{"cost": "\xff"}')
    code, _ = run(capsys, "--out-root", str(tmp_path / "out"), "solve", str(bad))
    assert code == 2
    assert "error: problem description is not valid JSON: 'utf-8' codec can't" in run.err
    assert not (tmp_path / "out").exists()


def _count_reads(monkeypatch) -> Counter:
    """Opens for reading, by path, from the calls below (pathlib opens through io.open)."""
    reads: Counter = Counter()
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if not set(mode) & set("wax+"):
            reads[str(file)] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    return reads


def test_each_input_is_read_once(tmp_path, capsys, monkeypatch):
    root = ("--out-root", str(tmp_path))
    _, solve_dir = run(capsys, *root, "solve", TWO_CHANNEL, "--horizon", "2")
    rule = str(solve_dir / "rule.csv")
    commands = [
        ("solve", TWO_CHANNEL, "--horizon", "3"),
        ("search", TWO_CHANNEL, "--targets", "0.18,0.045", "--horizon", "2"),
        ("evaluate", TWO_CHANNEL, "--rule", rule),
        ("simulate", TWO_CHANNEL, "--rule", rule, "--reps", "20", "--seed", "1"),
    ]
    reads = _count_reads(monkeypatch)
    for argv in commands:
        reads.clear()
        code, _ = run(capsys, *root, *argv)
        assert code == 0
        expected = {TWO_CHANNEL: 1, **({rule: 1} if "--rule" in argv else {})}
        assert dict(reads) == expected, argv


def test_manifest_lists_the_run_directory(tmp_path, capsys):
    root = ("--out-root", str(tmp_path))
    _, solve_dir = run(capsys, *root, "solve", TWO_CHANNEL, "--horizon", "2")
    rule = str(solve_dir / "rule.csv")
    dirs = [solve_dir]
    for argv in [
        ("evaluate", TWO_CHANNEL, "--rule", rule),
        ("search", TWO_CHANNEL, "--targets", "0.18,0.045", "--horizon", "2", "--cap", "25",
         "--compare"),
        ("search", SYMMETRIC, "--targets", "0.05,0.05", "--mode", "sprt", "--cap", "30",
         "--conservative"),
        ("simulate", TWO_CHANNEL, "--rule", rule, "--reps", "50", "--seed", "3", "--trace"),
    ]:
        code, out_dir = run(capsys, *root, *argv)
        assert code == 0
        dirs.append(out_dir)
    assert {d.name.split("-")[0] for d in dirs} == {"solve", "evaluate", "search", "simulate"}
    for d in dirs:
        outputs = json.loads((d / "manifest.json").read_text())["outputs"]
        assert outputs == sorted(f.name for f in d.iterdir() if f.name != "manifest.json")
    assert "comparison.csv" in json.loads((dirs[2] / "manifest.json").read_text())["outputs"]


@pytest.mark.parametrize(
    "argv",
    [
        ("evaluate", TWO_CHANNEL, "--rule", "BAD"),
        ("search", SYMMETRIC, "--targets", "0.05,0.05", "--mode", "sprt", "--cap", "0"),
    ],
    ids=["bad-rule-cell", "cap-0"],
)
def test_failed_command_leaves_no_directory(tmp_path, capsys, argv):
    bad = tmp_path / "bad_rule.csv"
    bad.write_text(f"{_RULE_HEAD}\ncounts,1,1|0,abc\ncounts,1,0|1,1.0\n")
    argv = [str(bad) if a == "BAD" else a for a in argv]
    code, _ = run(capsys, "--out-root", str(tmp_path / "out"), *argv)
    assert code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "config, targets, cap", [(SYMMETRIC, (0.05, 0.05), 50), (TWO_CHANNEL, (0.3, 0.3), 40)]
)
def test_sprt_rule_file_is_the_evaluated_ratio_test(tmp_path, capsys, config, targets, cap):
    code, out_dir = run(
        capsys, "--out-root", str(tmp_path), "search", config,
        "--targets", ",".join(map(str, targets)), "--mode", "sprt", "--cap", str(cap),
        "--conservative",
    )
    assert code == 0
    p = so.load_problem(config)
    spec = so.match_sprt_errors(p, *targets, cap=cap, conservative=True)
    oc = so.sprt_operating_characteristics(p, spec)
    assert so.evaluate(p, oc.rule, oc.decision).to_dict() == oc.report.to_dict()
    # The referee: the uncapped test of sprt_rule, capped by truncate_rule.
    space = state_space(p, "counts")
    rule, decision = so.sprt_rule(p, spec)
    buf = io.StringIO(newline="")
    so.truncate_rule(rule, cap, space).to_csv(buf, p, decision)
    assert (out_dir / "rule.csv").read_bytes() == buf.getvalue().encode()
