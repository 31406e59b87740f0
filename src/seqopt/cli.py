"""Command line front end.

Four subcommands, each reading a JSON problem description and writing its
outputs to a content-addressed directory under --out-root (default ./out):

    seqopt solve config.json --horizon 6
    seqopt evaluate config.json --rule rule.csv
    seqopt search config.json --targets 0.18,0.045 --mode lagrange
    seqopt simulate config.json --rule rule.csv --reps 100000 --seed 7

The output directory name is <command>-<first 12 hex of a sha256> where the
hash covers the config bytes and the parameters that affect the result, so
identical invocations land in the same place and can be diffed byte for byte.
manifest.json lists what was written; it carries no timestamps.

Exit codes: 0 success, 2 invalid config or problem, 3 infeasible or
unreachable targets, 4 budget exceeded, 5 finished but flagged (simulation
cap hits above threshold, or a search that did not converge).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .backward_induction import should_take_observations, solve_limit, solve_truncated
from .bayes_decision import density_layer
from .config import load_problem
from .errors import (
    BudgetExceededError,
    ConfigError,
    InfeasibleTargetsError,
    SeqOptError,
    UnreachableTargetsError,
)
from .lagrange import SearchConfig, match_constraints
from .monte_carlo import SimConfig, simulate
from .risk_evaluation import evaluate
from .sprt import match_sprt_errors, sprt_operating_characteristics, sprt_rule
from .stopping_policy import extract_rule, rule_from_csv, truncate_rule

FLAGGED = 5


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _dump_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    )


def _run_dir(args: argparse.Namespace, config_bytes: bytes, params: dict) -> tuple[Path, str]:
    config_sha = hashlib.sha256(config_bytes).hexdigest()
    key = hashlib.sha256(
        json.dumps({"config": config_sha, "params": params}, sort_keys=True).encode()
    ).hexdigest()[:12]
    root = Path(args.out_root)
    return root / f"{args.command}-{key}", config_sha


def _finish(
    out_dir: Path, command: str, config_sha: str, params: dict, outputs: list[str]
) -> None:
    manifest = {
        "command": command,
        "config_sha256": config_sha,
        "parameters": params,
        "version": __version__,
        "outputs": sorted(outputs),
    }
    tmp = out_dir / "manifest.json.tmp"
    _dump_json(tmp, manifest)
    os.replace(tmp, out_dir / "manifest.json")
    print(out_dir)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{what} must be comma separated numbers, got {text!r}") from None


def _cmd_solve(args: argparse.Namespace) -> int:
    config_bytes = Path(args.config).read_bytes()
    p = load_problem(args.config)
    params = {
        "horizon": args.horizon,
        "limit": args.limit,
        "tol": args.tol,
        "cap": args.cap,
        "engine": args.engine,
    }
    out_dir, config_sha = _run_dir(args, config_bytes, params)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.limit or args.horizon is None:
        tables = solve_limit(p, tol=args.tol, n_cap=args.cap, engine=args.engine)
    else:
        tables = solve_truncated(p, args.horizon, engine=args.engine)
    rule = extract_rule(tables)
    take, margin = should_take_observations(tables)
    report = evaluate(p, rule)
    with open(out_dir / "values.csv", "w") as fh:
        tables.to_csv(fh)
    with open(out_dir / "rule.csv", "w") as fh:
        rule.to_csv(fh, tables.table.space)
    summary = {
        "q0": tables.q0,
        "l0": tables.l0,
        "v0": tables.v0,
        "horizon": tables.horizon,
        "converged": tables.converged,
        "q0_trace": tables.q0_trace,
        "take_observations": take,
        "stop_immediately_margin": margin,
        "report": report.to_dict(),
    }
    _dump_json(out_dir / "summary.json", summary)
    _finish(out_dir, "solve", config_sha, params, ["values.csv", "rule.csv", "summary.json"])
    return FLAGGED if tables.converged is False else 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config_bytes = Path(args.config).read_bytes()
    p = load_problem(args.config)
    params = {"rule_sha256": hashlib.sha256(Path(args.rule).read_bytes()).hexdigest()}
    out_dir, config_sha = _run_dir(args, config_bytes, params)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(args.rule) as fh:
        rule = rule_from_csv(fh, p)
    report = evaluate(p, rule)
    _dump_json(out_dir / "report.json", report.to_dict())
    with open(out_dir / "report.csv", "w") as fh:
        report.to_csv(fh)
    _finish(out_dir, "evaluate", config_sha, params, ["report.json", "report.csv"])
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    config_bytes = Path(args.config).read_bytes()
    p = load_problem(args.config)
    targets = _parse_floats(args.targets, "--targets")
    params = {
        "targets": targets,
        "mode": args.mode,
        "horizon": args.horizon,
        "cap": args.cap,
        "compare": args.compare,
        "conservative": args.conservative,
    }
    out_dir, config_sha = _run_dir(args, config_bytes, params)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs: list[str] = []
    flagged = False

    lag_result = None
    lag_report = None
    if args.mode == "lagrange" or args.compare:
        cfg = SearchConfig(horizon=args.horizon)
        lag_result = match_constraints(p, targets, cfg)
        lag_report = evaluate(p, lag_result.rule, lag_result.decision)
        flagged = flagged or not lag_result.converged
        with open(out_dir / "trace.csv", "w") as fh:
            k = len(lag_result.lam)
            lam_cols = ",".join(f"lam_{i}" for i in range(k))
            ach_cols = ",".join(f"achieved_{i}" for i in range(k))
            fh.write(f"{lam_cols},{ach_cols},n_psi,gamma\n")
            for row in lag_result.frontier_trace:
                lam = ",".join(f"{v:.17g}" for v in row["lam"])
                ach = ",".join(f"{v:.17g}" for v in row["achieved"])
                gamma = row.get("gamma", "")
                fh.write(f"{lam},{ach},{row['n_psi']:.17g},{gamma}\n")
        with open(out_dir / "rule.csv", "w") as fh:
            lag_result.rule.to_csv(fh, density_layer(p, lag_result.rule.engine).space)
        outputs += ["trace.csv", "rule.csv"]

    sprt_result = None
    if args.mode == "sprt" or args.compare:
        if args.compare:
            # Hold the ratio test to the errors the matched rule actually
            # achieves, so the sample-size columns compare like with like.
            alpha_t, beta_t = lag_report.error_probs
            conservative = True
        else:
            if len(targets) != 2:
                raise ConfigError("sprt mode needs exactly two targets: alpha,beta")
            alpha_t, beta_t = targets
            conservative = args.conservative
        spec = match_sprt_errors(p, alpha_t, beta_t, cap=args.cap, conservative=conservative)
        sprt_result = sprt_operating_characteristics(p, spec)
        name = "sprt_rule.csv" if args.compare else "rule.csv"
        rule, _ = sprt_rule(p, spec)
        space = density_layer(p, "counts").space
        with open(out_dir / name, "w") as fh:
            truncate_rule(rule, spec.cap, space).to_csv(fh, space)
        outputs.append(name)

    result_payload: dict = {"mode": args.mode, "targets": targets}
    if lag_result is not None:
        result_payload["lagrange"] = {
            "lam": lag_result.lam.tolist(),
            "achieved": lag_result.achieved.tolist(),
            "slack": lag_result.slack.tolist(),
            "n_psi": lag_result.n_psi,
            "converged": lag_result.converged,
            "horizon": lag_result.horizon,
        }
    if sprt_result is not None:
        result_payload["sprt"] = sprt_result.to_dict()
    _dump_json(out_dir / "result.json", result_payload)
    outputs.append("result.json")

    if args.compare and lag_result is not None and sprt_result is not None:
        with open(out_dir / "comparison.csv", "w") as fh:
            theta_cols = ",".join(f"e_tau_{lbl}" for lbl in p.params.labels)
            fh.write(f"method,alpha,beta,n_psi,{theta_cols}\n")
            la, lb = lag_report.error_probs
            lag_taus = ",".join(f"{v:.17g}" for v in lag_report.n_theta)
            fh.write(f"lagrange,{la:.17g},{lb:.17g},{lag_report.n_psi:.17g},{lag_taus}\n")
            sp_taus = ",".join(f"{v:.17g}" for v in sprt_result.e_tau)
            sp_n = float(np.dot(p.priors.pi2, sprt_result.e_tau))
            fh.write(
                f"sprt,{sprt_result.alpha:.17g},{sprt_result.beta:.17g},{sp_n:.17g},{sp_taus}\n"
            )
        outputs.append("comparison.csv")

    _finish(out_dir, "search", config_sha, params, outputs)
    return FLAGGED if flagged else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config_bytes = Path(args.config).read_bytes()
    p = load_problem(args.config)
    params = {
        "rule_sha256": hashlib.sha256(Path(args.rule).read_bytes()).hexdigest(),
        "reps": args.reps,
        "seed": args.seed,
        "theta_mode": args.theta_mode,
        "cap": args.cap,
        "trace": args.trace,
    }
    out_dir, config_sha = _run_dir(args, config_bytes, params)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(args.rule) as fh:
        rule = rule_from_csv(fh, p)
    theta_mode: str | int = args.theta_mode
    if theta_mode not in ("pi1", "pi2"):
        try:
            theta_mode = int(theta_mode)
        except ValueError:
            raise ConfigError(
                f"--theta-mode must be pi1, pi2, or a parameter index, got {theta_mode!r}"
            ) from None
    cap = args.cap if args.cap is not None else rule.horizon
    cfg = SimConfig(
        replications=args.reps,
        seed=args.seed,
        cap=cap,
        theta_mode=theta_mode,
        keep_trace=args.trace,
    )
    result = simulate(p, rule, cfg)
    _dump_json(out_dir / "estimates.json", result.to_dict())
    outputs = ["estimates.json"]
    if args.trace:
        with open(out_dir / "trace.csv", "w") as fh:
            result.trace_to_csv(fh)
        outputs.append("trace.csv")
    _finish(out_dir, "simulate", config_sha, params, outputs)
    return FLAGGED if result.flagged else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqopt",
        description="Optimal sequential hypothesis testing: solve, evaluate, search, simulate.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--out-root", default="out", help="directory for run outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="backward induction values and the optimal rule")
    solve.add_argument("config")
    solve.add_argument("--horizon", type=int, default=None, help="truncation horizon")
    solve.add_argument("--limit", action="store_true", help="grow the horizon to convergence")
    solve.add_argument("--tol", type=float, default=1e-10, help="limit mode tolerance")
    solve.add_argument("--cap", type=int, default=256, help="limit mode horizon cap")
    solve.add_argument("--engine", default="auto", choices=["auto", "tree", "counts"])
    solve.set_defaults(func=_cmd_solve)

    ev = sub.add_parser("evaluate", help="exact operating characteristics of a rule")
    ev.add_argument("config")
    ev.add_argument("--rule", required=True, help="rule.csv produced by solve or search")
    ev.set_defaults(func=_cmd_evaluate)

    search = sub.add_parser("search", help="match loss targets with multipliers or an SPRT")
    search.add_argument("config")
    search.add_argument("--targets", required=True, help="comma separated target losses")
    search.add_argument("--mode", default="lagrange", choices=["lagrange", "sprt"])
    search.add_argument("--horizon", type=int, default=None, help="fixed solve horizon")
    search.add_argument("--cap", type=int, default=200, help="sprt evaluation cap")
    search.add_argument("--conservative", action="store_true",
                        help="accept sprt thresholds with errors at or below target")
    search.add_argument("--compare", action="store_true",
                        help="run both modes and write comparison.csv")
    search.set_defaults(func=_cmd_search)

    sim = sub.add_parser("simulate", help="Monte Carlo check of a rule")
    sim.add_argument("config")
    sim.add_argument("--rule", required=True)
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--theta-mode", default="pi2",
                     help="pi2 (default), pi1, or a fixed parameter index")
    sim.add_argument("--cap", type=int, default=None,
                     help="stage cap per replication (default: rule horizon)")
    sim.add_argument("--trace", action="store_true", help="write per replication trace.csv")
    sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SeqOptError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (InfeasibleTargetsError, UnreachableTargetsError)):
            return 3
        return 4 if isinstance(e, BudgetExceededError) else 2


if __name__ == "__main__":
    sys.exit(main())
