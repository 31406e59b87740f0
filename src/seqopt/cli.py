"""Command line front end.

Four subcommands, each reading a JSON problem description and writing its
outputs to a content-addressed directory under --out-root (default ./out):

    seqopt solve config.json --horizon 6
    seqopt evaluate config.json --rule rule.csv
    seqopt search config.json --targets 0.18,0.045 --mode lagrange
    seqopt simulate config.json --rule rule.csv --reps 100000 --seed 7

Each input (the config, and the --rule file of evaluate and simulate) is
read once, hashed and parsed as read. The output directory name is
<command>-<first 12 hex of a sha256> where the hash covers the config bytes
and the parameters that affect the result, so identical invocations land in
the same place and can be diffed byte for byte. It is made with the first
output, once the command has computed its results, so a command that fails
leaves none. manifest.json lists each output as it is opened; it carries no
timestamps. search writes the capped ratio test its OCs were evaluated from.

Exit codes: 0 success, 2 invalid config or problem, 3 infeasible or
unreachable targets, 4 budget exceeded, 5 finished but flagged (simulation
cap hits above threshold, a search or limit-mode solve that did not converge,
or a solve whose extracted rule evaluates off its q0: summary.json's
self_check).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from typing import IO

import numpy as np

from . import __version__
from .backward_induction import should_take_observations, solve_limit, solve_truncated
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
from .sprt import match_sprt_errors, sprt_operating_characteristics
from .stopping_policy import (
    DecisionStrategy,
    StoppingRule,
    _write_solve_csvs,
    extract_rule,
    rule_from_csv,
)

FLAGGED = 5
SELF_CHECK_RTOL = 1e-9  # a solve's rule risk this far from q0, relative to max(1, |q0|), flags


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


class _Run:
    """One command's run: its inputs, each read once, and its output directory.

    The directory's key hashes the config bytes and `params`, which are set
    before the first output is opened. The first output opened makes the
    directory; each output joins the manifest as it is opened, and main
    writes the manifest once the command has returned.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = args
        config = Path(args.config).read_bytes()
        self.config_sha = hashlib.sha256(config).hexdigest()
        self.problem = load_problem(config)
        self.params: dict = {}
        self.outputs: list[str] = []
        self._dir: Path | None = None

    def read_rule(self) -> tuple[StoppingRule, DecisionStrategy | None]:
        """The --rule file's rule and decision strategy (or None), decoded as open() decodes."""
        data = Path(self.args.rule).read_bytes()
        self.params["rule_sha256"] = hashlib.sha256(data).hexdigest()
        return rule_from_csv(io.TextIOWrapper(io.BytesIO(data)), self.problem)

    def open(self, name: str) -> IO[str]:
        """Output `name`, opened for writing in the run directory, made if need be."""
        if self._dir is None:
            key = hashlib.sha256(
                json.dumps({"config": self.config_sha, "params": self.params},
                           sort_keys=True).encode()
            ).hexdigest()[:12]
            self._dir = Path(self.args.out_root) / f"{self.args.command}-{key}"
            self._dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return open(self._dir / name, "w")

    def write_json(self, name: str, payload) -> None:
        with self.open(name) as fh:
            fh.write(_json_text(payload))

    def write_rule(self, name: str, rule: StoppingRule, decision: DecisionStrategy) -> None:
        """A rule file that also carries the decision strategy the rule was evaluated with."""
        with self.open(name) as fh:
            rule.to_csv(fh, self.problem, decision)

    def finish(self) -> None:
        """Write manifest.json, listing the outputs, and print the directory."""
        manifest = {
            "command": self.args.command,
            "config_sha256": self.config_sha,
            "parameters": self.params,
            "version": __version__,
            "outputs": sorted(self.outputs),
        }
        tmp = self._dir / "manifest.json.tmp"
        tmp.write_text(_json_text(manifest))
        os.replace(tmp, self._dir / "manifest.json")
        print(self._dir)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{what} must be comma separated numbers, got {text!r}") from None


def _cmd_solve(run: _Run) -> int:
    args, p = run.args, run.problem
    run.params = {"horizon": args.horizon, "tol": args.tol, "cap": args.cap, "engine": args.engine}
    if args.horizon is None:
        tables = solve_limit(p, tol=args.tol, n_cap=args.cap, engine=args.engine)
    else:
        tables = solve_truncated(p, args.horizon, engine=args.engine)
    rule = extract_rule(tables)
    take, margin = should_take_observations(tables)
    report = evaluate(p, rule)
    with run.open("values.csv") as values_fh, run.open("rule.csv") as rule_fh:
        _write_solve_csvs(values_fh, rule_fh, tables, rule)
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
        "self_check": _self_check(tables.q0, report.r),
    }
    run.write_json("summary.json", summary)
    return FLAGGED if tables.converged is False or summary["self_check"]["flagged"] else 0


def _self_check(q0: float, r: float) -> dict:
    """|r - q0| of a solve's extracted rule, which attains q0 when the solve is sound."""
    gap = abs(r - q0)
    return {"gap": gap, "flagged": bool(gap > SELF_CHECK_RTOL * max(1.0, abs(q0)))}


def _cmd_evaluate(run: _Run) -> int:
    report = evaluate(run.problem, *run.read_rule())
    run.write_json("report.json", report.to_dict())
    with run.open("report.csv") as fh:
        report.to_csv(fh)
    return 0


def _cmd_search(run: _Run) -> int:
    args, p = run.args, run.problem
    targets = _parse_floats(args.targets, "--targets")
    if args.compare and p.n_decisions != 2:
        raise ConfigError("--compare needs a two-decision loss for the ratio test")
    run.params = {
        "targets": targets,
        "mode": args.mode,
        "horizon": args.horizon,
        "cap": args.cap,
        "compare": args.compare,
        "conservative": args.conservative,
    }

    lag_result = None
    if args.mode == "lagrange" or args.compare:
        lag_result = match_constraints(p, targets, SearchConfig(horizon=args.horizon))
        lag_report = lag_result.report
        st = lag_result.stats
        print(f"lagrange: converged={lag_result.converged} gap={st['gap']:.3g} "
              f"lp_rounds={st['lp_rounds']} probes={st['probes']}", file=sys.stderr)

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

    result_payload: dict = {"mode": args.mode, "targets": targets}
    if lag_result is not None:
        with run.open("trace.csv") as fh:
            k = len(lag_result.lam)
            lam_cols = ",".join(f"lam_{i}" for i in range(k))
            ach_cols = ",".join(f"achieved_{i}" for i in range(k))
            fh.write(f"{lam_cols},{ach_cols},n_psi\n")
            for row in lag_result.frontier_trace:
                lam = ",".join(f"{v:.17g}" for v in row["lam"])
                ach = ",".join(f"{v:.17g}" for v in row["achieved"])
                fh.write(f"{lam},{ach},{row['n_psi']:.17g}\n")
        run.write_rule("rule.csv", lag_result.rule, lag_result.decision)
        result_payload["lagrange"] = {
            "lam": lag_result.lam.tolist(),
            "achieved": lag_result.achieved.tolist(),
            "slack": lag_result.slack.tolist(),
            "n_psi": lag_result.n_psi,
            "converged": lag_result.converged,
            "horizon": lag_result.horizon,
        }
    if sprt_result is not None:
        name = "sprt_rule.csv" if args.compare else "rule.csv"
        run.write_rule(name, sprt_result.rule, sprt_result.decision)
        result_payload["sprt"] = sprt_result.to_dict()
    run.write_json("result.json", result_payload)

    if lag_result is not None and sprt_result is not None:
        with run.open("comparison.csv") as fh:
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

    return FLAGGED if lag_result is not None and not lag_result.converged else 0


def _cmd_simulate(run: _Run) -> int:
    args = run.args
    rule, decision = run.read_rule()
    theta_mode: str | int = args.theta_mode
    if theta_mode not in ("pi1", "pi2"):
        try:
            theta_mode = int(theta_mode)
        except ValueError:
            raise ConfigError(
                f"--theta-mode must be pi1, pi2, or a parameter index, got {theta_mode!r}"
            ) from None
    run.params.update(
        reps=args.reps, seed=args.seed, theta_mode=args.theta_mode, cap=args.cap, trace=args.trace
    )
    cap = args.cap if args.cap is not None else rule.horizon
    cfg = SimConfig(
        replications=args.reps,
        seed=args.seed,
        cap=cap,
        theta_mode=theta_mode,
        keep_trace=args.trace,
    )
    result = simulate(run.problem, rule, cfg, decision)
    run.write_json("estimates.json", result.to_dict())
    if args.trace:
        with run.open("trace.csv") as fh:
            result.trace_to_csv(fh)
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
    solve.add_argument("--horizon", type=int, help="truncation horizon; default: limit mode")
    solve.add_argument("--tol", type=float, default=1e-10,
                       help="limit mode: stop once two successive horizon doublings agree "
                       "within this (a plateau passes too: not an error bound)")
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
        run = _Run(args)
        code = args.func(run)
        run.finish()
        return code
    except (SeqOptError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (InfeasibleTargetsError, UnreachableTargetsError)):
            return 3
        return 4 if isinstance(e, BudgetExceededError) else 2


if __name__ == "__main__":
    sys.exit(main())
