"""The benchmark's three workloads: seeded inputs, operations and output checks.

A workload is built by `setup(seed, workdir)`, which returns the operations
of one round. Each operation calls seqopt's public API through the package
namespace at call time (`so.solve_truncated`, not a saved reference), so the
tracer's wrappers see the calls. An operation times its own public calls into
named totals (`solve_s`, `evaluate_s`, ...) and returns its outputs; its check
runs afterwards, outside every timed span, and returns failures, flags and a
digest of the numbers it produced.

Instance sizes are fixed and the seed draws only the numbers inside them,
so the work per round does not depend on the seed. In `exact` it draws the
pmfs, kernels, priors, losses and costs. In `simulate` it draws only the
Monte Carlo seeds, because walk lengths follow the rules. `search` runs
fixed models and targets: its probe path is a step function of them (a 2%
change of the limit-mode targets takes the match from ~100 probes to
~2000), so the seed only orders its operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import seqopt as so
import seqopt.cli  # noqa: F401  (not imported by the package itself)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# (alphabet K, parameters m, horizon N). K=3 and K=4 end near 10^4 count
# states at the last stage (5151 and 9139); K=2 is deep instead (513 stages).
EXACT_IID = [(2, 3, 512), (3, 2, 100), (4, 3, 36)]
# (K, m, horizon) of the order-1 Markov kernels solved on the tree engine.
EXACT_TREE = [(2, 2, 14), (3, 3, 9)]
CLI_SHAPE = (3, 2, 40)
LIMIT_CONFIGS = ["two_channel.json", "symmetric.json"]
LIMIT_CAP = 256  # solve_limit's horizon cap; the certificate is checked against N=LIMIT_CAP
SIM_COUNTS_CAP = 40
SIM_TREE_SHAPE = (2, 2, 12)
SIM_REPS = {"counts": 20_000, "tree": 10_000}
REFERENCE_SHAPE = (3, 2, 6)

RISK_RTOL = 1e-9  # extracted rule vs reported optimum, relative to max(1, q0)
ENGINE_ATOL = 1e-12
MASS_ATOL = 1e-9
MC_SE = 5.0
ROUNDING = 1e-12


def rel_tol(q0: float) -> float:
    return RISK_RTOL * max(1.0, abs(q0))


# --- seeded inputs -----------------------------------------------------------


def random_iid(rng: np.random.Generator, k: int, m: int) -> so.Problem:
    """iid problem with pmfs bounded away from zero and a random cost."""
    pmf = rng.uniform(0.05, 1.0, size=(m, k))
    pmf /= pmf.sum(axis=1, keepdims=True)
    pi1, pi2 = (v / v.sum() for v in rng.uniform(0.1, 1.0, size=(2, m)))
    w = so.zero_one_loss(m) * rng.uniform(0.5, 2.0, size=(m, 1))
    c = float(np.exp(rng.uniform(np.log(0.005), np.log(0.2))))
    return so.iid_problem(pmf=pmf, loss=w, pi1=pi1, pi2=pi2, cost=c)


class MarkovKernel:
    """Order-1 Markov kernel: the next symbol's pmf depends on the last one."""

    def __init__(self, init: np.ndarray, trans: np.ndarray):
        self.init = init  # (m, K)
        self.trans = trans  # (m, K, K)

    def __call__(self, theta: int, history: tuple[int, ...]) -> np.ndarray:
        return self.trans[theta, history[-1]] if history else self.init[theta]


def random_markov(rng: np.random.Generator, k: int, m: int, horizon: int) -> so.Problem:
    """History-dependent problem; validation walks every history to the horizon."""
    rows = rng.uniform(0.05, 1.0, size=(m, k + 1, k))
    rows /= rows.sum(axis=2, keepdims=True)
    kernel = MarkovKernel(rows[:, 0, :], rows[:, 1:, :])
    pi1, pi2 = (v / v.sum() for v in rng.uniform(0.1, 1.0, size=(2, m)))
    w = so.zero_one_loss(m) * rng.uniform(0.5, 2.0, size=(m, 1))
    c = float(np.exp(rng.uniform(np.log(0.005), np.log(0.05))))
    p = so.Problem(
        params=so.ParameterSpace(tuple(f"theta{i + 1}" for i in range(m))),
        obs=so.ObservationModel(alphabet_size=k, kind="dependent", kernel=kernel, horizon=horizon),
        loss=so.LossSpec(tuple(f"d{j + 1}" for j in range(m)), w),
        priors=so.Priors(pi1, pi2),
        cost=so.CostSpec(c),
    )
    return so.validate_problem(p)


def problem_arrays(p: so.Problem) -> list:
    """Every number that defines a problem, for the input digest."""
    obs = p.obs
    model = [obs.iid_pmf] if obs.kind == "iid" else [obs.kernel.init, obs.kernel.trans]
    return [*model, p.loss.w, p.priors.pi1, p.priors.pi2, p.cost.c]


def digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()[:16]


# --- operations --------------------------------------------------------------


class CallTimes:
    """Total time and call count per public-call metric within one round."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()

    @contextlib.contextmanager
    def timed(self, metric: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[metric] += time.perf_counter() - t0
            self.calls[metric] += 1


@dataclass
class Outcome:
    """What a check found: failures fail the op, flags do not."""

    failures: list[str] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    numbers: tuple = ()
    solve_op: bool = False
    optimality_miss: bool = False

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


@dataclass
class Op:
    name: str
    run: Callable[[CallTimes], object]
    check: Callable[[object], Outcome]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs_digest: str


def _check_report(out: Outcome, report) -> None:
    """A truncated rule promises finite functionals and stopping mass 1."""
    out.require(
        report.r_finite and all(math.isfinite(v) for v in (report.r, report.n_psi, report.w_total))
        and bool(np.all(np.isfinite(report.n_theta))),
        "non-finite risk functionals for a truncated rule",
    )
    out.require(
        bool(np.all(np.abs(report.mass_stopped_theta - 1.0) <= MASS_ATOL)),
        f"stopping mass {report.mass_stopped_theta.tolist()} != 1",
    )


def _check_optimum(out: Outcome, q0: float, risk: float) -> None:
    """No rule beats the optimum; a rule above it is the tie-tolerance defect."""
    out.solve_op = True
    out.require(math.isfinite(q0), "non-finite q0")
    out.require(risk >= q0 - rel_tol(q0), f"rule risk {risk!r} below the optimum {q0!r}")
    if risk > q0 + rel_tol(q0):
        out.optimality_miss = True
        out.flags.append(f"extracted rule risk {risk:.6g} above q0 {q0:.6g}")


def pipeline_op(name: str, p: so.Problem, horizon: int) -> Op:
    def run(t: CallTimes):
        with t.timed("solve_s"):
            tables = so.solve_truncated(p, horizon)
            rule = so.extract_rule(tables)
        with t.timed("evaluate_s"):
            report = so.evaluate(p, rule)
        return tables.q0, report

    def check(res) -> Outcome:
        q0, report = res
        out = Outcome(numbers=(q0, report.r, report.n_psi, report.w_total))
        _check_report(out, report)
        _check_optimum(out, q0, report.r)
        return out

    return Op(name, run, check)


def limit_op(name: str, p: so.Problem) -> Op:
    reference: dict[str, float] = {}

    def run(t: CallTimes):
        with t.timed("solve_s"):
            tables = so.solve_limit(p, n_cap=LIMIT_CAP)
            rule = so.extract_rule(tables)
        with t.timed("evaluate_s"):
            report = so.evaluate(p, rule)
        return tables.q0, tables.converged, tables.tol, tables.horizon, report

    def check(res) -> Outcome:
        q0, converged, tol, horizon, report = res
        out = Outcome(numbers=(q0, horizon, converged, report.r))
        _check_report(out, report)
        _check_optimum(out, q0, report.r)
        if not converged:
            out.flags.append("solve_limit converged=False")
        else:
            if "q0" not in reference:
                reference["q0"] = so.solve_truncated(p, LIMIT_CAP).q0
            if q0 - reference["q0"] > tol:
                out.optimality_miss = True
                out.flags.append(
                    f"converged=True at N={horizon} with q0 {q0:.6g}, "
                    f"but N={LIMIT_CAP} gives {reference['q0']:.6g}"
                )
        return out

    return Op(name, run, check)


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = so.cli.main(argv)
    return code, buf.getvalue().strip()


def cli_op(name: str, config: Path, horizon: int, out_root: Path) -> Op:
    """`seqopt solve` then `seqopt evaluate --rule` on the written rule."""

    def run(t: CallTimes):
        with t.timed("cli_s"):
            code_s, solve_dir = _cli(
                ["--out-root", str(out_root), "solve", str(config), "--horizon", str(horizon)]
            )
            code_e, eval_dir = _cli(
                ["--out-root", str(out_root), "evaluate", str(config),
                 "--rule", str(Path(solve_dir) / "rule.csv")]
            )
        return code_s, solve_dir, code_e, eval_dir

    def check(res) -> Outcome:
        code_s, solve_dir, code_e, eval_dir = res
        out = Outcome()
        try:
            out.require(code_s == 0 and code_e == 0, f"cli exit codes {code_s}, {code_e}")
            if out.failures:
                return out
            summary = json.loads((Path(solve_dir) / "summary.json").read_text())
            report = json.loads((Path(eval_dir) / "report.json").read_text())
            q0, r_solve, r_eval = summary["q0"], summary["report"]["r"], report["r"]
            out.numbers = (q0, r_solve, r_eval)
            out.require(
                abs(r_eval - r_solve) <= ENGINE_ATOL * max(1.0, abs(r_solve)),
                f"evaluate --rule gives r={r_eval!r}, solve reported {r_solve!r}",
            )
            masses = [v for k, v in report["mass_stopped"].items() if k not in ("pi1", "pi2")]
            out.require(all(abs(v - 1.0) <= MASS_ATOL for v in masses), "stopping mass != 1")
            _check_optimum(out, q0, r_solve)
        finally:
            shutil.rmtree(out_root, ignore_errors=True)
        return out

    return Op(name, run, check)


def match_op(name: str, p: so.Problem, targets, cfg) -> Op:
    def run(t: CallTimes):
        with t.timed("match_s"):
            return so.match_constraints(p, targets, cfg)

    def check(res) -> Outcome:
        out = Outcome(
            numbers=(*res.lam.tolist(), *res.achieved.tolist(), res.n_psi, res.converged,
                     res.horizon)
        )
        if res.converged:
            out.require(
                bool(np.all(np.abs(res.achieved - res.targets) <= cfg.residual_tol)),
                f"converged=True with residuals {(res.achieved - res.targets).tolist()}",
            )
        else:
            out.flags.append(f"match converged=False at horizon {res.horizon}")
        report = so.evaluate(p, res.rule, res.decision)
        out.require(
            bool(np.all(np.abs(report.w_groups - res.achieved) <= ENGINE_ATOL)),
            "re-evaluated group losses differ from the reported ones",
        )
        _check_report(out, report)
        return out

    return Op(name, run, check)


def sprt_op(name: str, p: so.Problem, alpha: float, beta: float, cap: int) -> Op:
    def run(t: CallTimes):
        with t.timed("sprt_match_s"):
            return so.match_sprt_errors(p, alpha, beta, cap=cap, conservative=True)

    def check(spec) -> Outcome:
        oc = so.sprt_operating_characteristics(p, spec)
        out = Outcome(numbers=(spec.a_upper, spec.b_lower, oc.alpha, oc.beta))
        out.require(
            oc.alpha <= alpha and oc.beta <= beta,
            f"conservative match gives errors ({oc.alpha}, {oc.beta}) above ({alpha}, {beta})",
        )
        _check_report(out, oc.report)
        return out

    return Op(name, run, check)


def mc_check(p: so.Problem, report, res) -> Outcome:
    """Monte Carlo tau, loss and decision frequencies within MC_SE standard errors."""
    out = Outcome(numbers=(res.tau_mean, res.loss_mean, *res.decision_freq.tolist()))
    pi2 = p.priors.pi2
    exact_freq = pi2 @ report.decision_probs
    exact_loss = float(pi2 @ (report.decision_probs * p.loss.w).sum(axis=1))
    reps = res.replications
    # ROUNDING absorbs the last bits when every replication gives the same value (se 0).
    out.require(
        abs(res.tau_mean - report.n_psi) <= MC_SE * res.tau_se + ROUNDING * report.n_psi,
        f"MC tau {res.tau_mean} vs exact {report.n_psi} (se {res.tau_se})",
    )
    out.require(
        abs(res.loss_mean - exact_loss) <= MC_SE * res.loss_se + ROUNDING,
        f"MC loss {res.loss_mean} vs exact {exact_loss} (se {res.loss_se})",
    )
    for d, (f, e, se) in enumerate(zip(res.decision_freq, exact_freq, res.decision_freq_se)):
        se = max(se, math.sqrt(e * (1.0 - e) / reps))
        out.require(abs(f - e) <= MC_SE * se + ROUNDING, f"MC decision {d} freq {f} vs exact {e}")
    if res.flagged:
        out.flags.append(f"simulate cap hits {res.cap_hit_fraction}")
    return out


def simulate_op(name: str, p: so.Problem, rule, cfg) -> Op:
    exact: dict[str, object] = {}

    def run(t: CallTimes):
        with t.timed("simulate_s"):
            return so.simulate(p, rule, cfg)

    def check(res) -> Outcome:
        if "report" not in exact:
            exact["report"] = so.evaluate(p, rule)
        return mc_check(p, exact["report"], res)

    return Op(name, run, check)


# --- workloads -----------------------------------------------------------------


def _write_config(p: so.Problem, path: Path) -> Path:
    path.write_text(json.dumps(so.problem_to_dict(p)))
    return path


def setup_exact(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops, inputs = [], []
    for k, m, n in EXACT_IID:
        p = random_iid(rng, k, m)
        ops.append(pipeline_op(f"iid_K{k}_m{m}_N{n}", p, n))
        inputs += problem_arrays(p) + [n]
    for k, m, h in EXACT_TREE:
        p = random_markov(rng, k, m, h)
        ops.append(pipeline_op(f"markov_K{k}_m{m}_H{h}", p, h))
        inputs += problem_arrays(p) + [h]
    for name in LIMIT_CONFIGS:
        p = so.load_problem(CONFIGS / name)
        ops.append(limit_op(f"limit_{name.removesuffix('.json')}", p))
        inputs += problem_arrays(p)
    k, m, n = CLI_SHAPE
    p = random_iid(rng, k, m)
    config = _write_config(p, workdir / "cli_problem.json")
    ops.append(cli_op(f"cli_K{k}_m{m}_N{n}", config, n, workdir / "cli_out"))
    inputs += problem_arrays(p) + [n]
    return Workload("exact", ops, digest(inputs))


def setup_search(seed: int, workdir: Path) -> Workload:
    two = so.load_problem(CONFIGS / "two_channel.json")
    sym = so.load_problem(CONFIGS / "symmetric.json")
    ops = [
        match_op("match_limit_two_channel", two, two.constraints.bounds, so.SearchConfig()),
        match_op("match_h8_two_channel", two, (0.05, 0.03), so.SearchConfig(horizon=8)),
        sprt_op("sprt_symmetric_cap50", sym, 0.05, 0.05, 50),
    ]
    order = np.random.default_rng([seed, 2]).permutation(len(ops))
    ops = [ops[i] for i in order]
    inputs = problem_arrays(two) + problem_arrays(sym) + [op.name for op in ops]
    return Workload("search", ops, digest(inputs))


def setup_simulate(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    mc_seeds = [int(s) for s in rng.integers(0, 2**63, size=2)]
    two = so.load_problem(CONFIGS / "two_channel.json")
    two_rule = so.extract_rule(so.solve_truncated(two, SIM_COUNTS_CAP))
    k, m, h = SIM_TREE_SHAPE
    # Fixed models (the kernel comes from a constant seed), so the work per
    # round does not depend on the workload seed.
    markov = random_markov(np.random.default_rng([0, 3]), k, m, h)
    markov_rule = so.extract_rule(so.solve_truncated(markov, h))
    ops = [
        simulate_op(
            f"simulate_two_channel_cap{SIM_COUNTS_CAP}", two, two_rule,
            so.SimConfig(SIM_REPS["counts"], mc_seeds[0], SIM_COUNTS_CAP),
        ),
        simulate_op(
            f"simulate_markov_K{k}_m{m}_H{h}", markov, markov_rule,
            so.SimConfig(SIM_REPS["tree"], mc_seeds[1], h),
        ),
    ]
    inputs = problem_arrays(two) + problem_arrays(markov) + mc_seeds
    return Workload("simulate", ops, digest(inputs))


SETUPS = {"exact": setup_exact, "search": setup_search, "simulate": setup_simulate}


# --- reference checks ----------------------------------------------------------


def reference_checks(seed: int, workdir: Path) -> Outcome:
    """One small seeded instance through every module, checked independently.

    The tree and count engines must agree on it to ENGINE_ATOL; Monte Carlo
    must agree with the exact evaluation; unit multipliers must leave the
    problem unchanged; a capped ratio test must stop with mass 1; and the
    CLI's evaluate of its own rule must reproduce its solve.
    """
    rng = np.random.default_rng([seed, 0])
    k, m, n = REFERENCE_SHAPE
    p = random_iid(rng, k, m)
    out = Outcome()
    reports = {}
    q0 = {}
    for engine in ("counts", "tree"):
        tables = so.solve_truncated(p, n, engine=engine)
        q0[engine] = tables.q0
        rule = so.extract_rule(tables)
        reports[engine] = (rule, so.evaluate(p, rule))
    out.require(abs(q0["counts"] - q0["tree"]) <= ENGINE_ATOL, f"engines disagree on q0: {q0}")
    r = {e: rep.r for e, (_, rep) in reports.items()}
    out.require(abs(r["counts"] - r["tree"]) <= ENGINE_ATOL, f"engines disagree on risk: {r}")
    rule, report = reports["counts"]
    _check_report(out, report)

    sim = so.simulate(p, rule, so.SimConfig(4000, int(rng.integers(0, 2**63)), n))
    mc = mc_check(p, report, sim)
    out.failures += mc.failures

    grouped = so.iid_problem(
        pmf=p.obs.iid_pmf, loss=p.loss.w, pi1=p.priors.pi1, pi2=p.priors.pi2, cost=p.cost.c,
        groups=[[0], list(range(1, m))], bounds=[1.0, 1.0],
    )
    unit = so.solve_truncated(so.weighted_problem(grouped, [1.0, 1.0]), n).q0
    out.require(abs(unit - q0["counts"]) <= ENGINE_ATOL, "unit multipliers change q0")

    two = so.iid_problem(
        pmf=p.obs.iid_pmf[:2, :2] / p.obs.iid_pmf[:2, :2].sum(axis=1, keepdims=True),
        loss=so.zero_one_loss(2), pi1=[0.5, 0.5], pi2=[0.5, 0.5], cost=p.cost.c,
    )
    oc = so.sprt_operating_characteristics(two, so.SprtSpec(2.0, -2.0, cap=12))
    _check_report(out, oc.report)
    out.require(0.0 <= oc.alpha <= 1.0 and 0.0 <= oc.beta <= 1.0, "SPRT errors outside [0, 1]")

    config = _write_config(p, workdir / "reference_problem.json")
    cli = cli_op("reference_cli", config, n, workdir / "reference_out")
    res = cli.run(CallTimes())
    out.failures += cli.check(res).failures
    out.numbers = (q0["counts"], r["counts"], sim.tau_mean, unit, oc.alpha, oc.beta)
    return out
