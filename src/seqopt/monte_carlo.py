"""Monte Carlo cross-check of the exact evaluator.

Each replication draws a parameter from the configured prior (or holds it
fixed), then walks the observation process, stopping at stage n with the
rule's probability there: stop iff u < stop_prob with a fresh uniform per
stage, which has exactly the right probability for every value including 0
and 1.

Reproducibility: replication r uses a counter-based Philox generator keyed by
(seed, r), and consumes uniforms from its own block in a fixed order (one for
the parameter draw, then an observation/stopping pair per stage). Estimates
are plain means over the replication index, so results are bit-identical for
a given (seed, replications) regardless of execution order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import SeqOptError
from .histories import CountStateSpace
from .model import Problem
from .risk_evaluation import DecisionStrategy
from .bayes_decision import HistoryTable, density_layer
from .stopping_policy import StoppingRule

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimConfig:
    replications: int
    seed: int
    cap: int
    theta_mode: str | int = "pi2"  # "pi1", "pi2", or a fixed parameter index
    cap_hit_threshold: float = 0.01
    keep_trace: bool = False


@dataclass(eq=False)
class SimResult:
    replications: int
    seed: int
    cap: int
    theta_mode: str | int
    tau_mean: float
    tau_se: float
    loss_mean: float
    loss_se: float
    group_loss_mean: np.ndarray | None
    group_loss_se: np.ndarray | None
    decision_freq: np.ndarray
    decision_freq_se: np.ndarray
    cap_hit_fraction: float
    flagged: bool
    theta_freq: np.ndarray
    trace: dict[str, np.ndarray] | None = None

    def to_dict(self) -> dict:
        return {
            "replications": self.replications,
            "seed": self.seed,
            "cap": self.cap,
            "theta_mode": self.theta_mode,
            "tau": {"mean": self.tau_mean, "se": self.tau_se},
            "loss": {"mean": self.loss_mean, "se": self.loss_se},
            "group_loss": None
            if self.group_loss_mean is None
            else {
                "mean": self.group_loss_mean.tolist(),
                "se": self.group_loss_se.tolist(),
            },
            "decision_freq": self.decision_freq.tolist(),
            "decision_freq_se": self.decision_freq_se.tolist(),
            "cap_hit_fraction": self.cap_hit_fraction,
            "flagged": self.flagged,
            "theta_freq": self.theta_freq.tolist(),
        }

    def to_json(self, fh: IO[str]) -> None:
        json.dump(self.to_dict(), fh, indent=2)
        fh.write("\n")

    def trace_to_csv(self, fh: IO[str]) -> None:
        if self.trace is None:
            raise SeqOptError("simulation ran without keep_trace")
        writer = csv.writer(fh)
        writer.writerow(["replication", "theta", "tau", "decision", "loss", "cap_hit"])
        t = self.trace
        for i in range(self.replications):
            writer.writerow(
                [i, int(t["theta"][i]), int(t["tau"][i]), int(t["decision"][i]),
                 repr(float(t["loss"][i])), int(t["cap_hit"][i])]
            )


def _theta_cdf(p: Problem, mode: str | int) -> np.ndarray | None:
    if mode == "pi1":
        return np.cumsum(p.priors.pi1)
    if mode == "pi2":
        return np.cumsum(p.priors.pi2)
    if isinstance(mode, int):
        if not 0 <= mode < p.n_params:
            raise SeqOptError(f"fixed parameter index {mode} out of range")
        return None
    raise SeqOptError(f"theta_mode must be 'pi1', 'pi2' or an index, got {mode!r}")


def simulate(
    p: Problem,
    rule: StoppingRule,
    cfg: SimConfig,
    decision: DecisionStrategy | None = None,
) -> SimResult:
    """Simulate a rule; see the module docstring for the randomness contract."""
    if cfg.replications < 1:
        raise SeqOptError("need at least one replication")
    if cfg.cap < 1 or cfg.cap > rule.horizon:
        raise SeqOptError(
            f"cap must be in 1..{rule.horizon} (the rule's covered stages), got {cfg.cap}"
        )
    layer = density_layer(p, rule.engine)  # held so the table below shares it
    space = layer.space
    if decision is None:
        decision = DecisionStrategy.bayes(HistoryTable(p, rule.engine), cfg.cap)
    theta_cdf = _theta_cdf(p, cfg.theta_mode)
    iid = p.obs.kind == "iid"
    obs_cdf = np.cumsum(p.obs.iid_pmf, axis=1) if iid else None
    # child[n][s][x]: the stage n+1 count state reached from state s by symbol x
    child = (
        [space.children(n).tolist() for n in range(cfg.cap)]
        if isinstance(space, CountStateSpace)
        else None
    )
    k = p.alphabet_size
    w = p.loss.w
    stop_probs = [rule.at(n) for n in range(1, cfg.cap + 1)]
    decisions = [decision.at(n) for n in range(1, cfg.cap + 1)]

    reps = cfg.replications
    taus = np.empty(reps, dtype=np.int64)
    thetas = np.empty(reps, dtype=np.int64)
    decs = np.empty(reps, dtype=np.int64)
    losses = np.empty(reps)
    cap_hits = np.zeros(reps, dtype=bool)
    block_len = 1 + 2 * cfg.cap
    seed = cfg.seed & _MASK64

    for r in range(reps):
        gen = np.random.Generator(np.random.Philox(key=[seed, r]))
        u = gen.random(block_len)
        theta = (
            int(np.searchsorted(theta_cdf, u[0], side="right"))
            if theta_cdf is not None
            else int(cfg.theta_mode)
        )
        theta = min(theta, p.n_params - 1)
        state = 0
        history: tuple[int, ...] = ()
        stopped = False
        for n in range(1, cfg.cap + 1):
            if iid:
                x = int(np.searchsorted(obs_cdf[theta], u[2 * n - 1], side="right"))
            else:
                row_cdf = np.cumsum(p.obs.conditional_pmf(theta, history))
                x = int(np.searchsorted(row_cdf, u[2 * n - 1], side="right"))
                history = history + (x,)
            x = min(x, k - 1)
            if child is not None:
                state = child[n - 1][state][x]
            else:
                state = state * k + x
            if u[2 * n] < stop_probs[n - 1][state]:
                taus[r] = n
                decs[r] = int(decisions[n - 1][state])
                stopped = True
                break
        if not stopped:
            taus[r] = cfg.cap
            decs[r] = int(decisions[cfg.cap - 1][state])
            cap_hits[r] = True
        thetas[r] = theta
        losses[r] = w[theta, decs[r]]

    sqrt_r = float(np.sqrt(reps))

    def mean_se(x: np.ndarray) -> tuple[float, float]:
        sd = float(np.std(x, ddof=1)) if reps > 1 else 0.0
        return float(np.mean(x)), sd / sqrt_r

    tau_mean, tau_se = mean_se(taus.astype(float))
    loss_mean, loss_se = mean_se(losses)
    dec_freq = np.empty(p.n_decisions)
    dec_se = np.empty(p.n_decisions)
    for dd in range(p.n_decisions):
        dec_freq[dd], dec_se[dd] = mean_se((decs == dd).astype(float))
    group_mean = group_se = None
    if p.constraints is not None:
        g_count = len(p.constraints.groups)
        group_mean = np.empty(g_count)
        group_se = np.empty(g_count)
        for gi, group in enumerate(p.constraints.groups):
            member = np.isin(thetas, list(group))
            group_mean[gi], group_se[gi] = mean_se(np.where(member, losses, 0.0))
    theta_freq = np.bincount(thetas, minlength=p.n_params).astype(float) / reps
    cap_fraction = float(np.mean(cap_hits))

    trace = None
    if cfg.keep_trace:
        trace = {
            "theta": thetas,
            "tau": taus,
            "decision": decs,
            "loss": losses,
            "cap_hit": cap_hits,
        }
    return SimResult(
        replications=reps,
        seed=cfg.seed,
        cap=cfg.cap,
        theta_mode=cfg.theta_mode,
        tau_mean=tau_mean,
        tau_se=tau_se,
        loss_mean=loss_mean,
        loss_se=loss_se,
        group_loss_mean=group_mean,
        group_loss_se=group_se,
        decision_freq=dec_freq,
        decision_freq_se=dec_se,
        cap_hit_fraction=cap_fraction,
        flagged=cap_fraction > cfg.cap_hit_threshold,
        theta_freq=theta_freq,
        trace=trace,
    )
