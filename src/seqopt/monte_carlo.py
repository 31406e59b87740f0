"""Monte Carlo cross-check of the exact evaluator.

Each replication draws a parameter from the configured prior (or holds it
fixed), then walks the observation process, stopping at stage n with the
rule's probability there: stop iff u < stop_prob with a fresh uniform per
stage, which has exactly the right probability for every value including 0
and 1. A randomized decision strategy draws the decision from the same stop
uniform, rescaled to [0, 1): u/p on a stop, (u-p)/(1-p) on the cap's forced
stop, so the stream is the same for every strategy. Draws from a row-wise
cdf (the prior, a pmf row, a kernel row) count the cdf entries at or below
u, clipped to the last index.

Randomness contract. Replication r reads its uniforms u[0], u[1], ... from
the Philox4x64-10 stream keyed by (seed mod 2^64, r) (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11):

- the key words are (seed, r), bumped by the Weyl constants between the ten
  rounds; the 256-bit counter is (b + 1, 0, 0, 0) for block b = 0, 1, ...
- block b yields four uint64 words, u[4b] .. u[4b+3], each converted to the
  double (word >> 11) * 2^-53;
- u[0] draws the parameter; u[2n-1] and u[2n] are stage n's observation and
  stop draws, so one block covers two stages.

This is the stream of
Generator(Philox(key=np.array([seed, r], dtype=np.uint64))).random(n).
`philox_uniforms` computes it in numpy for many replications at once.

The walk runs in chunks of consecutive replications. Each chunk is walked
stage by stage over its replications still running, and a Philox block is
generated only for those, when the walk first reads from it. Every
replication's draws depend only on (seed, r), and estimates are plain means
over the replication index, so results are bit-identical for a given (seed,
replications) whatever the chunking. SimResult.stats reports the walk time,
the chunk and Philox block counts and the replications still running at each
stage; it stays out of to_dict.
"""

from __future__ import annotations

import csv
import numbers
import time
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .errors import SeqOptError
from .model import Problem
from .backward_induction import _reprs
from .bayes_decision import HistoryTable
from .histories import state_space
from .stopping_policy import DecisionStrategy, StoppingRule, _check_coverage

_MASK64 = (1 << 64) - 1
_CHUNK = 1 << 13  # replications walked together; memory is O(_CHUNK * K)
_CAP_HIT_THRESHOLD = 0.01  # a run is flagged when more replications than this hit the cap

# Philox4x64-10: round multipliers, Weyl key increments, uint64 helpers.
_PHILOX_ROUNDS = 10
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32, _S32, _S11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _S32
_TO_DOUBLE = 2.0**-53


@dataclass(frozen=True)
class SimConfig:
    replications: int
    seed: int
    cap: int
    theta_mode: str | int = "pi2"  # "pi1", "pi2", or a fixed parameter index
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
    # Telemetry (walk_s, chunks, philox_blocks, running); not in to_dict.
    stats: dict = field(default_factory=dict)

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

    def trace_to_csv(self, fh: IO[str]) -> None:
        if self.trace is None:
            raise SeqOptError("simulation ran without keep_trace")
        writer = csv.writer(fh)
        writer.writerow(["replication", "theta", "tau", "decision", "loss", "cap_hit"])
        t = self.trace
        writer.writerows(
            zip(range(self.replications), t["theta"].tolist(), t["tau"].tolist(),
                t["decision"].tolist(), _reprs(t["loss"]), t["cap_hit"].astype(int).tolist())
        )


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_config(p: Problem, rule: StoppingRule, cfg: SimConfig) -> None:
    for name in ("replications", "cap", "seed"):
        if not _is_int(getattr(cfg, name)):
            raise SeqOptError(f"{name} must be an integer, got {getattr(cfg, name)!r}")
    if cfg.replications < 1:
        raise SeqOptError("need at least one replication")
    if cfg.cap < 1 or cfg.cap > rule.horizon:
        raise SeqOptError(
            f"cap must be in 1..{rule.horizon} (the rule's covered stages), got {cfg.cap}"
        )
    mode = cfg.theta_mode
    if _is_int(mode):
        if not 0 <= mode < p.n_params:
            raise SeqOptError(f"fixed parameter index {mode} out of range")
    elif not (isinstance(mode, str) and mode in ("pi1", "pi2")):
        raise SeqOptError(f"theta_mode must be 'pi1', 'pi2' or an index, got {mode!r}")


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products _PHILOX_M * x.

    The high word is assembled from 32-bit halves, so no product overflows.
    """
    x_lo, x_hi = x & _LO32, x >> _S32
    t = _PHILOX_M_HI * x_lo + ((_PHILOX_M_LO * x_lo) >> _S32)
    w = (t & _LO32) + _PHILOX_M_LO * x_hi
    return _PHILOX_M_HI * x_hi + (t >> _S32) + (w >> _S32), _PHILOX_M * x


def philox_uniforms(seed: int, reps: np.ndarray, block: int) -> np.ndarray:
    """Uniforms 4*block .. 4*block+3 of each replication's stream, shape (4, len(reps)).

    Column i equals those entries of
    Generator(Philox(key=np.array([seed, reps[i]], dtype=np.uint64))).random(n).
    The counter words are kept as two rows, the multiplied words (0, 2) and
    the xored words (1, 3), so each round is one batch of array operations.
    """
    key = np.empty((2, len(reps)), dtype=np.uint64)
    key[0], key[1] = seed, reps
    mul = np.zeros_like(key)
    mul[0] = block + 1
    xor = np.zeros_like(key)
    for i in range(_PHILOX_ROUNDS):
        if i:
            key += _PHILOX_W
        hi, lo = _mulhilo(mul)
        mul, xor = hi[::-1] ^ xor ^ key, lo[::-1]
    words = np.stack([mul[0], xor[0], mul[1], xor[1]])
    return (words >> _S11) * _TO_DOUBLE


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """searchsorted(cdf[i], u[i], side="right") for each row i of a row-wise cdf."""
    return (cdf <= u[:, None]).sum(axis=1)


def simulate(
    p: Problem,
    rule: StoppingRule,
    cfg: SimConfig,
    decision: DecisionStrategy | None = None,
) -> SimResult:
    """Simulate a rule; see the module docstring for the randomness contract."""
    _check_config(p, rule, cfg)
    reps, cap = int(cfg.replications), int(cfg.cap)
    mode = cfg.theta_mode if isinstance(cfg.theta_mode, str) else int(cfg.theta_mode)
    space = state_space(p, rule.engine)  # held so the table below shares it
    _check_coverage(space, rule, decision, cap, p.n_decisions)
    if decision is None:
        decision = DecisionStrategy.bayes(HistoryTable(p, rule.engine), cap)
    theta_cdf = None if isinstance(mode, int) else np.cumsum(getattr(p.priors, mode))
    iid = p.obs.kind == "iid"
    obs_cdf = np.cumsum(p.obs.iid_pmf, axis=1) if iid else None
    k = p.alphabet_size
    stop_probs = [rule.at(n) for n in range(1, cap + 1)]
    decisions = [decision.at(n) for n in range(1, cap + 1)]
    dec_cdf = None if decision.probs is None else [
        np.cumsum(q, axis=1) for q in decision.probs[:cap]]

    def decide(n: int, state: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Stage-n decisions; a randomized strategy draws at the stop draw u, rescaled."""
        if dec_cdf is None:
            return decisions[n - 1][state]
        p_stop = stop_probs[n - 1][state]
        below = u < p_stop  # u/p on a stop, (u-p)/(1-p) on the cap's forced stop
        v = np.where(below, u, u - p_stop) / np.where(below, p_stop, 1.0 - p_stop)
        return np.minimum(_draw(dec_cdf[n - 1][state], v), p.n_decisions - 1)

    taus = np.full(reps, cap, dtype=np.int64)
    thetas = np.empty(reps, dtype=np.int64)
    decs = np.empty(reps, dtype=np.int64)
    cap_hits = np.zeros(reps, dtype=bool)
    seed = int(cfg.seed) & _MASK64
    running = np.zeros(cap, dtype=np.int64)
    blocks = 0
    t0 = time.perf_counter()

    for start in range(0, reps, _CHUNK):
        # rep, theta, state and u (the Philox block the walk has reached) hold
        # the chunk's replications still running, aligned by position.
        rep = np.arange(start, min(start + _CHUNK, reps), dtype=np.int64)
        block, u = 0, philox_uniforms(seed, rep, 0)
        blocks += len(rep)
        if theta_cdf is None:
            theta = np.full(len(rep), mode, dtype=np.int64)
        else:
            theta = np.minimum(_draw(theta_cdf[None, :], u[0]), p.n_params - 1)
        thetas[rep] = theta
        state = np.zeros(len(rep), dtype=np.int64)
        for n in range(1, cap + 1):
            running[n - 1] += len(rep)
            draws = []
            for j in (2 * n - 1, 2 * n):  # the observation, then the stop draw
                if j // 4 != block:
                    block, u = j // 4, philox_uniforms(seed, rep, j // 4)
                    blocks += len(rep)
                draws.append(u[j % 4])
            if iid:
                row_cdf = obs_cdf[theta]
            else:
                row_cdf = np.cumsum(space.step_probs(n - 1)[state, theta], axis=1)
            x = np.minimum(_draw(row_cdf, draws[0]), k - 1)
            state = space.children(n - 1)[state, x]  # one stage's child table at a time
            stop = draws[1] < stop_probs[n - 1][state]
            if n == cap:
                decs[rep] = decide(n, state, draws[1])
                cap_hits[rep[~stop]] = True
            elif stop.any():
                done = rep[stop]
                taus[done] = n
                decs[done] = decide(n, state[stop], draws[1][stop])
                go = ~stop
                rep, state, theta, u = rep[go], state[go], theta[go], u[:, go]
                if not len(rep):
                    break
    walk_s = time.perf_counter() - t0
    losses = np.asarray(p.loss.w, dtype=float)[thetas, decs]

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
        seed=int(cfg.seed),
        cap=cap,
        theta_mode=mode,
        tau_mean=tau_mean,
        tau_se=tau_se,
        loss_mean=loss_mean,
        loss_se=loss_se,
        group_loss_mean=group_mean,
        group_loss_se=group_se,
        decision_freq=dec_freq,
        decision_freq_se=dec_se,
        cap_hit_fraction=cap_fraction,
        flagged=cap_fraction > _CAP_HIT_THRESHOLD,
        theta_freq=theta_freq,
        trace=trace,
        stats={
            "walk_s": walk_s,
            "chunks": -(-reps // _CHUNK),
            "philox_blocks": blocks,
            "running": running.tolist(),
        },
    )
