"""Stage densities, optimal terminal decisions and the per-stage history table.

For a history h of length n, the quantity driving everything downstream is the
stage loss

    stop_loss(h) = min_d sum_theta w(theta, d) * f_theta(h) * pi1(theta),

the pi1-weighted loss density of the best terminal decision available now.

The work splits into two layers. A DensityLayer holds what does not depend on
the loss: the state space and, per stage, the per-parameter joint densities
f_theta, the pi1 and pi2 mixtures and the multiplicities. A HistoryTable is a
view of one loss matrix over a layer: per stage it adds only the stage loss
and the minimizing decision (lowest index on ties).

`density_layer` shares layers through a weak memo keyed by (engine,
observation model, pi1, pi2). Problems that differ only in their loss, such as
the weighted problems of a multiplier search, get the same layer while any
table, result or caller still holds it; once nothing does, it is freed. The
layer's and the tables' arrays are read-only, so no caller can change
another's.

Summing stop_loss over all length-n histories gives the fixed-sample-size
Bayes risk at n, a non-increasing sequence (more data never hurts the optimal
terminal decision).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .histories import StateSpace, resolve_engine, state_space
from .errors import SeqOptError
from .model import Problem, joint_density, mixture_density
from .tolerances import TIE_ATOL


@dataclass(eq=False)
class StageDensities:
    """Loss-independent per-state quantities for one stage (read-only arrays)."""

    f_theta: np.ndarray  # (S, m) joint density per parameter
    f_pi1: np.ndarray  # (S,) mixture under pi1
    f_pi2: np.ndarray  # (S,) mixture under pi2
    mult: np.ndarray  # (S,) histories collapsed into each state


@dataclass(eq=False)
class StageData(StageDensities):
    """One stage of a HistoryTable: the layer's densities plus the loss view (read-only)."""

    stop_loss: np.ndarray  # (S,) minimal pi1-weighted loss density
    decision: np.ndarray  # (S,) argmin decision index (lowest on ties)


class DensityLayer:
    """Lazy per-stage cache of the state space's loss-independent densities."""

    def __init__(self, problem: Problem, space: StateSpace):
        self.problem = problem
        self.space = space
        self._stages: list[StageDensities] = []

    def stage(self, n: int) -> StageDensities:
        if n < 0:
            raise IndexError(f"no stage {n}")
        for stage in range(len(self._stages), n + 1):
            self._stages.append(self._build_stage(stage))
        return self._stages[n]

    def _build_stage(self, n: int) -> StageDensities:
        p = self.problem
        m = p.n_params
        if n == 0:
            f_theta = np.ones((1, m))
        else:
            prev = self._stages[n - 1].f_theta
            children = self.space.children(n - 1)
            step = self.space.step_probs(n - 1)
            f_theta = np.empty((self.space.n_states(n), m))
            for x in range(p.alphabet_size):
                # Same value lands on a child from every predecessor: the joint
                # density of a history depends only on its state.
                f_theta[children[:, x], :] = prev * step[:, :, x]
        out = StageDensities(
            f_theta, f_theta @ p.priors.pi1, f_theta @ p.priors.pi2, self.space.mult(n)
        )
        for arr in vars(out).values():
            arr.flags.writeable = False
        return out


_LAYERS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _array_key(a: np.ndarray) -> tuple:
    return (a.shape, a.dtype.str, a.tobytes())


def density_layer(problem: Problem, engine: str = "auto") -> DensityLayer:
    """The shared density layer of a problem's observation model and priors.

    iid models are keyed by their pmf's contents, kernels by the identity of
    the ObservationModel object (the layer holds it, so the identity cannot be
    reused while the entry lives).
    """
    engine = resolve_engine(problem, engine)
    obs = problem.obs
    model = _array_key(obs.iid_pmf) if obs.kind == "iid" else (id(obs), problem.n_params)
    key = (engine, model, _array_key(problem.priors.pi1), _array_key(problem.priors.pi2))
    layer = _LAYERS.get(key)
    if layer is None:
        layer = DensityLayer(problem, state_space(problem, engine))
        _LAYERS[key] = layer
    return layer


class HistoryTable:
    """Per-loss view of a shared density layer: stage losses and Bayes decisions."""

    def __init__(self, problem: Problem, engine: str = "auto"):
        self.problem = problem
        self.layer = density_layer(problem, engine)
        self._stages: dict[int, StageData] = {}

    @property
    def space(self) -> StateSpace:
        return self.layer.space

    @property
    def engine(self) -> str:
        return self.space.engine

    def stage(self, n: int) -> StageData:
        st = self._stages.get(n)
        if st is None:
            st = self._stages[n] = self._build_stage(n)
        return st

    def _build_stage(self, n: int) -> StageData:
        p = self.problem
        d = self.layer.stage(n)
        costs = (d.f_theta * p.priors.pi1[None, :]) @ p.loss.w
        stop_loss, decision = costs.min(axis=1), costs.argmin(axis=1)
        # setflags costs about half of `.flags.writeable =`; every search probe builds stages.
        stop_loss.setflags(write=False)
        decision.setflags(write=False)
        return StageData(d.f_theta, d.f_pi1, d.f_pi2, d.mult, stop_loss, decision)

    @property
    def l0(self) -> float:
        """Stage-0 loss: best decision with no data, min_d sum w(theta,d) pi1."""
        return float(self.stage(0).stop_loss[0])


def _weighted_loss(p: Problem, lam: Sequence[float] | None) -> np.ndarray:
    """Loss matrix scaled per constraint group; zero outside all groups."""
    if lam is None:
        return p.loss.w
    if p.constraints is None:
        raise SeqOptError("multiplier weights need a problem with constraint groups")
    w = np.zeros_like(p.loss.w)
    for gi, group in enumerate(p.constraints.groups):
        for t in group:
            w[t, :] = lam[gi] * p.loss.w[t, :]
    return w


def bayes_decide(
    p: Problem, history: Sequence[int], lam: Sequence[float] | None = None
) -> tuple[int, float, tuple[int, ...]]:
    """Best terminal decision after a history.

    Returns (decision index, stage loss, tie set). The decision is the lowest
    index among minimizers; the tie set lists every decision within TIE_ATOL
    of the minimum. With `lam`, the loss is first scaled per constraint group
    (zero outside all groups).
    """
    w = _weighted_loss(p, lam)
    f = np.array([joint_density(p, t, history) for t in range(p.n_params)])
    costs = (f * p.priors.pi1) @ w
    best = float(costs.min())
    decision = int(costs.argmin())
    ties = tuple(int(d) for d in np.flatnonzero(costs <= best + TIE_ATOL))
    return decision, best, ties


def stagewise_bayes_risk(
    p: Problem, n: int, engine: str = "auto", table: HistoryTable | None = None
) -> float:
    """Bayes risk of the best fixed-sample-size procedure with n observations."""
    if table is None:
        table = HistoryTable(p, engine)
    st = table.stage(n)
    return float(np.dot(st.mult, st.stop_loss))


def posterior(p: Problem, history: Sequence[int]) -> np.ndarray:
    """pi1-posterior over parameters given a history."""
    f = np.array([joint_density(p, t, history) for t in range(p.n_params)])
    weighted = f * p.priors.pi1
    total = weighted.sum()
    if total <= 0:
        raise SeqOptError(f"history {tuple(history)} has zero probability under pi1")
    return weighted / total


def posterior_risk(p: Problem, history: Sequence[int]) -> float:
    """Stage loss normalized by the pi2 mixture density.

    In the Bayes setting (pi1 == pi2) this is the posterior expected loss of
    the best terminal decision given the history.
    """
    f2 = mixture_density(p, history, prior="pi2")
    if f2 <= 0:
        raise SeqOptError(f"history {tuple(history)} has zero probability under pi2")
    _, stop_loss, _ = bayes_decide(p, history)
    return stop_loss / f2
