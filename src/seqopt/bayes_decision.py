"""Stage densities, optimal terminal decisions and the per-stage history table.

For a history h of length n, the quantity driving everything downstream is the
stage loss

    stop_loss(h) = min_d sum_theta w(theta, d) * f_theta(h) * pi1(theta),

the pi1-weighted loss density of the best terminal decision available now.

The work splits into two layers. A DensityLayer holds what does not depend on
the loss: the state space and, per stage, the per-parameter joint densities
f_theta and the pi2 mixture. A HistoryTable is a view of one loss matrix over
a layer: per stage it adds only the stage loss and the minimizing decision
(lowest index on ties).

Both walk the state axis innermost: f_theta is built parameter-major, one
scatter per (parameter, symbol) along a child-table row, and the view takes
its minimum and argmin one decision column at a time. The arrays stay C-ordered
(S, m) and (S, D), as BLAS may round a product of an F-ordered operand
differently, so every stored array is the state-by-state form's, bit for bit.

`density_layer` shares layers through a weak memo keyed by (engine,
observation model, pi1, pi2). Problems that differ only in their loss, such as
the weighted problems of a multiplier search, get the same layer while any
table, result or caller still holds it; once nothing does, it is freed. In
the same way each layer shares one view per loss matrix, keyed by its shape,
dtype and bytes: every live table of that loss, such as a solve's, the one
`evaluate` builds for its default decisions and the one an extracted rule
keeps, reads and extends the same stages, so each is built once. The
layer's and the tables' arrays are read-only, so no caller can change
another's.

The fixed-sample-size Bayes risk at n, non-increasing in n, sums the same
minimum over stage-n states with f_theta replaced by the forward mass, the
probability under theta of reaching the state: its density times its history
count, one factor for every theta, so the decision is unchanged and the sum
stays on probability scale at any depth.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .histories import StateSpace, push_forward, resolve_engine, state_space
from .errors import SeqOptError
from .model import Problem, joint_density, mixture_density
from .tolerances import TIE_ATOL


@dataclass(eq=False)
class StageDensities:
    """Loss-independent per-state quantities for one stage (read-only arrays)."""

    f_theta: np.ndarray  # (S, m) joint density per parameter
    f_pi2: np.ndarray  # (S,) mixture under pi2


@dataclass(eq=False)
class StageData(StageDensities):
    """One stage of a HistoryTable: the layer's densities plus the loss view (read-only)."""

    stop_loss: np.ndarray  # (S,) minimal pi1-weighted loss density
    decision: np.ndarray  # (S,) argmin decision index (lowest on ties)


class _LossView(dict):
    """Stage n -> StageData of one loss matrix over a layer; weakly referenceable."""


class DensityLayer:
    """Lazy per-stage cache of the state space's loss-independent densities."""

    def __init__(self, problem: Problem, space: StateSpace):
        self.problem = problem
        self.space = space
        self._stages: list[StageDensities] = []
        self._views: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def view(self, w: np.ndarray) -> _LossView:
        """The stage cache shared by every live table of loss matrix w."""
        key = _array_key(w)
        view = self._views.get(key)
        if view is None:
            view = self._views[key] = _LossView()
        return view

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
            table = self.space.children(n - 1).T
            step = self.space.step_probs(n - 1)
            f_theta = np.empty((self.space.n_states(n), m))
            for j in range(m):
                column = f_theta[:, j]
                for x in range(p.alphabet_size):
                    # Same value lands on a count state from every predecessor: the
                    # joint density of a history depends only on its state.
                    column[table[x]] = prev[:, j] * step[:, j, x]
        out = StageDensities(f_theta, f_theta @ p.priors.pi2)
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
    """Per-loss view of a shared density layer: stage losses and Bayes decisions.

    Tables of the same layer and loss matrix share their stages (see the
    module docstring).
    """

    def __init__(self, problem: Problem, engine: str = "auto"):
        self.problem = problem
        self.layer = density_layer(problem, engine)
        self._stages = self.layer.view(problem.loss.w)

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
        stop_loss, decision = _column_min(costs)
        # setflags costs about half of `.flags.writeable =`; every search probe builds stages.
        stop_loss.setflags(write=False)
        decision.setflags(write=False)
        return StageData(d.f_theta, d.f_pi2, stop_loss, decision)

    @property
    def l0(self) -> float:
        """Stage-0 loss: best decision with no data, min_d sum w(theta,d) pi1."""
        return float(self.stage(0).stop_loss[0])


def _column_min(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min(axis=1) and argmin(axis=1) of finite (S, D) costs, bit for bit, by columns.

    A later column replaces the running best only when strictly lower, so ties
    keep the lowest index.
    """
    stop_loss = costs[:, 0].copy()
    decision = np.zeros(len(costs), dtype=np.intp)
    for d in range(1, costs.shape[1]):
        column = costs[:, d]
        decision[column < stop_loss] = d
        np.minimum(stop_loss, column, out=stop_loss)
    return stop_loss, decision


def bayes_decide(p: Problem, history: Sequence[int]) -> tuple[int, float, tuple[int, ...]]:
    """Best terminal decision after a history.

    Returns (decision index, stage loss, tie set). The decision is the lowest
    index among minimizers; the tie set lists every decision within TIE_ATOL
    of the minimum.
    """
    f = np.array([joint_density(p, t, history) for t in range(p.n_params)])
    costs = (f * p.priors.pi1) @ p.loss.w
    best = float(costs.min())
    decision = int(costs.argmin())
    ties = tuple(int(d) for d in np.flatnonzero(costs <= best + TIE_ATOL))
    return decision, best, ties


def _bayes_loss(p: Problem, mass: np.ndarray) -> float:
    """Sum over states of min_d sum_theta w(theta, d) pi1(theta) mass[s, theta]."""
    return float(((mass * p.priors.pi1) @ p.loss.w).min(axis=1).sum())


def stagewise_bayes_risk(p: Problem, n: int, engine: str = "auto") -> float:
    """Bayes risk of the best fixed-sample-size procedure with n observations.

    Reads the forward mass of stage n (see the module docstring).
    """
    if n < 0:
        raise IndexError(f"no stage {n}")
    space = density_layer(p, engine).space
    mass = np.ones((1, p.n_params))
    for stage in range(n):
        mass = push_forward(space, stage, mass)
    return _bayes_loss(p, mass)


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
