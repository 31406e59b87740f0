"""Stage densities, optimal terminal decisions and the per-stage history table.

For a history h of length n, the quantity driving everything downstream is the
stage loss

    stop_loss(h) = min_d sum_theta w(theta, d) * f_theta(h) * pi1(theta),

the pi1-weighted loss density of the best terminal decision available now.

The work splits into two layers. The state space (see histories) owns what
depends on the observation model alone: the states and, per stage, the
per-parameter joint densities f_theta; it is shared per model. A
HistoryTable is a view of pi1 and the loss over a space: per stage it adds
the stage loss and the minimizing decision (lowest index on ties); pi2 and
c price observations, in the solve alone (see backward_induction).

Both walk the state axis innermost: f_theta is built one (S, m) product per
symbol, written along that symbol's child row, and the view takes its
minimum and argmin one decision column at a time. The arrays stay C-ordered
(S, m) and (S, D), as BLAS may round a product of an F-ordered operand
differently, so every stored array is the state-by-state form's, bit for bit.

Views are shared through a weak memo keyed by (space, pi1, loss matrix),
each array by its shape, dtype and bytes: every live table of those, such as
a solve's, the one `evaluate` builds for its default decisions, the one an
extracted rule keeps and any of a problem differing only in pi2 or c, reads
and extends the same stages, so each is built once; once no table holds a
view, it is freed. The space's and the views' arrays are read-only, so no
caller can change another's.

The fixed-sample-size Bayes risk at n, non-increasing in n, sums the same
minimum over stage-n states with f_theta replaced by the forward mass, the
probability under theta of reaching the state: its density times its history
count, one factor for every theta, so the decision is unchanged and the sum
stays on probability scale at any depth.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .histories import _array_key, check_state_budget, push_forward, state_space
from .model import Problem


@dataclass(eq=False)
class StageData:
    """One stage of a HistoryTable's loss view (read-only)."""

    stop_loss: np.ndarray  # (S,) minimal pi1-weighted loss density
    decision: np.ndarray  # (S,) argmin decision index (lowest on ties), decision_dtype


class _LossView(dict):
    """Stage n -> StageData of one (pi1, loss) over a space; weakly referenceable."""


_VIEWS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class HistoryTable:
    """One problem's pi1 and loss over a shared state space: stage losses and decisions.

    Tables of the same space, pi1 and loss matrix share their stages (see the
    module docstring).
    """

    def __init__(self, problem: Problem, engine: str = "auto"):
        self.problem = problem
        self.space = state_space(problem, engine)
        key = (self.space, _array_key(problem.priors.pi1), _array_key(problem.loss.w))
        self._stages = _VIEWS.get(key)
        if self._stages is None:
            self._stages = _VIEWS[key] = _LossView()

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
        costs = (self.space.densities(n) * p.priors.pi1[None, :]) @ p.loss.w
        stop_loss, decision = _column_min(costs)
        # setflags costs about half of `.flags.writeable =`; every search probe builds stages.
        for arr in (stop_loss, decision):
            arr.setflags(write=False)
        return StageData(stop_loss, decision)

    @property
    def l0(self) -> float:
        """Stage-0 loss: best decision with no data, min_d sum w(theta,d) pi1."""
        return float(self.stage(0).stop_loss[0])


def decision_dtype(d_count: int) -> np.dtype:
    """The smallest unsigned type holding every decision index: uint8 up to 256 decisions."""
    return np.min_scalar_type(d_count - 1)


def _column_min(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min(axis=1) and argmin(axis=1) of finite (S, D) costs, bit for bit, by columns.

    A later column replaces the running best only when strictly lower, so ties
    keep the lowest index.
    """
    stop_loss = costs[:, 0].copy()
    decision = np.zeros(len(costs), dtype=decision_dtype(costs.shape[1]))
    for d in range(1, costs.shape[1]):
        column = costs[:, d]
        decision[column < stop_loss] = d
        np.minimum(stop_loss, column, out=stop_loss)
    return stop_loss, decision


def _bayes_loss(p: Problem, mass: np.ndarray) -> float:
    """Sum over states of min_d sum_theta w(theta, d) pi1(theta) mass[s, theta]."""
    return float(((mass * p.priors.pi1) @ p.loss.w).min(axis=1).sum())


def stagewise_bayes_risk(p: Problem, n: int, engine: str = "auto") -> float:
    """Bayes risk of the best fixed-sample-size procedure with n observations.

    Reads the forward mass of stage n (see the module docstring).
    """
    if n < 0:
        raise IndexError(f"no stage {n}")
    space = state_space(p, engine)
    check_state_budget(space, n)
    mass = np.ones((1, p.n_params))
    for stage in range(n):
        mass = push_forward(space, stage, mass)
    return _bayes_loss(p, mass)
