"""Backward induction over observation histories.

For a horizon N the solver computes, per history h of length n, two density-
scale quantities:

    value[N][h]    = stop_loss(h)                        (best achievable at n = N)
    cont[n][h]     = c * f_pi2(h) + sum_x value[n+1][h + (x,)]
    value[n][h]    = min(stop_loss(h), cont[n][h])

Only the solve prices observations, with f_pi2 = f_theta @ pi2 from the
space's densities per stage. It stores cont alone; value is derived on read.

The stage-0 continuation value cont[0] (a scalar: f_pi2 of the empty history
is 1) is the minimal combined risk, observation cost plus terminal loss, over
every procedure that stops by N. Comparing it with the stage-0 loss says
whether observing at all is worth the cost.

Horizon doubling ("limit mode") tracks cont[0] as N doubles and stops when the
decrease falls below a tolerance. cont[0] is non-increasing in N, but a small
decrease certifies nothing: two doublings can agree on a plateau far above the
unbounded-horizon optimum, so the stop is a heuristic (see solve_limit).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import IO

import numpy as np

from .errors import SeqOptError

from .bayes_decision import HistoryTable
from .histories import DEFAULT_STATE_BUDGET, check_state_budget
from .model import Problem

VALUES_HEADER = "stage,state,stop_loss,continue_value,value\r\n"  # CRLF, as csv.writer ends rows


@dataclass(eq=False)
class ValueTables:
    """Solved continuation arrays for one horizon, and the values they give.

    cont[n] is a per-state array aligned with the table's state enumeration,
    for stages 0..N-1; value (stages 0..N) is derived from it. The
    `q0_trace` / `converged` fields are filled by limit mode.

    `stats` describes the solve, not its result: "solve_s", "stages" (0..N),
    "states" (over them) and "peak_states" (the largest stage's). It stays
    out of to_csv, so written outputs are reproducible.
    """

    table: HistoryTable
    horizon: int
    cont: list[np.ndarray]
    q0_trace: list[tuple[int, float]] = field(default_factory=list)
    converged: bool | None = None
    tol: float | None = None
    stats: dict = field(default_factory=dict, repr=False)

    @property
    def engine(self) -> str:
        return self.table.engine

    @property
    def q0(self) -> float:
        """Minimal combined risk over procedures truncated at the horizon."""
        return float(self.cont[0][0])

    @property
    def v0(self) -> float:
        """Minimum of q0 and the no-observation stage loss."""
        return float(np.minimum(self.l0, self.q0))

    @property
    def l0(self) -> float:
        return self.table.l0

    @cached_property
    def value(self) -> list[np.ndarray]:
        """Per stage 0..N: min(stop_loss, cont) (one side's bits), stop_loss at N."""
        stop = [self.table.stage(n).stop_loss for n in range(self.horizon + 1)]
        return [np.minimum(sl, c) for sl, c in zip(stop, self.cont)] + [stop[-1]]

    def to_csv(self, fh: IO[str]) -> None:
        """One row per state; floats as repr, the last stage's continue_value empty.

        Each stage is one block of text, byte for byte what csv.writer writes.
        """
        fh.write(VALUES_HEADER)
        for n in range(self.horizon + 1):
            self._write_stage(fh, n, self.table.space.labels(n))

    def _write_stage(self, fh: IO[str], n: int, labels: list[str]) -> None:
        """to_csv's rows of stage n, given the stage's labels(n)."""
        stop = self.table.stage(n).stop_loss
        stop_s = list(_reprs(stop))
        cont_s, value_s = repeat(""), stop_s
        if n < self.horizon:
            cont_s = list(_reprs(self.cont[n]))
            stops = (self.value[n].view(np.uint64) == stop.view(np.uint64)).tolist()
            value_s = [s if k else c for s, c, k in zip(stop_s, cont_s, stops)]
        _write_rows(fh, f"{n},", labels, stop_s, cont_s, value_s)


def _reprs(arr: np.ndarray):
    """repr(float(v)) for each entry of arr, converted to Python floats in one tolist()."""
    return map(repr, np.asarray(arr, dtype=float).tolist())


def _write_rows(fh: IO[str], prefix: str, labels: list[str], *columns) -> None:
    """One stage's rows in one write, as csv.writer writes them: prefix, label, columns.

    prefix is the constant leading fields with their comma. Labels holding a
    comma are quoted; no field holds a quote or a line break. Every label of a
    stage holds a comma or none does (a tree history's symbols are
    comma-separated, count labels hold none), so the first label decides.
    """
    if labels and "," in labels[0]:
        labels = list(map('"{}"'.format, labels))
    fh.write(prefix + ("\r\n" + prefix).join(map(",".join, zip(labels, *columns))) + "\r\n")


def solve_truncated(
    p: Problem,
    horizon: int,
    engine: str = "auto",
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> ValueTables:
    """Solve the horizon-N problem exactly.

    The returned tables are exact for the class of procedures that stop by
    `horizon`; any stopping rule whose stop set matches the value comparison
    (see stopping_policy.extract_rule) attains cont[0]. Their HistoryTable
    shares its stages with every live table of the problem (see bayes_decision).
    """
    if horizon < 1:
        raise SeqOptError("horizon must be >= 1")
    start = time.perf_counter()
    table = HistoryTable(p, engine)
    space = table.space
    check_state_budget(space, horizon, state_budget)
    cont: list[np.ndarray | None] = [None] * horizon
    value = table.stage(horizon).stop_loss
    for n in range(horizon - 1, -1, -1):
        kids = value[space.children(n).T]  # (K, S): row x, the children by x
        # numpy adds 8 or more terms along a contiguous axis pairwise and fewer
        # (or a leading axis) one by one: either way the (S, K) row sums' bits.
        sums = kids.sum(axis=0) if len(kids) < 8 else np.ascontiguousarray(kids.T).sum(axis=1)
        cont[n] = p.cost.c * (space.densities(n) @ p.priors.pi2) + sums
        value = np.minimum(table.stage(n).stop_loss, cont[n])
    sizes = [space.n_states(n) for n in range(horizon + 1)]
    stats = {"solve_s": time.perf_counter() - start, "stages": horizon + 1,
             "states": sum(sizes), "peak_states": max(sizes)}
    return ValueTables(table, horizon, cont, stats=stats)


def solve_limit(
    p: Problem,
    tol: float = 1e-10,
    n_cap: int = 256,
    engine: str = "auto",
) -> ValueTables:
    """Approach the unbounded-horizon optimum by horizon doubling.

    Solves at horizons 1, 2, 4, ... and stops when consecutive
    cont[0] values differ by less than `tol`, or when doubling again would
    pass `n_cap`. A run that exhausts the cap without meeting the tolerance
    returns the last tables with converged=False; that is a flagged result,
    not a failure, since cont[0] decreases monotonically and the trace shows
    how far it got. Each doubling reuses the stages of the one before.

    converged=True means only that two successive doublings agreed within
    tol. It bounds no error: a plateau passes too. configs/symmetric.json
    reports it at N=2 with q0 0.31, while N=256 gives q0 0.126108.
    """
    tables = solve_truncated(p, 1, engine)
    trace = [(1, tables.q0)]
    converged = False
    while not converged and 2 * tables.horizon <= n_cap:
        # `tables` is rebound only after the solve, so it keeps the stages alive for it
        tables = solve_truncated(p, 2 * tables.horizon, engine)
        trace.append((tables.horizon, tables.q0))
        converged = abs(trace[-2][1] - trace[-1][1]) < tol
    tables.q0_trace = trace
    tables.converged = converged
    tables.tol = tol
    return tables


def should_take_observations(tables: ValueTables) -> tuple[bool, float]:
    """Whether observing beats deciding immediately, with the margin.

    Returns (observe, margin) where margin = stage0 loss - cont[0]. A
    nonnegative margin means some observation plan is worth its cost.
    """
    margin = tables.l0 - tables.q0
    return margin >= 0, float(margin)
