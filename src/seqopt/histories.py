"""State-space engines enumerating observation histories stage by stage.

Two engines share one interface:

- "tree": states at stage n are the K^n raw histories in lexicographic order.
  Valid for any model; exponential in n.
- "counts": states are symbol-count vectors, iid models only. Exchangeability
  makes every per-history quantity a function of the counts, so the stage size
  is C(n+K-1, K-1), polynomial in n. States are in lexicographic order, and
  each stage is built from the one before it in two blocks: the states whose
  first count is 0 (the (K-1)-part compositions of n, built the same way and
  kept per space), then the previous stage's states with the first count
  raised by one. Adding a symbol keeps that order, so a symbol's children are
  the next stage's states that count it, ascending.

Per stage n every engine provides the state count `n_states(n)` (a closed
form, so sizing a stage builds nothing), the child table `children(n)`
((S_n, K) indices at stage n+1, the transposed view of a contiguous (K, S_n)
array: row x of `children(n).T` lists every state's child by symbol x; on
the tree child s*K + x), the conditional step probabilities `step_probs(n)`
(step[s, theta, x], (S_n, m, K) for kernels; iid rows do not depend on the
state and come as one (1, m, K) block), each state's symbol counts
`states(n)` and printable `labels(n)`; a rule file's reader inverts labels
by looking them up in `labels(n)`, and the joint densities `densities(n)`
((S_n, m) f_theta, read-only, built once, one (S_n, m) product per symbol).

The stage kernels (the densities, the backward pass's child sums below 8
symbols and `push_forward`) read `child_rows(n)` instead: per symbol x,
every state's child by x, as a `slice` where those children form a range
and as row x of the child table otherwise, so they walk the state axis
innermost. Every tree row is the slice x::K; count row 0 is the block after
the new first-count-0 states; on two symbols count row 1 keeps each index.
So a binary count space builds its child tables and state arrays only when
`children`, `states` or `labels` asks for them. No other module asks which
engine it holds.

States are stored as int32: no count exceeds the horizon, and the state
budget keeps the horizon far below 2^31. Child tables stay intp, numpy's
index type: numpy casts every index array to intp for each gather and
bincount, so an int32 table would be cast again at every use (a warm K=2,
N=512 solve, extract and evaluate ran 12% slower with one).

Nothing of a space depends on the priors or the loss, so `state_space`
shares one space per engine and observation model through a weak memo: the
weighted problems of a multiplier search, say, reuse its built stages while
any table, result or caller holds it; once nothing does, it is freed.

`push_forward` is the one forward propagation: it carries stage-n mass,
mixture flows or reachability to stage n+1, whatever the dtype. A child has
at most one parent per symbol (a tree child the single parent s, a count
state c the parent c - e_x), so each child receives the sum, in symbol order
from 0, of what its parents send: the float sums of a scatter-add per
symbol, bit for bit, by either of two kernels. Where every child row is a
slice (the tree; counts on at most two symbols) that scatter-add is the
kernel, on all columns at once. Otherwise it is one weighted `np.bincount`
over the symbol-major flattened child table per trailing column; bincount
adds in input order, symbol by symbol and within a symbol state by state.
"""

from __future__ import annotations

import weakref
from math import comb

import numpy as np

from .errors import BudgetExceededError, SeqOptError
from .model import Problem

DEFAULT_STATE_BUDGET = 4_000_000


class _Densities:
    """Per-stage joint densities f_theta, written once for both engines."""

    def densities(self, n: int) -> np.ndarray:
        """(S_n, m) f_theta of stage n, read-only; stages below n are built first."""
        if n < 0:
            raise IndexError(f"no stage {n}")
        for stage in range(len(self._densities), n + 1):
            self._densities.append(self._density_stage(stage))
        return self._densities[n]

    def _density_stage(self, n: int) -> np.ndarray:
        m = self.problem.n_params
        if n == 0:
            f_theta = np.ones((1, m))
        else:
            prev = self._densities[n - 1]
            step = self.step_probs(n - 1)
            f_theta = np.empty((self.n_states(n), m))
            for x, row in enumerate(self.child_rows(n - 1)):
                # Same value lands on a count state from every predecessor: the
                # joint density of a history depends only on its state.
                f_theta[row] = prev * step[:, :, x]
        f_theta.setflags(write=False)
        return f_theta


class TreeStateSpace(_Densities):
    engine = "tree"

    def __init__(self, problem: Problem):
        self.problem = problem
        self.k = problem.alphabet_size
        self._step_cache: dict[int, np.ndarray] = {}
        self._densities: list[np.ndarray] = []

    def n_states(self, n: int) -> int:
        return self.k**n

    def children(self, n: int) -> np.ndarray:
        return np.add.outer(np.arange(self.k), self.k * np.arange(self.n_states(n))).T

    def child_rows(self, n: int) -> list[slice]:
        """Per symbol x, the stage-(n+1) children of every state: s*K + x, the slice x::K."""
        return [slice(x, None, self.k) for x in range(self.k)]

    def states(self, n: int) -> np.ndarray:
        """Symbol counts of the stage-n histories, shape (S_n, K): base-K digits tallied."""
        s = self.n_states(n)
        rows, idx = np.arange(s), np.arange(s)
        counts = np.zeros((s, self.k), dtype=np.int32)
        for _ in range(n):
            counts[rows, idx % self.k] += 1
            idx //= self.k
        return counts

    def step_probs(self, n: int) -> np.ndarray:
        """Conditional pmf of the next symbol: iid rows (1, m, K), else (S_n, m, K) kernel rows."""
        p = self.problem
        if p.obs.kind == "iid":
            return p.obs.iid_pmf[None]
        if n not in self._step_cache:
            self._step_cache[n] = p.obs.kernel_rows(p.n_params, n)
        return self._step_cache[n]

    def labels(self, n: int) -> list[str]:
        """Each stage-n history's symbols, comma-separated, in index order."""
        symbols = [str(x) for x in range(self.k)]
        out = [""]
        for depth in range(n):
            sep = "," if depth else ""
            out = [f"{prefix}{sep}{x}" for prefix in out for x in symbols]
        return out


class CountStateSpace(_Densities):
    engine = "counts"

    def __init__(self, problem: Problem):
        if problem.obs.kind != "iid":
            raise SeqOptError("count-vector engine requires an iid model")
        self.problem = problem
        self.k = problem.alphabet_size
        # Per built stage n = 0..top: the (S_n, K) states in lexicographic
        # order; per stage asked for, the symbol-major (K, S_n) child table.
        self._states: dict[int, np.ndarray] = {0: np.zeros((1, self.k), dtype=np.int32)}
        self._children: dict[int, np.ndarray] = {}
        self._densities: list[np.ndarray] = []
        self._heads: dict[int, list[np.ndarray]] = {}  # (K-1)-part stages, see _compositions

    def _build_to(self, n: int) -> None:
        """Build the states of stages top+1..n, each from its predecessor."""
        top = len(self._states) - 1
        states = self._states[top]
        for stage in range(top, n):
            states = _next_stage(states, _compositions(self.k - 1, stage + 1, self._heads))
            self._states[stage + 1] = states

    def n_states(self, n: int) -> int:
        """C(n+K-1, K-1), in closed form: sizing a stage does not build it."""
        return comb(n + self.k - 1, self.k - 1)

    def states(self, n: int) -> np.ndarray:
        """Count vectors of stage n in lexicographic order, shape (S_n, K)."""
        self._build_to(n)
        return self._states[n]

    def index_of(self, n: int, counts) -> int:
        c = np.asarray(counts)
        if c.shape != (self.k,) or c.dtype.kind not in "iu" or (c < 0).any() or c.sum() != n:
            raise SeqOptError(
                f"{counts!r} is not a count vector of {n} observations over {self.k} symbols"
            )
        return int(np.flatnonzero((self.states(n) == c).all(axis=1))[0])

    def children(self, n: int) -> np.ndarray:
        """The child table of stage n, built once from the states of stage n+1.

        Adding e_x keeps lexicographic order, and its image of stage n is the
        set of stage-(n+1) states with c_x >= 1, so row x of the table lists
        those states' indices in ascending order.
        """
        table = self._children.get(n)
        if table is None:
            states = self.states(n + 1)
            table = np.empty((self.k, self.n_states(n)), dtype=np.intp)
            for x in range(self.k):
                table[x] = np.flatnonzero(states[:, x])
            self._children[n] = table
        return table.T

    def child_rows(self, n: int) -> list[slice | np.ndarray]:
        """Per symbol x, the stage-(n+1) children of every state: a slice where they
        are a range, else row x of the child table.

        Raising the first count maps stage n onto the block after the new
        first-count-0 states, in order; on two symbols the second keeps the
        first count, and so the index. Only K > 2 builds the table.
        """
        size, top = self.n_states(n), self.n_states(n + 1)
        rows = [slice(top - size, top)]
        if self.k == 2:
            rows.append(slice(0, size))
        elif self.k > 2:
            rows += list(self.children(n).T[1:])
        return rows

    def step_probs(self, n: int) -> np.ndarray:
        return self.problem.obs.iid_pmf[None]

    def labels(self, n: int) -> list[str]:
        """Each stage-n state's counts joined by "|", in index order.

        No count exceeds n, so each count's text is looked up in one list of
        str(0..n), column by column, and the columns are joined row by row.
        """
        texts = [str(c) for c in range(n + 1)]
        columns = [map(texts.__getitem__, col) for col in self.states(n).T.tolist()]
        return list(map("|".join, zip(*columns)))


def _next_stage(prev: np.ndarray, head: np.ndarray) -> np.ndarray:
    """The compositions of r in lexicographic order, from those of r-1 (prev).

    First come those with first part 0: the compositions of r into one part
    fewer (head) behind a 0. Then come prev's, first part raised by one.
    """
    out = np.zeros((len(head) + len(prev), prev.shape[1]), dtype=np.int32)
    out[: len(head), 1:] = head
    out[len(head) :] = prev
    out[len(head) :, 0] += 1
    return out


def _compositions(parts: int, r: int, memo: dict[int, list[np.ndarray]]) -> np.ndarray:
    """The compositions of r into `parts` parts in lexicographic order, one per row.

    One part is the base case; no parts leaves only the empty composition of
    0. memo[parts] keeps the stages 0, 1, ... built so far.
    """
    if parts == 0:
        return np.zeros((int(r == 0), 0), dtype=np.int32)
    if parts == 1:
        return np.array([[r]], dtype=np.int32)
    stages = memo.setdefault(parts, [np.zeros((1, parts), dtype=np.int32)])
    while len(stages) <= r:
        stages.append(_next_stage(stages[-1], _compositions(parts - 1, len(stages), memo)))
    return stages[r]


StateSpace = TreeStateSpace | CountStateSpace


def resolve_engine(problem: Problem, engine: str = "auto") -> str:
    """The engine "auto" stands for: counts for iid models, tree otherwise."""
    if engine == "auto":
        return "counts" if problem.obs.kind == "iid" else "tree"
    return engine


_SPACES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _array_key(a: np.ndarray) -> tuple:
    return (a.shape, a.dtype.str, a.tobytes())


def state_space(problem: Problem, engine: str = "auto") -> StateSpace:
    """The shared space of a problem's observation model under an engine.

    "auto" is counts for iid models, tree otherwise. iid models are keyed by
    their pmf's contents, kernels by the identity of the ObservationModel
    object (the space holds it, so the identity cannot be reused while the
    entry lives). Priors and loss are not in the key.
    """
    engine = resolve_engine(problem, engine)
    obs = problem.obs
    model = _array_key(obs.iid_pmf) if obs.kind == "iid" else (id(obs), problem.n_params)
    space = _SPACES.get((engine, model))
    if space is None:
        engines = {"counts": CountStateSpace, "tree": TreeStateSpace}
        if engine not in engines:
            raise SeqOptError(f"unknown engine {engine!r}")
        space = _SPACES[engine, model] = engines[engine](problem)
    return space


def push_forward(
    space: StateSpace, n: int, values: np.ndarray, weighted: bool = True
) -> np.ndarray:
    """Carry stage-n values to stage n+1: each child sums what its parents send.

    values is (S_n,) or (S_n, C), float64 or bool. With `weighted` it is
    (S_n, m) per-parameter mass, and the edge of symbol x multiplies column j
    by P_j(x | state) from step_probs. Without, values travel unchanged; a
    boolean column comes back True where some parent sent True, as its sum
    is then True (numpy adds booleans as a logical or) or its float sum
    positive, so reachability never underflows.

    Where every child row of the stage is a slice, out starts at 0 and, for
    x = 0..K-1, out[row_x] += values * step[..., x]: the per-symbol scatter
    itself. Otherwise one np.bincount per column adds the same terms in the
    same order, symbol-major. Either way the sums are the scatter's, bit for
    bit (see the module docstring).
    """
    size = space.n_states(n + 1)
    rows = space.child_rows(n)
    step = space.step_probs(n) if weighted else None
    if all(isinstance(row, slice) for row in rows):
        out = np.zeros((size,) + values.shape[1:], dtype=values.dtype)
        for x, row in enumerate(rows):
            out[row] += values * step[:, :, x] if weighted else values
        return out
    flat = space.children(n).T.ravel()  # the contiguous (K, S_n) table, symbol by symbol
    cols = values.reshape(len(values), -1)
    out = np.empty((size, cols.shape[1]), dtype=values.dtype)
    for j in range(cols.shape[1]):
        sent = step[:, j].T * cols[:, j] if weighted else np.tile(cols[:, j], space.k)
        out[:, j] = np.bincount(flat, weights=sent.ravel(), minlength=size)
    return out.reshape((size,) + values.shape[1:])


def check_state_budget(space: StateSpace, horizon: int, budget: int = DEFAULT_STATE_BUDGET) -> None:
    """Raise if stages 0..horizon hold more than `budget` states together.

    Stage sizes are closed forms, and the sum stops at the first stage past
    the budget, so an oversized horizon is never summed to its end.
    """
    total = 0
    for n in range(horizon + 1):
        total += space.n_states(n)
        if total > budget:
            raise BudgetExceededError(
                f"{space.engine} engine needs more than {budget} states for horizon {horizon}"
            )
