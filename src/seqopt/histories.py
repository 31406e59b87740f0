"""State-space engines enumerating observation histories stage by stage.

Two engines share one interface:

- "tree": states at stage n are the K^n raw histories in lexicographic order.
  Valid for any model; exponential in n.
- "counts": states are symbol-count vectors, iid models only. Exchangeability
  makes every per-history quantity a function of the counts, so the stage size
  is C(n+K-1, K-1), polynomial in n. States are in lexicographic order, and a
  state's index is its rank, a closed-form sum of binomial coefficients, so
  each stage is built with array arithmetic from the stage before it.

Per stage n the interface provides the state count, the child index of each
(state, symbol) pair at stage n+1, the conditional step probabilities
step[s, theta, x], the number of histories collapsed into each state (mult),
printable labels (one state's, or a whole stage's at once), and the inverse
map from labels back to state indices. `push_forward` is the one forward
propagation over the child tables: it carries stage-n mass (or reachability)
to stage n+1.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from math import comb

import numpy as np

from .errors import BudgetExceededError, SeqOptError
from .model import Problem

DEFAULT_STATE_BUDGET = 4_000_000

_NUMBER = "(?:0|[1-9][0-9]*)"  # a label's numbers, as str(int) writes them


class TreeStateSpace:
    engine = "tree"

    def __init__(self, problem: Problem):
        self.problem = problem
        self.k = problem.alphabet_size
        self._step_cache: dict[int, np.ndarray] = {}

    def n_states(self, n: int) -> int:
        return self.k**n

    def children(self, n: int) -> np.ndarray:
        s = self.n_states(n)
        return np.arange(s, dtype=np.int64)[:, None] * self.k + np.arange(self.k, dtype=np.int64)

    def history(self, n: int, idx: int) -> tuple[int, ...]:
        digits = []
        for _ in range(n):
            digits.append(idx % self.k)
            idx //= self.k
        return tuple(reversed(digits))

    def step_probs(self, n: int) -> np.ndarray:
        """Conditional pmf of the next symbol, shape (S_n, m, K); kernels' from kernel_rows."""
        p = self.problem
        if p.obs.kind == "iid":
            s = self.n_states(n)
            return np.broadcast_to(p.obs.iid_pmf[None, :, :], (s, p.n_params, self.k))
        if n not in self._step_cache:
            self._step_cache[n] = p.obs.kernel_rows(p.n_params, n)
        return self._step_cache[n]

    def mult(self, n: int) -> np.ndarray:
        return np.ones(self.n_states(n))

    def label(self, n: int, idx: int) -> str:
        return ",".join(str(x) for x in self.history(n, idx))

    def labels(self, n: int) -> list[str]:
        """label(n, i) for every stage-n state, in index order."""
        symbols = [str(x) for x in range(self.k)]
        out = [""]
        for depth in range(n):
            sep = "," if depth else ""
            out = [f"{prefix}{sep}{x}" for prefix in out for x in symbols]
        return out

    def label_indices(self, stages: Sequence[int], labels: Sequence[str]) -> np.ndarray:
        """Index of each (stage, label) pair; -1 where the label is no state of its stage.

        A label's symbols are the base-K digits of its index.
        """
        pattern = re.compile(f"{_NUMBER}(?:,{_NUMBER})*")
        out = np.full(len(labels), -1, dtype=np.int64)
        for i, (n, lab) in enumerate(zip(stages, labels)):
            if not pattern.fullmatch(lab):
                continue
            digits = [int(t) for t in lab.split(",")]
            if len(digits) == n and max(digits) < self.k:
                idx = 0
                for x in digits:
                    idx = idx * self.k + x
                out[i] = idx
        return out


class CountStateSpace:
    engine = "counts"

    def __init__(self, problem: Problem):
        if problem.obs.kind != "iid":
            raise SeqOptError("count-vector engine requires an iid model")
        self.problem = problem
        self.k = problem.alphabet_size
        # Per built stage n: the (S_n, K) states in lexicographic order, their
        # multiplicities, and (below the top stage) the (S_n, K) child table.
        self._states: dict[int, np.ndarray] = {0: np.zeros((1, self.k), dtype=np.int64)}
        self._mult: dict[int, np.ndarray] = {0: np.ones(1)}
        self._children: dict[int, np.ndarray] = {}
        self._top = 0
        self._unit = np.eye(self.k, dtype=np.int64)
        self._parts_after = np.arange(self.k - 1, 0, -1)
        self._sizes = _composition_counts(self.k, 0)

    def _rank(self, counts: np.ndarray) -> np.ndarray:
        """Lexicographic index of each count vector (last axis) within its stage.

        With rest_i = counts[i:].sum() and p = K-1-i parts after part i, the
        vectors that agree on parts 0..i-1 and are smaller at part i number
        C(rest_i + p, p) - C(rest_{i+1} + p, p) (hockey-stick identity).
        """
        rest = np.cumsum(counts[..., ::-1], axis=-1)[..., ::-1]
        p = self._parts_after
        return (self._sizes[p, rest[..., :-1]] - self._sizes[p, rest[..., 1:]]).sum(axis=-1)

    def _build_to(self, n: int) -> None:
        """Build stages top+1..n, each from its predecessor's children."""
        if n <= self._top:
            return
        if n >= self._sizes.shape[1]:
            self._sizes = _composition_counts(self.k, 2 * n)
        states, mult = self._states[self._top], self._mult[self._top]
        for stage in range(self._top, n):
            cand = states[:, None, :] + self._unit  # cand[s, x]: state s after symbol x
            ch = self._rank(cand)
            size = int(self._sizes[-1, stage + 1])
            states = np.empty((size, self.k), dtype=np.int64)
            states[ch.ravel()] = cand.reshape(-1, self.k)
            mult = np.bincount(ch.ravel(), weights=np.repeat(mult, self.k), minlength=size)
            self._children[stage] = ch
            self._states[stage + 1] = states
            self._mult[stage + 1] = mult
        self._top = n

    def n_states(self, n: int) -> int:
        self._build_to(n)
        return len(self._states[n])

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
        self._build_to(n)
        return int(self._rank(c))

    def children(self, n: int) -> np.ndarray:
        self._build_to(n + 1)
        return self._children[n]

    def step_probs(self, n: int) -> np.ndarray:
        p = self.problem
        s = self.n_states(n)
        return np.broadcast_to(p.obs.iid_pmf[None, :, :], (s, p.n_params, self.k))

    def mult(self, n: int) -> np.ndarray:
        self._build_to(n)
        return self._mult[n]

    def label(self, n: int, idx: int) -> str:
        return "|".join(str(c) for c in self.states(n)[idx].tolist())

    def labels(self, n: int) -> list[str]:
        """label(n, i) for every stage-n state, in index order."""
        fmt = "|".join(["{}"] * self.k)
        return [fmt.format(*counts) for counts in self.states(n).tolist()]

    def label_indices(self, stages: Sequence[int], labels: Sequence[str]) -> np.ndarray:
        """Index of each (stage, label) pair; -1 where the label is no state of its stage.

        Well-formed labels are parsed to count vectors and ranked in one array
        operation.
        """
        top = max(stages, default=0)
        # No part has more digits than the top stage, so int64 cannot overflow.
        number = f"(?:0|[1-9][0-9]{{0,{len(str(top)) - 1}}})"
        pattern = re.compile(f"{number}(?:\\|{number}){{{self.k - 1}}}")
        rows = [i for i, lab in enumerate(labels) if pattern.fullmatch(lab)]
        out = np.full(len(labels), -1, dtype=np.int64)
        if rows:
            parts = "|".join([labels[i] for i in rows]).split("|")
            counts = np.array(parts, dtype=np.int64).reshape(-1, self.k)
            rows = np.array(rows)
            ok = counts.sum(axis=1) == np.asarray(stages)[rows]
            self._build_to(top)
            out[rows[ok]] = self._rank(counts[ok])
        return out


def _composition_counts(k: int, r_max: int) -> np.ndarray:
    """table[p, r] = C(r + p, p): compositions of r into p + 1 parts, r <= r_max."""
    table = np.ones((k, r_max + 1), dtype=np.int64)
    for p in range(1, k):
        table[p] = np.cumsum(table[p - 1])
    return table


StateSpace = TreeStateSpace | CountStateSpace


def resolve_engine(problem: Problem, engine: str = "auto") -> str:
    """The engine "auto" stands for: counts for iid models, tree otherwise."""
    if engine == "auto":
        return "counts" if problem.obs.kind == "iid" else "tree"
    return engine


def state_space(problem: Problem, engine: str = "auto") -> StateSpace:
    """Pick an engine: counts for iid models, tree otherwise (or on request)."""
    engine = resolve_engine(problem, engine)
    if engine == "counts":
        return CountStateSpace(problem)
    if engine == "tree":
        return TreeStateSpace(problem)
    raise SeqOptError(f"unknown engine {engine!r}")


def push_forward(
    space: StateSpace, n: int, values: np.ndarray, weighted: bool = True
) -> np.ndarray:
    """Carry stage-n values to stage n+1: each child sums what its parents send.

    With `weighted`, values is (S_n, m) per-parameter mass and the edge of
    symbol x multiplies it by x's conditional pmf: iid_pmf's column x for iid
    models, the kernel rows of step_probs otherwise. Without, values travel
    unchanged; boolean values then sum as a logical or, so reachability never
    underflows.
    """
    children = space.children(n)
    out = np.zeros((space.n_states(n + 1),) + values.shape[1:], dtype=values.dtype)
    if not weighted:
        edges = None
    elif space.problem.obs.kind == "iid":
        edges = space.problem.obs.iid_pmf.T  # edges[x]: (m,) pmf of symbol x
    else:
        edges = np.moveaxis(space.step_probs(n), 2, 0)  # edges[x]: (S_n, m)
    for x in range(space.k):
        # children[:, x] repeats no index, so the buffered += drops no term.
        out[children[:, x]] += values if edges is None else values * edges[x]
    return out


def check_state_budget(space: StateSpace, horizon: int, budget: int = DEFAULT_STATE_BUDGET) -> None:
    """Raise if stages 0..horizon hold more than `budget` states together.

    The totals are closed forms: sum_n K^n = (K^(N+1) - 1) / (K - 1) for the
    tree, and sum_n C(n+K-1, K-1) = C(N+K, K) (hockey-stick) for counts.
    """
    k = space.k
    if space.engine == "tree":
        total = horizon + 1 if k == 1 else (k ** (horizon + 1) - 1) // (k - 1)
    else:
        total = comb(horizon + k, k)
    if total > budget:
        raise BudgetExceededError(
            f"{space.engine} engine needs more than {budget} states for horizon {horizon}"
        )
