"""Problem definition: parameters, observation model, loss, priors, cost.

A Problem bundles everything a sequential procedure needs: a finite parameter
set, a finite observation alphabet with either an iid per-parameter pmf or a
history-dependent kernel, a nonnegative terminal loss matrix, two priors (one
weighting the terminal loss, one weighting the expected sample size), a
per-observation cost, and optional constraint groups for the multiplier search.

All integrals over observation sequences are sums: the reference measure is
counting measure on the alphabet, so a "density" is just a probability mass.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import islice, product

import numpy as np

from .errors import InvalidProblemError, KernelDomainError
from .tolerances import NORM_ATOL

# A kernel maps (parameter index, history tuple) to a pmf over the next symbol.
Kernel = Callable[[int, tuple[int, ...]], Sequence[float]]

_VALIDATION_STATE_BUDGET = 200_000


@dataclass(frozen=True)
class ParameterSpace:
    """Finite set of parameter values, identified by string labels."""

    labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True, eq=False)
class ObservationModel:
    """Distribution of one observation given the parameter and the past.

    kind "iid": `iid_pmf[theta, x]` is the pmf of every observation.
    kind "dependent": `kernel(theta, history)` (a callable, or a mapping keyed
    by `(theta, history)`) returns the pmf of the next observation; `horizon`
    bounds how deep the kernel is defined.
    """

    alphabet_size: int
    kind: str = "iid"
    iid_pmf: np.ndarray | None = None
    kernel: Kernel | Mapping | None = None
    horizon: int | None = None

    def conditional_pmf(self, theta: int, history: tuple[int, ...]) -> np.ndarray:
        if self.kind == "iid":
            return self.iid_pmf[theta]
        if self.horizon is not None and len(history) >= self.horizon:
            raise KernelDomainError(
                f"kernel undefined past horizon {self.horizon} (history length {len(history)})"
            )
        kern = self.kernel
        try:
            row = kern(theta, tuple(history)) if callable(kern) else kern[(theta, tuple(history))]
        except KeyError:
            raise KernelDomainError(f"kernel undefined for history {tuple(history)}") from None
        return np.asarray(row, dtype=float)

    def kernel_rows(self, m: int, n: int) -> np.ndarray:
        """Read-only (K^n, m, K) array of conditional_pmf(theta, h_i), h_i in base-K order.

        Walked once per stage for the life of the model; raises KernelDomainError
        at an undefined or wrong-length row.
        """
        rows, faults = _kernel_stage(self, m, n)
        if faults:
            raise KernelDomainError(next(iter(faults.values())))
        return rows


# Per dependent model: (m, n) -> (rows, faults) of each complete stage walked.
_KERNEL_STAGES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kernel_stage(obs: ObservationModel, m: int, n: int, count: int | None = None):
    """The kernel walk: one conditional_pmf call per (theta, history) of stage n.

    Covers the first `count` histories, or the whole stage, which is cached.
    Returns the rows, NaN where one failed, and failure messages by (index, theta).
    """
    k = obs.alphabet_size
    cache = _KERNEL_STAGES.setdefault(obs, {}) if count is None else {}
    if (m, n) not in cache:
        rows = np.full((max(k, 0) ** n if count is None else count, m, max(k, 0)), np.nan)
        faults: dict[tuple[int, int], str] = {}
        for i, h in enumerate(islice(product(range(k), repeat=n), len(rows))):
            for theta in range(m):
                try:
                    row = obs.conditional_pmf(theta, h)
                    if row.shape != (k,):
                        raise KernelDomainError(
                            f"dimension mismatch: kernel pmf at {h} has shape {row.shape}"
                        )
                    rows[i, theta] = row
                except KernelDomainError as e:
                    faults[(i, theta)] = str(e)
        rows.flags.writeable = False
        cache[(m, n)] = rows, faults
    return cache[(m, n)]


@dataclass(frozen=True, eq=False)
class LossSpec:
    """Terminal decision set and nonnegative loss matrix w[theta, decision]."""

    decisions: tuple[str, ...]
    w: np.ndarray

    @property
    def size(self) -> int:
        return len(self.decisions)


@dataclass(frozen=True, eq=False)
class Priors:
    """pi1 weights the terminal loss, pi2 weights the expected sample size."""

    pi1: np.ndarray
    pi2: np.ndarray


@dataclass(frozen=True)
class CostSpec:
    """Cost per observation, nonnegative."""

    c: float


@dataclass(frozen=True)
class ConstraintSpec:
    """Disjoint parameter groups with loss bounds, for the multiplier search.

    `multipliers` is filled in by the Lagrange module when known.
    """

    groups: tuple[tuple[int, ...], ...]
    bounds: tuple[float, ...]
    multipliers: tuple[float, ...] | None = None


@dataclass(frozen=True, eq=False)
class Problem:
    params: ParameterSpace
    obs: ObservationModel
    loss: LossSpec
    priors: Priors
    cost: CostSpec
    constraints: ConstraintSpec | None = None

    @property
    def n_params(self) -> int:
        return self.params.size

    @property
    def n_decisions(self) -> int:
        return self.loss.size

    @property
    def alphabet_size(self) -> int:
        return self.obs.alphabet_size


def _check_pmf_row(row: np.ndarray, what: str, errors: list[str]) -> None:
    if np.any(row < 0):
        errors.append(f"negative probability in {what}")
    total = float(np.sum(row))
    if not np.isfinite(total) or abs(total - 1.0) > NORM_ATOL:
        errors.append(f"pmf-not-normalized: {what} sums to {total!r}")


def _check_kernel(p: Problem, budget: int, errors: list[str]) -> None:
    """Append a kernel's violations in breadth-first order, at most `budget` histories.

    Stops after the history that takes the list past 100 errors.
    """
    m, k = p.params.size, p.obs.alphabet_size
    visited = 0
    for n in range(p.obs.horizon):
        size = max(k, 0) ** n
        count = max(0, min(size, budget - visited))
        rows, faults = _kernel_stage(p.obs, m, n, None if count == size else count)
        visited += count
        # A failed row is NaN, so its total flags it too.
        flagged = (rows < 0).any(axis=2) | ~(np.abs(rows.sum(axis=2) - 1.0) <= NORM_ATOL)
        for i in np.flatnonzero(flagged.any(axis=1)):
            h = tuple(int(i) // k**j % k for j in reversed(range(n)))
            for theta in np.flatnonzero(flagged[i]):
                if (i, theta) in faults:
                    errors.append(faults[(i, theta)])
                else:
                    what = f"kernel pmf of {p.params.labels[theta]} at {h}"
                    _check_pmf_row(rows[i, theta], what, errors)
            if len(errors) > 100:
                return
        if count < size:
            errors.append(f"kernel validation exceeded state budget {budget}")
            return


def validate_problem(p: Problem, kernel_state_budget: int = _VALIDATION_STATE_BUDGET) -> Problem:
    """Check every structural invariant of a Problem.

    Returns the problem unchanged when everything holds. Otherwise raises
    InvalidProblemError carrying the complete list of violations (the check
    does not stop at the first one).

    For dependent models the rows of every history shorter than the horizon
    are checked, at most `kernel_state_budget` histories. They are the
    model's cached `kernel_rows`, which the tree engine reuses.
    """
    errors: list[str] = []
    m = p.params.size
    k = p.obs.alphabet_size

    if m < 1:
        errors.append("dimension mismatch: empty parameter space")
    if len(set(p.params.labels)) != m:
        errors.append("duplicate parameter labels")
    if k < 2:
        errors.append(f"alphabet_size must be >= 2, got {k}")

    if p.obs.kind not in ("iid", "dependent"):
        errors.append(f"unknown model kind {p.obs.kind!r}")
    elif p.obs.kind == "iid":
        if p.obs.iid_pmf is None:
            errors.append("iid model missing iid_pmf")
        else:
            pmf = np.asarray(p.obs.iid_pmf, dtype=float)
            if pmf.shape != (m, k):
                errors.append(
                    f"dimension mismatch: iid_pmf shape {pmf.shape}, expected {(m, k)}"
                )
            else:
                for i, label in enumerate(p.params.labels):
                    _check_pmf_row(pmf[i], f"pmf of {label}", errors)
    elif p.obs.kernel is None:
        errors.append("dependent model missing kernel")
    elif p.obs.horizon is None or p.obs.horizon < 1:
        errors.append("dependent model needs a positive horizon")
    else:
        _check_kernel(p, kernel_state_budget, errors)

    w = np.asarray(p.loss.w, dtype=float)
    if p.loss.size < 1:
        errors.append("loss needs at least one decision")
    if w.shape != (m, p.loss.size):
        errors.append(f"dimension mismatch: loss shape {w.shape}, expected {(m, p.loss.size)}")
    elif np.any(w < 0) or not np.all(np.isfinite(w)):
        errors.append("negative loss entry (loss matrix must be finite and >= 0)")

    for name, vec in (("pi1", p.priors.pi1), ("pi2", p.priors.pi2)):
        v = np.asarray(vec, dtype=float)
        if v.shape != (m,):
            errors.append(f"dimension mismatch: {name} shape {v.shape}, expected {(m,)}")
        else:
            _check_pmf_row(v, name, errors)

    if not (np.isfinite(p.cost.c) and p.cost.c >= 0):
        errors.append(f"cost must be >= 0, got {p.cost.c!r}")

    if p.constraints is not None:
        cs = p.constraints
        if len(cs.bounds) != len(cs.groups):
            errors.append("dimension mismatch: one bound per constraint group required")
        seen: set[int] = set()
        for gi, group in enumerate(cs.groups):
            if len(group) == 0:
                errors.append(f"constraint group {gi} is empty")
            for t in group:
                if not (0 <= t < m):
                    errors.append(f"constraint group {gi} references unknown parameter {t}")
                elif t in seen:
                    errors.append(
                        f"overlapping constraint groups: parameter {p.params.labels[t]}"
                    )
                seen.add(t)
        for gi, b in enumerate(cs.bounds):
            if not (np.isfinite(b) and b > 0):
                errors.append(f"constraint bound {gi} must be > 0, got {b!r}")
        if cs.multipliers is not None:
            if len(cs.multipliers) != len(cs.groups):
                errors.append("dimension mismatch: one multiplier per group required")
            elif any(lam < 0 for lam in cs.multipliers):
                errors.append("multipliers must be >= 0")

    if errors:
        raise InvalidProblemError(errors)
    return p


def zero_one_loss(m: int) -> np.ndarray:
    """m-parameter identification loss: 1 for a wrong pick, 0 for the right one."""
    return 1.0 - np.eye(m)


def iid_problem(
    pmf: Sequence[Sequence[float]],
    loss: Sequence[Sequence[float]] | np.ndarray,
    pi1: Sequence[float],
    pi2: Sequence[float],
    cost: float,
    labels: Sequence[str] | None = None,
    decisions: Sequence[str] | None = None,
    groups: Sequence[Sequence[int]] | None = None,
    bounds: Sequence[float] | None = None,
) -> Problem:
    """Convenience constructor for iid problems; validates before returning."""
    pmf = np.asarray(pmf, dtype=float)
    w = np.asarray(loss, dtype=float)
    errors = [
        f"dimension mismatch: {name} must be 2-D, got shape {a.shape}"
        for name, a in (("pmf", pmf), ("loss", w))
        if a.ndim != 2
    ]
    if (groups is None) != (bounds is None):
        errors.append("constraint groups and bounds must be given together")
    if errors:
        raise InvalidProblemError(errors)
    m, k = pmf.shape
    if labels is None:
        labels = tuple(f"theta{i + 1}" for i in range(m))
    if decisions is None:
        decisions = tuple(f"d{j + 1}" for j in range(w.shape[1]))
    constraints = None
    if groups is not None:
        constraints = ConstraintSpec(
            groups=tuple(tuple(int(t) for t in g) for g in groups),
            bounds=tuple(float(b) for b in bounds),
        )
    p = Problem(
        params=ParameterSpace(tuple(labels)),
        obs=ObservationModel(alphabet_size=k, kind="iid", iid_pmf=pmf),
        loss=LossSpec(tuple(decisions), w),
        priors=Priors(np.asarray(pi1, dtype=float), np.asarray(pi2, dtype=float)),
        cost=CostSpec(float(cost)),
        constraints=constraints,
    )
    return validate_problem(p)


def with_loss(p: Problem, w: np.ndarray) -> Problem:
    """Copy of a problem with a replaced loss matrix (same decision labels)."""
    return replace(p, loss=LossSpec(p.loss.decisions, np.asarray(w, dtype=float)))
