"""Sequential procedures, their rule file, and rule extraction from value tables.

A procedure is a stopping rule, which gives each stage-n state a stop
probability in [0, 1], and a terminal decision strategy (randomized: per
state, decision probabilities); `_check_coverage` checks one against a state
space. `StoppingRule.to_csv` is the rule file's one writer, `rule_from_csv`
its one reader. Optimal rules come out of the value tables by the sandwich
rule: stop where stopping is strictly cheaper than continuing, continue where
it is strictly dearer, and do anything where the two are tied (within a
relative margin). The final stage of a truncated rule always stops.

`sandwich_check` verifies that property on the reachable set only: states a
rule can actually arrive at with positive probability, which depends on the
rule alone, not on the model.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from typing import IO

import numpy as np

from .backward_induction import VALUES_HEADER, ValueTables, _reprs, _write_rows
from .bayes_decision import HistoryTable, decision_dtype
from .errors import SeqOptError
from .histories import StateSpace, check_state_budget, push_forward, state_space
from .model import Problem
from .tolerances import NORM_ATOL, TIE_RTOL


@dataclass(eq=False)
class StoppingRule:
    """Per-stage stop probabilities over a state enumeration.

    stop_probs[i] covers stage i+1. A truncated rule's last stage is all ones.
    tie_states (when extracted from tables) lists, per covered stage, the
    state indices where stop and continue were tied.
    """

    engine: str
    stop_probs: list[np.ndarray]
    truncated: bool
    tie_states: list[np.ndarray] | None = None
    # extract_rule's solve table, kept so its state space and Bayes stages
    # outlive the ValueTables. Not a field: neither CSV nor equality sees it.
    _table = None

    @property
    def horizon(self) -> int:
        return len(self.stop_probs)

    def at(self, n: int) -> np.ndarray:
        """Stop probabilities for stage n (1-based)."""
        if not 1 <= n <= self.horizon:
            raise IndexError(f"rule covers stages 1..{self.horizon}, asked for {n}")
        return self.stop_probs[n - 1]

    def with_prob(self, n: int, state: int, value: float) -> "StoppingRule":
        """Copy with one stop probability replaced, truncated while its last stage
        stops everywhere; SeqOptError outside [0, 1] or NaN."""
        if not 0.0 <= value <= 1.0:
            raise SeqOptError(f"stop probability {value!r} outside [0, 1]")
        probs = [a.copy() for a in self.stop_probs]
        probs[n - 1][state] = value
        truncated = self.truncated and (n < self.horizon or value == 1.0)
        return StoppingRule(self.engine, probs, truncated, self.tie_states)

    def to_csv(
        self, fh: IO[str], problem: Problem, decision: DecisionStrategy | None = None
    ) -> None:
        """The rule file: per state of the problem's space, engine, stage, label,
        stop probability and, with a strategy, one column decision_prob_<d> per
        decision of the problem (its probs, or one-hot rows of a deterministic one).

        Floats are repr's, each distinct bit pattern of a stage's column
        formatted once (-0.0 keeps its text). The bytes are csv.writer's (CRLF,
        comma-bearing labels quoted), each stage written as one block of text.
        """
        space = state_space(problem, self.engine)
        d_count = 0 if decision is None else problem.n_decisions
        fh.write(_rule_header(d_count))
        for n in range(1, self.horizon + 1):
            q = None if decision is None else decision.stage_probs(n, d_count)
            _write_rule_stage(fh, self, n, space.labels(n), q)


@dataclass(eq=False)
class DecisionStrategy:
    """Terminal decision index per stage and state.

    A randomized strategy also carries probs: per stage an (S, D) array of
    decision probabilities per state, which evaluate and simulate then use
    in place of decisions (kept as each state's likeliest decision).
    """

    decisions: list[np.ndarray]
    probs: list[np.ndarray] | None = None
    # The decision count D where it is known (the Bayes and ratio-test
    # strategies), so with_decision can refuse an index outside [0, D).
    d_count: int | None = field(default=None, repr=False)

    @classmethod
    def bayes(cls, table: HistoryTable, horizon: int) -> "DecisionStrategy":
        decisions = [table.stage(n).decision for n in range(1, horizon + 1)]
        return cls(decisions, d_count=table.problem.n_decisions)

    @property
    def horizon(self) -> int:
        return len(self.decisions)

    def at(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.horizon:
            raise IndexError(f"strategy covers stages 1..{self.horizon}, asked for {n}")
        return self.decisions[n - 1]

    def stage_probs(self, n: int, d_count: int) -> np.ndarray:
        """Stage n's (S, D) decision probabilities: probs, or one-hot rows of decisions."""
        if self.probs is not None:
            return self.probs[n - 1]
        return _one_hot(self.at(n), _kinds(d_count))

    def with_decision(self, n: int, state: int, decision: int) -> "DecisionStrategy":
        """Copy with one decision index replaced; SeqOptError outside [0, D) where D is known."""
        if self.probs is not None:
            raise SeqOptError("with_decision needs a deterministic strategy")
        d_count = self.d_count
        if d_count is not None and not (
            isinstance(decision, (int, np.integer)) and 0 <= decision < d_count
        ):
            raise SeqOptError(f"decision {decision!r} is not an index in [0, {d_count})")
        arrs = [a.copy() for a in self.decisions]
        arrs[n - 1][state] = decision
        return DecisionStrategy(arrs, d_count=d_count)


def _kinds(d_count: int) -> np.ndarray:
    """The decision indices 0..D-1 in the type of the Bayes decisions, for _one_hot."""
    return np.arange(d_count, dtype=decision_dtype(d_count))


def _one_hot(decisions: np.ndarray, kinds: np.ndarray) -> np.ndarray:
    """(S, D) one-hot booleans of (S,) decision indices: the transposed view of a (D, S) array.

    Every strategy the package builds stores its indices in the kinds' type,
    so they compare without a cast; a comparison across types casts per call.
    """
    return (decisions == kinds[:, None]).T


def _check_coverage(
    space: StateSpace,
    rule: StoppingRule,
    decision: DecisionStrategy | None,
    horizon: int,
    d_count: int,
) -> None:
    """Raise SeqOptError unless the rule and the decisions fit stages 1..horizon.

    Each decision stage must give an integer index in [0, d_count) per state;
    stop probabilities and a randomized strategy's (S_n, d_count) probs must
    be what a rule file may hold. Shape tests per stage, then one pass per bound.
    """
    sizes = [space.n_states(n) for n in range(1, horizon + 1)]
    for n, size in enumerate(sizes, start=1):
        if size != len(rule.at(n)):
            raise SeqOptError(f"rule stage {n} covers {len(rule.at(n))} states, problem has {size}")
    # min and max take no per-state temporary, and a NaN fails them both.
    stop = np.concatenate(rule.stop_probs[:horizon])
    if not (stop.min() >= 0.0 and stop.max() <= 1.0):
        n = next(n for n in range(1, horizon + 1) if _bad_probs(rule.at(n)).any())
        raise SeqOptError(f"rule stage {n} has stop probabilities outside [0, 1]")
    if decision is None:
        return
    decs = decision.decisions[:horizon]
    probs = [] if decision.probs is None else decision.probs[:horizon]
    if len(decs) < horizon or (decision.probs is not None and len(probs) < horizon):
        raise SeqOptError("decision strategy does not cover the rule's horizon")
    for n, (size, dec) in enumerate(zip(sizes, decs), start=1):
        if np.shape(dec) != (size,):
            raise SeqOptError(f"decision stage {n} covers {len(dec)} states, problem has {size}")
    for n, (size, q) in enumerate(zip(sizes, probs), start=1):
        if np.shape(q) != (size, d_count):
            raise SeqOptError(
                f"decision probabilities of stage {n} have shape {np.shape(q)}, "
                f"expected {(size, d_count)}"
            )
    if probs and _bad_probs(np.concatenate(probs)).any():
        n = next(n for n, q in enumerate(probs, start=1) if _bad_probs(q).any())
        raise SeqOptError(f"decision probabilities of stage {n} must lie in [0, 1] and sum to 1")
    flat = np.concatenate(decs)
    if flat.dtype.kind not in "iu":
        raise SeqOptError(f"decision indices must be integers, got {flat.dtype}")
    if flat.min() < 0 or flat.max() >= d_count:
        n = next(n for n, dec in enumerate(decs, start=1) if dec.min() < 0 or dec.max() >= d_count)
        raise SeqOptError(f"decision stage {n} has indices outside [0, {d_count})")


DECISION_PROB = "decision_prob_"  # + decision index: the optional decision columns


def _rule_header(d_count: int) -> str:
    header = ["engine", "stage", "state", "stop_prob"]
    return ",".join(header + [f"{DECISION_PROB}{d}" for d in range(d_count)]) + "\r\n"


def _write_rule_stage(
    fh: IO[str], rule: StoppingRule, n: int, labels: list[str], q: np.ndarray | None = None
) -> None:
    """to_csv's rows of stage n, given the stage's labels(n) and (S, D) decision probabilities."""
    extra = [] if q is None else list(map(_distinct_reprs, q.T))
    _write_rows(fh, f"{rule.engine},{n},", labels, _distinct_reprs(rule.at(n)), *extra)


def _distinct_reprs(values: np.ndarray) -> list[str]:
    """repr(float(v)) for each entry of values, each distinct bit pattern formatted once.

    A dict, not np.unique: its sort kernels would add their code to the peak
    memory of every process that writes a rule.
    """
    bits = np.ascontiguousarray(values, dtype=float).view(np.uint64).tolist()
    distinct = list(dict.fromkeys(bits))
    texts = dict(zip(distinct, _reprs(np.array(distinct, dtype=np.uint64).view(float))))
    return list(map(texts.__getitem__, bits))


def _write_solve_csvs(
    values_fh: IO[str], rule_fh: IO[str], tables: ValueTables, rule: StoppingRule
) -> None:
    """tables.to_csv into values_fh and rule.to_csv into rule_fh, stage by stage.

    Each stage's labels are built once for both files, and dropped before the
    next stage's; the bytes are those of the two writers. rule is
    extract_rule(tables), which covers the tables' stages.
    """
    values_fh.write(VALUES_HEADER)
    rule_fh.write(_rule_header(0))
    for n in range(tables.horizon + 1):
        labels = tables.table.space.labels(n)
        tables._write_stage(values_fh, n, labels)
        if n:
            _write_rule_stage(rule_fh, rule, n, labels)


def rule_from_csv(
    fh: IO[str], problem: Problem
) -> tuple[StoppingRule, DecisionStrategy | None]:
    """A rule file's rule and, if it has decision columns, its decision strategy.

    The strategy is None for a file without decision_prob_<d> columns, and
    otherwise a randomized one: the columns as its probs, each state's
    likeliest decision as its decisions. Each stage's rows are matched to its
    labels(n), so rows may come in any order; every state must be covered.
    Each distinct text of a column is converted once, and rows are handled a
    column at a time (see _csv_columns), with no Python work per row.

    Errors, all SeqOptError, come in this order. A file that is not CSV text
    raises first. A stage that does not read as an integer raises, naming
    its row (counted from 1 below the header, blank lines skipped) and
    column, as does any cell below. A stage past the state budget raises
    BudgetExceededError. Then the first stage with fewer rows than states
    raises, whatever rows come before it, and then the first row that repeats
    an earlier row's stage and label. None of these builds a stage. Then rows
    are checked in file order, and the first offending one raises: a stop
    probability that does not read as a number, then one outside [0, 1], or
    an unknown state. A stage with more rows than states thus raises as a
    repeat or an unknown state. Decision cells are read last, in file order.
    """
    try:
        header, widths, columns = _csv_columns(fh.read())
    except (UnicodeDecodeError, csv.Error) as e:
        raise SeqOptError(f"rule file is not CSV text: {e}") from None
    if not widths:
        raise SeqOptError("empty rule file")
    fields = ("engine", "stage", "state", "stop_prob")
    if not set(fields) <= set(header) or widths != {len(header)}:
        raise SeqOptError(f"rule file needs the columns {fields} in every row")

    def column(name: str) -> Sequence[str]:
        return columns[header.index(name)]

    engines = set(column("engine"))
    if len(engines) != 1:
        raise SeqOptError(f"rule file mixes engines: {sorted(engines)}")
    engine = engines.pop()
    space = state_space(problem, engine)
    stages = _read_cells([column("stage")], ["stage"], np.int64)[0]
    labels = column("state")
    horizon = max(int(stages.max()), 0)
    check_state_budget(space, horizon)  # before any stage is built or sized
    sizes = [space.n_states(n) for n in range(1, horizon + 1)]
    short = np.bincount(stages[stages >= 1], minlength=horizon + 1)[1:] < sizes
    if short.any():
        raise SeqOptError(f"rule file leaves stage {int(np.argmax(short)) + 1} states undefined")
    # Distinct labels make distinct (stage, label) keys, and no label names
    # states of two stages, so a written file never builds the key set.
    if len(set(labels)) < len(labels):
        first_seen: dict = {}
        keys = enumerate(zip(stages.tolist(), labels))
        i = next((i for i, key in keys if first_seen.setdefault(key, i) != i), None)
        if i is not None:
            raise SeqOptError(f"rule file repeats state {labels[i]!r} at stage {stages[i]}")
    # Each stage's rows take their labels' indices in the engine's own
    # labels(n): at once where they list it in order, as written, else by
    # lookup. Unknown labels and stages below 1 keep index -1.
    indices = np.full(len(labels), -1, dtype=np.int64)
    # A written file lists its stages in order, so its rows need no sort.
    in_order = not (np.diff(stages) < 0).any()
    by_stage = np.arange(len(stages)) if in_order else np.argsort(stages)
    starts = np.searchsorted(stages[by_stage], np.arange(1, horizon + 2))
    in_file = np.array(labels, dtype=object)
    for n in range(1, horizon + 1):
        at_n = by_stage[starts[n - 1] : starts[n]]
        mine, known = in_file[at_n].tolist(), space.labels(n)
        if mine == known:
            indices[at_n] = np.arange(sizes[n - 1])
        else:
            index = dict(zip(known, range(sizes[n - 1])))
            indices[at_n] = list(map(index.get, mine, repeat(-1)))
    unknown = indices < 0
    first = int(np.argmax(unknown)) if unknown.any() else len(labels)
    # Only rows above the first unknown state are read, so errors keep file order.
    values = _read_cells([column("stop_prob")[:first]], ["stop_prob"], float)[0]
    outside = _bad_probs(values)
    if outside.any():
        raise SeqOptError(f"stop probability {float(values[np.argmax(outside)])} outside [0, 1]")
    if first < len(labels):
        raise SeqOptError(
            f"rule references unknown state {labels[first]!r} at stage {stages[first]}"
        )
    offsets = np.cumsum([0] + sizes)
    at = offsets[stages - 1] + indices  # each row's position in all stages, concatenated
    flat = np.full(offsets[-1], np.nan)
    flat[at] = values
    probs = np.split(flat, offsets[1:-1])  # rows enough, none repeated or unknown: all set
    truncated = bool(np.all(probs[-1] == 1.0))
    rule = StoppingRule(engine, probs, truncated)
    d_names = [h for h in header if h.startswith(DECISION_PROB)]
    if not d_names:
        return rule, None
    d_count = problem.n_decisions
    if d_names != [f"{DECISION_PROB}{d}" for d in range(d_count)]:
        raise SeqOptError(
            f"rule file's decision columns must be {DECISION_PROB}0..{DECISION_PROB}{d_count - 1}"
        )
    q = _read_cells([column(h) for h in d_names], d_names, float).T  # (rows, D)
    bad = _bad_probs(q)
    if bad.any():
        i = int(np.argmax(bad))
        raise SeqOptError(
            f"decision probabilities of state {labels[i]!r} at stage {stages[i]} "
            "must lie in [0, 1] and sum to 1"
        )
    table = np.empty((offsets[-1], d_count))
    table[at] = q
    likeliest = table.argmax(axis=1).astype(decision_dtype(d_count))
    cuts = offsets[1:-1]
    return rule, DecisionStrategy(np.split(likeliest, cuts), np.split(table, cuts))


def _csv_columns(text: str) -> tuple[list[str], set[int], list[Sequence[str]]]:
    """CSV text's header, the widths of its other rows and, if all have the
    header's width, their columns, as csv.reader reads them; blank lines hold no row.

    Without a quote character, CSV is text split at line ends, then at
    commas, so such text is split so: its columns are slices of one list of
    fields, with no list per row. Quoted text goes through csv.reader.
    """
    if '"' in text:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, [])
        rows = list(filter(None, reader))
        return header, set(map(len, rows)), list(zip(*rows))
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    header = lines[0].split(",") if lines[0] else []
    rows = list(filter(None, lines[1:]))
    widths = {commas + 1 for commas in set(map(str.count, rows, repeat(",")))}
    fields = ",".join(rows).split(",") if rows else []
    return header, widths, [fields[j :: len(header)] for j in range(len(header))]


def _read_cells(columns: list[Sequence[str]], names: list[str], dtype: type) -> np.ndarray:
    """The cells of the named columns as dtype (np.int64 or float), shape (columns, rows).

    Each column's distinct texts are read once each, as int() or float() reads
    them. The first row holding a cell that does not read raises SeqOptError,
    naming the row and its leftmost such column.
    """
    out, unread = [], []
    for j, cells in enumerate(columns):
        read = {}
        for text in dict.fromkeys(cells):  # distinct texts, in order of first row
            try:
                read[text] = dtype(int(text) if dtype is np.int64 else float(text))
            except (ValueError, OverflowError):
                unread.append((cells.index(text), j, text))
                break
        else:
            out.append(np.fromiter(map(read.__getitem__, cells), dtype, len(cells)))
    if unread:
        row, j, text = min(unread)
        kind = "an integer" if dtype is np.int64 else "a number"
        raise SeqOptError(f"rule file row {row + 1}, column {names[j]!r}: {text!r} is not {kind}")
    return np.array(out)


def _bad_probs(probs: np.ndarray) -> np.ndarray:
    """Mask of what a rule file may not hold: stop probabilities outside [0, 1] (NaN
    too), or (rows, D) decision rows outside [0, 1] or not summing to 1 within NORM_ATOL."""
    bad = ~((probs >= 0.0) & (probs <= 1.0))
    if probs.ndim == 1:
        return bad
    return bad.any(axis=1) | (np.abs(probs.sum(axis=1) - 1.0) > NORM_ATOL)


def _strict_sides(stop_loss: np.ndarray, cont: np.ndarray) -> tuple:
    """Masks where stopping beats, and where it trails, continuing; else a tie.

    Sides are strict beyond TIE_RTOL times the larger magnitude: the values are
    density-scale, so an absolute margin would tie every state of low density.
    """
    diff = stop_loss - cont
    eps = TIE_RTOL * np.maximum(np.abs(stop_loss), np.abs(cont))
    return diff < -eps, diff > eps


def extract_rule(tables: ValueTables, tie_policy: str | float = "stop") -> StoppingRule:
    """Optimal stopping rule from solved tables.

    Stop where stop_loss < cont - eps, continue where stop_loss > cont + eps,
    with eps = TIE_RTOL * max(|stop_loss|, |cont|), and on ties apply
    `tie_policy`: "stop", "continue", or a float in [0, 1] used as the stop
    probability there. The final stage always stops.

    The rule keeps the tables' HistoryTable. While it lives, so do the shared
    state space and loss view (see bayes_decision), so `evaluate` and
    `simulate` of the rule under a problem of the same model reuse the
    space's densities, and under the same priors and loss the solve's stages,
    instead of building them again.
    """
    if isinstance(tie_policy, str):
        if tie_policy == "stop":
            gamma = 1.0
        elif tie_policy == "continue":
            gamma = 0.0
        else:
            raise SeqOptError(f"tie_policy must be 'stop', 'continue' or a float, got {tie_policy!r}")
    else:
        gamma = float(tie_policy)
        if not 0.0 <= gamma <= 1.0:
            raise SeqOptError(f"tie stop probability {gamma} outside [0, 1]")
    probs: list[np.ndarray] = []
    ties: list[np.ndarray] = []
    n_horizon = tables.horizon
    for n in range(1, n_horizon):
        stop, cont = _strict_sides(tables.table.stage(n).stop_loss, tables.cont[n])
        tie = ~stop & ~cont
        arr = np.where(stop, 1.0, np.where(tie, gamma, 0.0))
        probs.append(arr)
        ties.append(np.flatnonzero(tie))
    probs.append(np.ones(tables.table.space.n_states(n_horizon)))
    ties.append(np.array([], dtype=np.int64))
    rule = StoppingRule(tables.engine, probs, truncated=True, tie_states=ties)
    rule._table = tables.table
    return rule


def truncate_rule(rule: StoppingRule, horizon: int, space: StateSpace | None = None) -> StoppingRule:
    """Force a rule to stop by `horizon`: keep stages below it, set the last to 1.

    Truncating a rule already truncated at or below `horizon` appends
    vacuously-reached all-ones stages, which needs a state space for sizes.
    Idempotent: truncating twice at the same horizon changes nothing.
    """
    if horizon < 1:
        raise SeqOptError("horizon must be >= 1")
    probs = [rule.stop_probs[i].copy() for i in range(min(horizon - 1, rule.horizon))]
    if len(probs) < horizon - 1:
        if not rule.truncated:
            raise SeqOptError(
                f"rule only covers stages 1..{rule.horizon}, cannot truncate at {horizon}"
            )
        if space is None:
            raise SeqOptError("extending a truncated rule needs the state space for stage sizes")
        check_state_budget(space, horizon)
        for n in range(len(probs) + 1, horizon):
            probs.append(np.ones(space.n_states(n)))
    if space is not None:
        last = np.ones(space.n_states(horizon))
    elif rule.horizon >= horizon:
        last = np.ones_like(rule.stop_probs[horizon - 1])
    else:
        raise SeqOptError("extending a truncated rule needs the state space for stage sizes")
    probs.append(last)
    return StoppingRule(rule.engine, probs, truncated=True)


def reachable_sets(rule: StoppingRule, space: StateSpace) -> list[np.ndarray]:
    """Boolean mask per stage: states the rule reaches with positive weight.

    Reachability depends only on the rule: a state at stage n+1 is reachable
    iff some parent is reachable and the rule's stop probability there is
    strictly below 1. Every stage-1 state is reachable.
    """
    masks = [np.ones(space.n_states(1), dtype=bool)]
    for n in range(1, rule.horizon):
        masks.append(push_forward(space, n, masks[-1] & (rule.at(n) < 1.0), weighted=False))
    return masks


@dataclass(frozen=True)
class SandwichViolation:
    stage: int
    state: int
    label: str
    stop_loss: float
    continue_value: float
    stop_prob: float


def sandwich_check(rule: StoppingRule, tables: ValueTables) -> list[SandwichViolation]:
    """Violations of the optimal stop/continue pattern on the reachable set.

    A reachable state must stop (prob 1) where stopping is strictly cheaper,
    must continue (prob 0) where it is strictly dearer, and may do anything on
    a tie, with extract_rule's relative tie margin. Only stages with a
    continuation value are checked; the forced final stop of a truncated rule
    is structural.
    """
    if rule.horizon != tables.horizon:
        raise SeqOptError(
            f"rule horizon {rule.horizon} does not match tables horizon {tables.horizon}"
        )
    space = tables.table.space
    masks = reachable_sets(rule, space)
    out: list[SandwichViolation] = []
    for n in range(1, tables.horizon):
        st = tables.table.stage(n)
        cont = tables.cont[n]
        probs = rule.at(n)
        must_stop, must_cont = _strict_sides(st.stop_loss, cont)
        bad = masks[n - 1] & ((must_stop & (probs < 1.0)) | (must_cont & (probs > 0.0)))
        bad_states = np.flatnonzero(bad).tolist()
        labels = space.labels(n) if bad_states else []
        out += [
            SandwichViolation(
                n, i, labels[i], float(st.stop_loss[i]), float(cont[i]), float(probs[i])
            )
            for i in bad_states
        ]
    return out
