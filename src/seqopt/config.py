"""JSON problem descriptions.

Schema (all probabilities plain lists; schema_version must be 1):

    {
      "schema_version": 1,
      "parameters": ["theta1", "theta2"],
      "alphabet_size": 2,
      "model": {"kind": "iid", "pmf": [[0.8, 0.2], [0.3, 0.7]]},
      "loss": [[0.0, 1.0], [1.0, 0.0]],
      "pi1": [0.5, 0.5],
      "pi2": [0.5, 0.5],
      "cost": 0.02,
      "constraints": {"groups": [["theta1"], ["theta2"]],
                      "bounds": [0.18, 0.045],
                      "multipliers": [1.0, 1.0]}
    }

"loss" may also be an object {"decisions": [...], "w": [[...]]} when decision
labels matter. Dependent models use kind "kernel" with a finite horizon and an
explicit table: {"kind": "kernel", "horizon": 3, "kernel": {"theta1":
{"": [0.8, 0.2], "0": [...], "1": [...], "0,1": [...]}}} where each key is the
comma-joined history and each value the next-symbol pmf.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError
from .model import (
    ConstraintSpec,
    CostSpec,
    LossSpec,
    ObservationModel,
    ParameterSpace,
    Priors,
    Problem,
    validate_problem,
)

SCHEMA_VERSION = 1


def _need(doc: dict, key: str) -> Any:
    if key not in doc:
        raise ConfigError(f"missing required key: {key}")
    return doc[key]


def _as_float_list(value: Any, key: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
    ):
        raise ConfigError(f"{key} must be a list of numbers")
    return [float(v) for v in value]


def _as_matrix(value: Any, key: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{key} must be a non-empty list of rows")
    rows = [_as_float_list(row, f"{key} row") for row in value]
    if len({len(r) for r in rows}) != 1:
        raise ConfigError(f"{key} rows must all have the same length")
    return np.asarray(rows, dtype=float)


def load_problem(source: str | Path | bytes | dict) -> Problem:
    """Build and validate a Problem from a JSON file path, UTF-8 JSON bytes or a parsed dict.

    A path's file is read as bytes and parsed as given bytes are. An unreadable
    file, or bytes that are not UTF-8 JSON, raise ConfigError naming the path.
    """
    doc, name = source, "problem description"
    try:
        if isinstance(source, (str, Path)):
            name = str(source)
            source = Path(source).read_bytes()
        if isinstance(source, bytes):
            doc = json.loads(source.decode("utf-8"))
    except OSError as e:
        raise ConfigError(f"cannot read {name}: {e}") from e
    except ValueError as e:  # a UnicodeDecodeError or a json.JSONDecodeError
        raise ConfigError(f"{name} is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("problem description must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")

    labels = _need(doc, "parameters")
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise ConfigError("parameters must be a list of strings")
    params = ParameterSpace(tuple(labels))
    alphabet = _need(doc, "alphabet_size")
    if not isinstance(alphabet, int) or alphabet < 1:
        raise ConfigError("alphabet_size must be a positive integer")

    model_doc = _need(doc, "model")
    if not isinstance(model_doc, dict):
        raise ConfigError("model must be an object")
    kind = model_doc.get("kind", "iid")
    if kind == "iid":
        pmf = _as_matrix(_need(model_doc, "pmf"), "model.pmf")
        if pmf.shape != (params.size, alphabet):
            raise ConfigError(
                f"model.pmf must be {params.size} x {alphabet}, got {pmf.shape[0]} x {pmf.shape[1]}"
            )
        obs = ObservationModel(alphabet_size=alphabet, kind="iid", iid_pmf=pmf)
    elif kind == "kernel":
        horizon = _need(model_doc, "horizon")
        if not isinstance(horizon, int) or horizon < 1:
            raise ConfigError("model.horizon must be a positive integer")
        raw = _need(model_doc, "kernel")
        if not isinstance(raw, dict):
            raise ConfigError("model.kernel must map parameter labels to history tables")
        table: dict[tuple[int, tuple[int, ...]], tuple[float, ...]] = {}
        for label, rows in raw.items():
            if label not in params.labels:
                raise ConfigError(f"model.kernel has unknown parameter {label!r}")
            if not isinstance(rows, dict):
                raise ConfigError(f"model.kernel[{label!r}] must be an object")
            t = params.index(label)
            for hist_key, pmf_row in rows.items():
                try:
                    hist = tuple(int(v) for v in hist_key.split(",")) if hist_key else ()
                except ValueError:
                    raise ConfigError(
                        f"bad history key {hist_key!r} in model.kernel[{label!r}]"
                    ) from None
                table[(t, hist)] = tuple(_as_float_list(pmf_row, "kernel pmf"))
        missing = [
            label
            for label in params.labels
            if (params.index(label), ()) not in table
        ]
        if missing:
            raise ConfigError(f"model.kernel lacks a root pmf for: {', '.join(missing)}")
        obs = ObservationModel(
            alphabet_size=alphabet, kind="dependent", kernel=table, horizon=horizon
        )
    else:
        raise ConfigError(f"unknown model.kind {kind!r}")

    loss_doc = _need(doc, "loss")
    if isinstance(loss_doc, dict):
        w = _as_matrix(_need(loss_doc, "w"), "loss.w")
        decisions = _need(loss_doc, "decisions")
        if not isinstance(decisions, list) or len(decisions) != w.shape[1]:
            raise ConfigError("loss.decisions must label every column of loss.w")
        loss = LossSpec(tuple(str(d) for d in decisions), w)
    else:
        w = _as_matrix(loss_doc, "loss")
        loss = LossSpec(tuple(f"d{j + 1}" for j in range(w.shape[1])), w)
    if w.shape[0] != params.size:
        raise ConfigError(f"loss must have {params.size} rows, got {w.shape[0]}")

    pi1 = np.asarray(_as_float_list(_need(doc, "pi1"), "pi1"))
    pi2 = np.asarray(_as_float_list(_need(doc, "pi2"), "pi2"))
    cost = _need(doc, "cost")
    if isinstance(cost, bool) or not isinstance(cost, (int, float)):
        raise ConfigError("cost must be a number")

    constraints = None
    if doc.get("constraints") is not None:
        c_doc = doc["constraints"]
        if not isinstance(c_doc, dict):
            raise ConfigError("constraints must be an object")
        raw_groups = _need(c_doc, "groups")
        if not isinstance(raw_groups, list) or not raw_groups:
            raise ConfigError("constraints.groups must be a non-empty list")
        groups = []
        for grp in raw_groups:
            if not isinstance(grp, list) or not grp:
                raise ConfigError("each constraint group must be a non-empty list of labels")
            try:
                groups.append(tuple(params.index(str(label)) for label in grp))
            except ValueError as e:
                raise ConfigError(str(e)) from None
        bounds = tuple(_as_float_list(_need(c_doc, "bounds"), "constraints.bounds"))
        multipliers = None
        if c_doc.get("multipliers") is not None:
            multipliers = tuple(
                _as_float_list(c_doc["multipliers"], "constraints.multipliers")
            )
        constraints = ConstraintSpec(tuple(groups), bounds, multipliers)

    problem = Problem(
        params=params,
        obs=obs,
        loss=loss,
        priors=Priors(pi1, pi2),
        cost=CostSpec(float(cost)),
        constraints=constraints,
    )
    validate_problem(problem)
    return problem


def problem_to_dict(p: Problem) -> dict:
    """Inverse of load_problem for iid and table-kernel models."""
    if p.obs.kind == "iid":
        model: dict[str, Any] = {"kind": "iid", "pmf": p.obs.iid_pmf.tolist()}
    elif isinstance(p.obs.kernel, dict):
        kernel: dict[str, dict[str, list[float]]] = {lbl: {} for lbl in p.params.labels}
        for (t, hist), pmf in p.obs.kernel.items():
            kernel[p.params.labels[t]][",".join(str(x) for x in hist)] = list(pmf)
        model = {"kind": "kernel", "horizon": p.obs.horizon, "kernel": kernel}
    else:
        raise ConfigError("callable kernels have no JSON form")
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "parameters": list(p.params.labels),
        "alphabet_size": p.obs.alphabet_size,
        "model": model,
        "loss": {"decisions": list(p.loss.decisions), "w": p.loss.w.tolist()},
        "pi1": p.priors.pi1.tolist(),
        "pi2": p.priors.pi2.tolist(),
        "cost": p.cost.c,
    }
    if p.constraints is not None:
        doc["constraints"] = {
            "groups": [
                [p.params.labels[t] for t in grp] for grp in p.constraints.groups
            ],
            "bounds": list(p.constraints.bounds),
        }
        if p.constraints.multipliers is not None:
            doc["constraints"]["multipliers"] = list(p.constraints.multipliers)
    return doc
