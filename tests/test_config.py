import json
import re
from pathlib import Path

import numpy as np
import pytest

import seqopt as so
from seqopt.config import load_problem, problem_to_dict

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def base_doc() -> dict:
    return json.loads((CONFIGS / "two_channel.json").read_text())


def test_load_reference_config():
    p = load_problem(CONFIGS / "two_channel.json")
    assert p.params.labels == ("theta1", "theta2")
    assert p.alphabet_size == 2
    assert np.allclose(p.obs.iid_pmf, [[0.8, 0.2], [0.3, 0.7]])
    assert p.cost.c == 0.02
    assert p.constraints.bounds == (0.18, 0.045)
    assert p.constraints.multipliers == (1.0, 1.0)
    assert so.solve_truncated(p, 2).q0 == pytest.approx(0.256, abs=1e-12)


def test_load_from_dict_and_round_trip():
    doc = base_doc()
    p = load_problem(doc)
    doc2 = problem_to_dict(p)
    p2 = load_problem(doc2)
    assert problem_to_dict(p2) == doc2


def test_kernel_config_round_trip():
    p = load_problem(CONFIGS / "markov_burst.json")
    assert p.obs.kind == "dependent"
    assert p.obs.horizon == 3
    assert p.obs.conditional_pmf(1, (1,)) == pytest.approx((0.3, 0.7))
    doc = problem_to_dict(p)
    p2 = load_problem(doc)
    assert problem_to_dict(p2) == doc


def test_bare_loss_matrix_gets_default_labels():
    p = load_problem(base_doc())
    assert p.loss.decisions == ("d1", "d2")


def test_loss_object_form():
    doc = base_doc()
    doc["loss"] = {"decisions": ["accept", "reject"], "w": [[0.0, 2.0], [1.0, 0.0]]}
    p = load_problem(doc)
    assert p.loss.decisions == ("accept", "reject")
    assert p.loss.w[0, 1] == 2.0


@pytest.mark.parametrize("key", ["parameters", "alphabet_size", "model", "loss", "pi1", "pi2", "cost"])
def test_missing_required_key(key):
    doc = base_doc()
    del doc[key]
    with pytest.raises(so.ConfigError, match=key):
        load_problem(doc)


def test_wrong_schema_version():
    doc = base_doc()
    doc["schema_version"] = 99
    with pytest.raises(so.ConfigError, match="schema_version"):
        load_problem(doc)


def test_bad_pmf_shape():
    doc = base_doc()
    doc["model"]["pmf"] = [[0.8, 0.2]]
    with pytest.raises(so.ConfigError, match="pmf"):
        load_problem(doc)


def test_unknown_group_label():
    doc = base_doc()
    doc["constraints"]["groups"] = [["theta1"], ["nope"]]
    with pytest.raises(so.ConfigError):
        load_problem(doc)


def test_validation_errors_surface():
    doc = base_doc()
    doc["model"]["pmf"] = [[0.9, 0.2], [0.3, 0.7]]
    with pytest.raises(so.InvalidProblemError):
        load_problem(doc)


def test_unreadable_file(tmp_path):
    with pytest.raises(so.ConfigError, match="cannot read"):
        load_problem(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(so.ConfigError, match="JSON"):
        load_problem(bad)


def test_bytes_load_as_their_file_does(tmp_path):
    data = (CONFIGS / "two_channel.json").read_bytes()
    assert problem_to_dict(load_problem(data)) == problem_to_dict(
        load_problem(CONFIGS / "two_channel.json")
    )
    # A byte that is not UTF-8 once raised a bare UnicodeDecodeError.
    bad = tmp_path / "latin.json"
    bad.write_bytes(b'{"cost": "\xff"}')
    not_utf8 = "is not valid JSON: 'utf-8' codec can't decode byte 0xff"
    with pytest.raises(so.ConfigError, match=re.escape(f"{bad} {not_utf8}")):
        load_problem(bad)
    with pytest.raises(so.ConfigError, match=f"problem description {not_utf8}"):
        load_problem(bad.read_bytes())
    with pytest.raises(so.ConfigError, match="problem description is not valid JSON"):
        load_problem(b"{not json")


def test_kernel_requires_root_pmf():
    doc = json.loads((CONFIGS / "markov_burst.json").read_text())
    del doc["model"]["kernel"]["calm"][""]
    with pytest.raises(so.ConfigError, match="root"):
        load_problem(doc)


def test_non_numeric_cost_rejected():
    doc = base_doc()
    doc["cost"] = "cheap"
    with pytest.raises(so.ConfigError, match="cost"):
        load_problem(doc)
