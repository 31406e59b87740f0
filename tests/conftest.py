import os

import numpy as np
import pytest
from hypothesis import settings

import seqopt as so

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# that fails in CI fails the same way locally. Example counts stay each test's.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def instance_b() -> so.Problem:
    """Two-channel reference instance with hand-checked values."""
    return so.iid_problem(
        pmf=[[0.8, 0.2], [0.3, 0.7]],
        loss=so.zero_one_loss(2),
        pi1=[0.5, 0.5],
        pi2=[0.5, 0.5],
        cost=0.02,
        groups=((0,), (1,)),
        bounds=(0.18, 0.045),
    )


@pytest.fixture
def symmetric() -> so.Problem:
    return so.iid_problem(
        pmf=[[0.7, 0.3], [0.3, 0.7]],
        loss=so.zero_one_loss(2),
        pi1=[0.5, 0.5],
        pi2=[0.5, 0.5],
        cost=0.01,
        groups=((0,), (1,)),
        bounds=(0.05, 0.05),
    )


@pytest.fixture
def uninformative() -> so.Problem:
    """Identical pmfs under both parameters: observations are worthless."""
    return so.iid_problem(
        pmf=[[0.5, 0.5], [0.5, 0.5]],
        loss=so.zero_one_loss(2),
        pi1=[0.5, 0.5],
        pi2=[0.5, 0.5],
        cost=0.05,
    )


def random_instance(rng: np.random.Generator, m: int | None = None, k: int = 2):
    """Random problem with pmfs bounded away from zero.

    Returns (problem, raw) where raw holds plain-Python copies for the
    reference implementations in oracle.py.
    """
    if m is None:
        m = int(rng.integers(2, 4))
    pmf = rng.uniform(0.05, 1.0, size=(m, k))
    pmf /= pmf.sum(axis=1, keepdims=True)
    pi1 = rng.uniform(0.1, 1.0, size=m)
    pi1 /= pi1.sum()
    pi2 = rng.uniform(0.1, 1.0, size=m)
    pi2 /= pi2.sum()
    w = so.zero_one_loss(m) * rng.uniform(0.5, 2.0, size=(m, 1))
    c = float(np.exp(rng.uniform(np.log(0.005), np.log(0.2))))
    problem = so.iid_problem(pmf=pmf, loss=w, pi1=pi1, pi2=pi2, cost=c)
    raw = {
        "pmf": pmf.tolist(),
        "pi1": pi1.tolist(),
        "pi2": pi2.tolist(),
        "w": w.tolist(),
        "c": c,
    }
    return problem, raw


@pytest.fixture
def make_random_instance():
    return random_instance
