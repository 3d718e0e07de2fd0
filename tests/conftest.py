"""Shared fixtures: small hand-checkable trees and default parameter sets."""
from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from fspm import DirectParams, HiddenParams, with_physio_ages
from test_ingest import topology_of

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture
def src_env() -> dict[str, str]:
    """Environment for child Python processes that import the package from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def dp3() -> DirectParams:
    """Three-PA parameter set at field-data magnitudes."""
    return DirectParams(
        p_int={1: 0.561, 2: 0.726, 3: 0.858},
        allometry={1: (5.0, 0.3), 2: (7.0, 0.35), 3: (9.0, 0.4)},
        slw=0.0287,
    )


@pytest.fixture
def hp_default() -> HiddenParams:
    return HiddenParams(q0=10.0, rp=6.4319, pc=0.13882)


def two_axis_tree(tree_id: str = "T"):
    """Root (PA1) with GUs at cycles 1..2, child (PA2) with one 4-internode GU at 2."""
    axes = [
        (tree_id, "A1", None, None),
        (tree_id, "A2", "A1", 1),
    ]
    gus = [
        (tree_id, "A1", 1, 3, 3),
        (tree_id, "A1", 2, 5, 5),
        (tree_id, "A2", 2, 4, 4),
    ]
    t = topology_of(axes, gus)
    return with_physio_ages(t, {"A1": 1, "A2": 2})


@pytest.fixture
def small_tree():
    return two_axis_tree()


@pytest.fixture
def late_root():
    """One PA1 axis whose first GU is at cycle 2: on cycle 1 the seed mass
    finds no organ to take it."""
    t = topology_of([("Z", "A1", None, None)], [("Z", "A1", 2, 2), ("Z", "A1", 3, 1)])
    return with_physio_ages(t, {"A1": 1})
