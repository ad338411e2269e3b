"""Shared fixtures: a small analytic-plume benchmark ensemble.

The benchmark is deliberately desk-scale (40x40 grid, 60 instants, five
training parameters 0.05 apart) so the whole suite stays fast while still
exercising every stage of the pipeline on smooth, genuinely parametric data.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from romga import (
    Grid,
    PlumeParams,
    TimeAxis,
    analytic_plume,
    build_mask,
    compress_ensemble,
    project_target,
)

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

PLUME_DELTAS = (0.30, 0.35, 0.40, 0.45, 0.50)
PLUME_SIGMA = 0.3
PLUME_Q = 10


@pytest.fixture(scope="session")
def plume_grid():
    return Grid(40, 40, 1.04, 1.04)


@pytest.fixture(scope="session")
def plume_times():
    return TimeAxis(60, 10.0)


@pytest.fixture(scope="session")
def plume_matrices(plume_grid, plume_times):
    return [
        analytic_plume(PlumeParams(d, sigma=PLUME_SIGMA), plume_grid, plume_times)
        for d in PLUME_DELTAS
    ]


@pytest.fixture(scope="session")
def plume_db(plume_matrices):
    return compress_ensemble(plume_matrices, q=PLUME_Q)


@pytest.fixture(scope="session")
def plume_target(plume_grid, plume_times):
    """The plume at 0.4, the truth a search is to recover."""
    return analytic_plume(PlumeParams(0.4, sigma=0.3), plume_grid, plume_times)


@pytest.fixture(scope="session")
def plume_rows(plume_grid):
    """The cells of the default observation window."""
    return build_mask(plume_grid, (0.1, 0.9, 0.15, 0.7))


@pytest.fixture(scope="session")
def plume_projection(plume_db, plume_target, plume_rows):
    return project_target(plume_db, plume_target, plume_rows)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
