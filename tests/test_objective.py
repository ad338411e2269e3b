"""Cost, fitness and the per-instant error series."""

from __future__ import annotations

import numpy as np
import pytest

from romga import Grid, Target, TimeAxis, build_mask, fitness, l2_error_series
from romga.objective import FITNESS_GUARD

from masked_cost import cost


def _single_cell_target(n_steps=2):
    # centers of a 4x4 grid on [0,2]^2 sit at 0.25, 0.75, 1.25, 1.75;
    # the rectangle catches only the 0.75 center, weight dx*dy = 0.25
    grid = Grid(4, 4, 2.0, 2.0)
    mask = build_mask(grid, (0.5, 1.0, 0.5, 1.0))
    assert mask.n_cells == 1
    times = TimeAxis(n_steps, 1.0)
    return Target(np.zeros((1, n_steps)), mask, times)


def test_cost_of_a_single_cell_is_exact():
    target = _single_cell_target(n_steps=2)
    predicted = np.zeros((1, 2))
    predicted[0, 0] = 2.0
    # 0.25 * 2**2 / 2 steps, all powers of two
    assert cost(predicted, target) == 0.5
    assert cost(np.zeros((1, 2)), target) == 0.0


def test_cost_of_a_uniform_offset_matches_the_mask_area():
    grid = Grid(104, 104, 1.04, 1.04)
    mask = build_mask(grid, (0.1, 0.9, 0.15, 0.7))
    times = TimeAxis(3, 1.0)
    target = Target(np.full((mask.n_cells, 3), 20.0), mask, times)
    predicted = target.values + 1.0
    # 4400 cells * (0.01)**2 area * 1**2, identical at every instant
    assert cost(predicted, target) == pytest.approx(0.44, abs=1e-12)


def test_cost_scales_quadratically():
    target = _single_cell_target(n_steps=4)
    base = np.arange(4.0).reshape(1, 4)
    assert cost(3.0 * base, target) == pytest.approx(9.0 * cost(base, target), rel=1e-12)


def test_cost_rejects_shape_mismatch():
    target = _single_cell_target()
    with pytest.raises(ValueError):
        cost(np.zeros((2, 2)), target)


def test_target_validation():
    grid = Grid(4, 4, 2.0, 2.0)
    mask = build_mask(grid, (0.5, 1.0, 0.5, 1.0))
    times = TimeAxis(2, 1.0)
    with pytest.raises(ValueError):
        Target(np.zeros((2, 2)), mask, times)
    bad = np.zeros((1, 2))
    bad[0, 1] = np.nan
    with pytest.raises(ValueError):
        Target(bad, mask, times)


def test_fitness_is_monotone_with_a_guarded_pole():
    assert fitness(0.1) > fitness(0.2) > fitness(1.0)
    assert fitness(0.0) == pytest.approx(1.0 / FITNESS_GUARD, rel=1e-12)
    assert fitness(2.0) == pytest.approx(0.5, rel=1e-9)
    with pytest.raises(ValueError):
        fitness(-1e-9)


def test_error_series_hand_case():
    target = np.array([[3.0, 0.0], [4.0, 1.0]])       # column norms 5 and 1
    predicted = np.array([[6.0, 0.5], [8.0, 1.0]])    # diffs (3,4) and (0.5,0)
    series = l2_error_series(predicted, target)
    assert series.tolist() == [100.0, 50.0]


def test_error_series_is_zero_on_a_perfect_match(rng):
    target = rng.normal(size=(12, 5)) + 10.0
    assert np.all(l2_error_series(target, target) == 0.0)


def test_error_series_validation():
    target = np.array([[3.0, 0.0], [4.0, 0.0]])  # second column all zero
    with pytest.raises(ValueError):
        l2_error_series(target + 1.0, target)
    with pytest.raises(ValueError):
        l2_error_series(np.zeros((2, 3)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        l2_error_series(np.zeros(4), np.ones(4))
