"""Cost and the per-instant error series."""

from __future__ import annotations

import numpy as np
import pytest

from romga import Grid, build_mask, l2_error_series

from masked_cost import cost


def _single_cell_target(n_steps=2):
    """A zero target over the one observed cell of a 4x4 grid, and its weight."""
    # centers of a 4x4 grid on [0,2]^2 sit at 0.25, 0.75, 1.25, 1.75;
    # the rectangle catches only the 0.75 center, weight dx*dy = 0.25
    rows = build_mask(Grid(4, 4, 2.0, 2.0), (0.5, 1.0, 0.5, 1.0))
    assert rows.size == 1
    return np.zeros((1, n_steps)), np.array([0.25])


def test_cost_of_a_single_cell_is_exact():
    target, weights = _single_cell_target(n_steps=2)
    predicted = np.zeros((1, 2))
    predicted[0, 0] = 2.0
    # 0.25 * 2**2 / 2 steps, all powers of two
    assert cost(predicted, target, weights) == 0.5
    assert cost(np.zeros((1, 2)), target, weights) == 0.0


def test_cost_of_a_uniform_offset_matches_the_mask_area():
    grid = Grid(104, 104, 1.04, 1.04)
    rows = build_mask(grid, (0.1, 0.9, 0.15, 0.7))
    target = np.full((rows.size, 3), 20.0)
    weights = np.full(rows.size, grid.cell_area)
    # 4400 cells * (0.01)**2 area * 1**2, identical at every instant
    assert cost(target + 1.0, target, weights) == pytest.approx(0.44, abs=1e-12)


def test_cost_scales_quadratically():
    target, weights = _single_cell_target(n_steps=4)
    base = np.arange(4.0).reshape(1, 4)
    assert cost(3.0 * base, target, weights) == pytest.approx(
        9.0 * cost(base, target, weights), rel=1e-12
    )


def test_cost_rejects_shape_mismatch():
    target, weights = _single_cell_target()
    with pytest.raises(ValueError):
        cost(np.zeros((2, 2)), target, weights)


def test_error_series_hand_case():
    target = np.array([[3.0, 0.0], [4.0, 1.0]])       # column norms 5 and 1
    predicted = np.array([[6.0, 0.5], [8.0, 1.0]])    # diffs (3,4) and (0.5,0)
    series = l2_error_series(predicted, target)
    assert series.tolist() == [100.0, 50.0]


def test_error_series_is_zero_on_a_perfect_match(rng):
    target = rng.normal(size=(12, 5)) + 10.0
    assert np.all(l2_error_series(target, target) == 0.0)


def test_error_series_ignores_memory_order(rng):
    # a column summed in another order rounds differently; C and F copies of
    # one pair must give the same bits
    target = rng.normal(size=(2304, 6)) * np.logspace(0, 6, 2304)[:, None] + 20.0
    predicted = target + rng.normal(size=target.shape) * 1e-2
    want = l2_error_series(np.asfortranarray(predicted), np.asfortranarray(target))
    for order in ("C", "F"):
        for other in ("C", "F"):
            got = l2_error_series(np.asarray(predicted, order=order), np.asarray(target, order=other))
            assert np.array_equal(got, want), (order, other)


def test_error_series_validation():
    target = np.array([[3.0, 0.0], [4.0, 0.0]])  # second column all zero
    with pytest.raises(ValueError):
        l2_error_series(target + 1.0, target)
    with pytest.raises(ValueError):
        l2_error_series(np.zeros((2, 3)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        l2_error_series(np.zeros(4), np.ones(4))
