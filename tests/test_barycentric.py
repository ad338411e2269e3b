"""Neighbor selection, Lagrange weights, Procrustes alignment, fixed point."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from romga import (
    FixedPointConfig,
    Grid,
    InterpolationRequest,
    ParamKind,
    PlumeParams,
    SnapshotMatrix,
    TimeAxis,
    analytic_plume,
    compress_ensemble,
    interpolate_reduced,
    lagrange_weights,
    procrustes_align,
    reconstruct_field,
    select_neighbors,
)

PARAMS = np.array([0.2, 0.3, 0.4, 0.5, 0.6])


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


# ---------------------------------------------------------------- neighbors


def test_neighbor_selection_frozen_cases():
    assert select_neighbors(PARAMS, 0.44, 2).tolist() == [2, 3]
    # 0.3 is 0.14 away, closer than 0.6 at 0.16
    assert select_neighbors(PARAMS, 0.44, 3).tolist() == [1, 2, 3]
    assert select_neighbors(PARAMS, 0.21, 2).tolist() == [0, 1]
    assert select_neighbors(PARAMS, 0.4, 1).tolist() == [2]
    assert select_neighbors(PARAMS, 0.4, 5).tolist() == [0, 1, 2, 3, 4]


def test_neighbor_ties_prefer_the_smaller_value():
    # 0.375 sits exactly between 0.25 and 0.5 in binary floating point
    assert select_neighbors([0.25, 0.5, 0.75], 0.375, 1).tolist() == [0]
    assert select_neighbors([0.25, 0.5, 0.75], 0.375, 2).tolist() == [0, 1]


def test_neighbor_selection_validation():
    with pytest.raises(ValueError):
        select_neighbors(PARAMS, 0.4, 0)
    with pytest.raises(ValueError):
        select_neighbors(PARAMS, 0.4, 6)
    with pytest.raises(ValueError):
        select_neighbors([], 0.4, 1)


# ---------------------------------------------------------------- weights


def test_lagrange_weights_frozen_values():
    w = lagrange_weights([0.0, 1.0, 2.0], 0.5)
    assert w.tolist() == [0.375, 0.75, -0.125]
    w = lagrange_weights([0.51, 0.627], 0.54)
    assert w[0] == pytest.approx(29.0 / 39.0, rel=1e-12)
    assert w[1] == pytest.approx(10.0 / 39.0, rel=1e-12)


def test_lagrange_weights_collapse_on_a_node():
    w = lagrange_weights([0.3, 0.5, 0.9], 0.5)
    assert np.array_equal(w, [0.0, 1.0, 0.0])


def test_lagrange_weights_reject_duplicates():
    with pytest.raises(ValueError):
        lagrange_weights([0.3, 0.3, 0.5], 0.4)
    with pytest.raises(ValueError):
        lagrange_weights([], 0.4)


@given(
    start=st.floats(-2.0, 2.0),
    gaps=st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4),
    position=st.floats(0.0, 1.0),
)
def test_lagrange_weights_are_a_partition_of_unity(start, gaps, position):
    nodes = start + np.concatenate([[0.0], np.cumsum(gaps)])
    delta = nodes[0] + position * (nodes[-1] - nodes[0])
    w = lagrange_weights(nodes, delta)
    assert abs(float(w.sum()) - 1.0) <= 1e-12


# ---------------------------------------------------------------- alignment


def test_procrustes_recovers_an_exact_rotation(rng):
    ref = rng.normal(size=(9, 4))
    g = random_orthogonal(rng, 4)
    q = procrustes_align(ref, ref @ g)
    assert np.abs((ref @ g) @ q - ref).max() < 1e-10
    assert np.abs(q - g.T).max() < 1e-10
    with pytest.raises(ValueError):
        procrustes_align(ref, np.zeros((8, 4)))


def test_procrustes_rotation_is_always_orthogonal(rng):
    for _ in range(20):
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(7, 3))
        q = procrustes_align(a, b)
        assert np.abs(q.T @ q - np.eye(3)).max() < 1e-10


# ---------------------------------------------------------------- queries


def test_query_on_a_training_node_reproduces_its_blocks(plume_db):
    node = plume_db.spatial_blocks[2] @ plume_db.temporal_blocks[2].T
    result = interpolate_reduced(plume_db, InterpolationRequest(0.40, 3, 3, 10))
    rel = np.linalg.norm(result.reduced - node) / np.linalg.norm(node)
    assert rel <= 1e-8
    assert result.converged
    # the error first exists after the second sweep, and a node query has
    # already stopped moving by then
    assert result.iterations == 2


def test_midway_query_tracks_the_generating_family(plume_db, plume_grid, plume_times):
    result = interpolate_reduced(plume_db, InterpolationRequest(0.375, 3, 3, 10))
    assert result.converged
    predicted = reconstruct_field(plume_db, result.reduced)
    truth = analytic_plume(PlumeParams(0.375, sigma=0.3), plume_grid, plume_times).values
    rel = np.linalg.norm(predicted - truth) / np.linalg.norm(truth)
    assert rel <= 0.05


def test_query_ignores_the_rotation_of_each_stored_block_pair(plume_db):
    # Each sample's blocks are only defined up to one orthogonal change of
    # columns shared by its spatial and temporal block: S_k G_k (K_k G_k)^T is
    # the same sample. The alignment must absorb every G_k; an unaligned
    # weighted sum of the blocks would not.
    rng = np.random.default_rng(2024)
    spins = [random_orthogonal(rng, plume_db.q) for _ in plume_db.params]
    spun_db = dataclasses.replace(
        plume_db,
        spatial_blocks=[b @ g for b, g in zip(plume_db.spatial_blocks, spins)],
        temporal_blocks=[b @ g for b, g in zip(plume_db.temporal_blocks, spins)],
    )
    for delta, ne in ((0.34, 3), (0.42, 4), (0.475, 2)):
        request = InterpolationRequest(delta, ne, ne, plume_db.q)
        plain = interpolate_reduced(plume_db, request).reduced
        spun = interpolate_reduced(spun_db, request).reduced
        assert np.linalg.norm(spun - plain) <= 1e-8 * np.linalg.norm(plain), delta


def test_query_results_are_deterministic(plume_db):
    request = InterpolationRequest(0.42, 4, 3, 8)
    a = interpolate_reduced(plume_db, request)
    b = interpolate_reduced(plume_db, request)
    assert np.array_equal(a.reduced, b.reduced)
    assert (a.iterations, a.final_error, a.converged) == (
        b.iterations,
        b.final_error,
        b.converged,
    )


def test_reduced_matrix_is_the_factor_product(plume_db):
    result = interpolate_reduced(plume_db, InterpolationRequest(0.33, 2, 2, 6))
    assert np.array_equal(result.reduced, result.spatial_factor @ result.temporal_factor.T)
    assert result.spatial_factor.shape == (plume_db.r, 6)
    assert result.temporal_factor.shape == (plume_db.s, 6)


def _random_db(seed=7):
    rng = np.random.default_rng(seed)
    grid = Grid(6, 5, 1.0, 1.0)
    times = TimeAxis(8, 1.0)
    mats = [
        SnapshotMatrix(grid, times, ParamKind.SYNTHETIC, v, rng.normal(size=(30, 8)))
        for v in (0.0, 0.5, 1.0)
    ]
    return compress_ensemble(mats, q=5)


def test_iteration_cap_is_respected_and_reported():
    # unrelated random samples give the alignment loop nothing to settle on
    db = _random_db()
    result = interpolate_reduced(
        db,
        InterpolationRequest(0.25, 3, 3, 4),
        FixedPointConfig(epsilon=1e-30, max_iters=3),
    )
    assert result.iterations == 3
    assert not result.converged
    assert np.isfinite(result.final_error)
    with pytest.raises(ValueError):
        FixedPointConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        FixedPointConfig(max_iters=0)


def test_request_validation(plume_db):
    with pytest.raises(ValueError):
        interpolate_reduced(plume_db, InterpolationRequest(0.4, 1, 3, 5))
    with pytest.raises(ValueError):
        interpolate_reduced(plume_db, InterpolationRequest(0.4, 3, 6, 5))
    with pytest.raises(ValueError):
        interpolate_reduced(plume_db, InterpolationRequest(0.4, 3, 3, 0))
    with pytest.raises(ValueError):
        interpolate_reduced(plume_db, InterpolationRequest(0.4, 3, 3, 11))
    with pytest.raises(ValueError):
        interpolate_reduced(plume_db, InterpolationRequest(0.29, 3, 3, 5))
    with pytest.raises(ValueError):
        interpolate_reduced(plume_db, InterpolationRequest(0.51, 3, 3, 5))


# ---------------------------------------------------------------- lifting


def test_reconstruction_matches_the_level_one_product(rng):
    grid = Grid(6, 4, 1.0, 1.0)
    times = TimeAxis(9, 2.0)
    matrix = SnapshotMatrix(
        grid, times, ParamKind.SYNTHETIC, 0.5, rng.normal(size=(24, 9))
    )
    db = compress_ensemble([matrix], q=9)
    reduced = db.spatial_blocks[0] @ db.temporal_blocks[0].T
    u, sv, vt = np.linalg.svd(matrix.values, full_matrices=False)
    rank_q = (u[:, :9] * sv[:9]) @ vt[:9]
    lifted = reconstruct_field(db, reduced)
    assert np.linalg.norm(lifted - rank_q) <= 1e-10 * np.linalg.norm(matrix.values)


def test_reconstruction_slicing_matches_the_full_field(plume_db):
    result = interpolate_reduced(plume_db, InterpolationRequest(0.41, 3, 3, 10))
    full = reconstruct_field(plume_db, result.reduced)
    rows = np.array([0, 5, 1599, 800])
    cols = np.array([0, 59, 30])
    window = reconstruct_field(plume_db, result.reduced, rows=rows, cols=cols)
    # sliced operands take a different BLAS path than slicing the product,
    # so agreement is to rounding, not bitwise
    assert np.allclose(window, full[np.ix_(rows, cols)], rtol=1e-12, atol=1e-12)


def test_reconstruction_validates_inputs(plume_db):
    with pytest.raises(ValueError):
        reconstruct_field(plume_db, np.zeros((3, 3)))
    reduced = np.zeros((plume_db.r, plume_db.s))
    with pytest.raises(ValueError):
        reconstruct_field(plume_db, reduced, rows=np.array([1600]))
    with pytest.raises(ValueError):
        reconstruct_field(plume_db, reduced, cols=np.array([-1]))
