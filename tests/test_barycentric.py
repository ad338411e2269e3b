"""Neighbor selection, Lagrange weights, Procrustes alignment, interpolation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from romga import (
    Grid,
    cli,
    ParamKind,
    PlumeParams,
    SnapshotMatrix,
    TimeAxis,
    analytic_plume,
    compress_ensemble,
    interpolate_reduced,
    lagrange_weights,
    procrustes_align,
    read_rom,
    reconstruct_field,
    reconstruct_sample,
)
from romga.barycentric import _window

PARAMS = np.array([0.2, 0.3, 0.4, 0.5, 0.6])


def _nearest_first(params, delta):
    """Reference order: all indices, nearest by float64 distance first, ties to the smaller value."""
    return np.lexsort((params, np.abs(params - delta)))


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


def reduced_matrix(result):
    """The (r, s) product of an interpolated factor pair."""
    return result.spatial_factor @ result.temporal_factor.T


# ---------------------------------------------------------------- neighbors


def _neighbor_choice(db, delta, ne_x, ne_t, m=2):
    """(nearest sample, spatial neighbors, temporal neighbors) a query aligned.

    Read from a fresh dict: its tables sit under (side, nearest, m), and a
    table's filled rows are the query's neighbors.
    """
    aligned: dict = {}
    interpolate_reduced(db, delta, ne_x=ne_x, ne_t=ne_t, m=m, aligned=aligned)
    (nearest,) = {j for _, j, _ in aligned}
    side = {s: sorted(filled) for (s, _, _), (_, filled) in aligned.items()}
    return nearest, side["x"], side["t"]


def test_neighbor_selection_frozen_cases():
    assert _nearest_first(PARAMS, 0.44).tolist() == [2, 3, 1, 4, 0]
    assert _nearest_first(PARAMS, 0.21).tolist() == [0, 1, 2, 3, 4]
    assert _nearest_first(PARAMS, 0.4)[0] == 2
    db = _random_db(params=PARAMS)
    assert _neighbor_choice(db, 0.44, 2, 2) == (2, [2, 3], [2, 3])
    # 0.3 is 0.14 away, closer than 0.6 at 0.16
    assert _neighbor_choice(db, 0.44, 3, 2) == (2, [1, 2, 3], [2, 3])
    assert _neighbor_choice(db, 0.21, 2, 3) == (0, [0, 1], [0, 1, 2])
    # in binary floating point 0.5 lies nearer to 0.4 than 0.3 does
    assert _neighbor_choice(db, 0.4, 5, 2) == (2, [0, 1, 2, 3, 4], [2, 3])


def test_neighbor_ties_prefer_the_smaller_value():
    # 0.375 sits exactly between 0.25 and 0.5 in binary floating point
    assert _nearest_first(np.array([0.25, 0.5, 0.75]), 0.375).tolist() == [0, 1, 2]
    db = _random_db(params=(0.25, 0.5, 0.75))
    assert _neighbor_choice(db, 0.375, 2, 2) == (0, [0, 1], [0, 1])
    assert _neighbor_choice(db, 0.625, 2, 3) == (1, [1, 2], [0, 1, 2])


def test_the_neighbors_skip_no_nearer_sample():
    # 0 and 1e-300 both lie 0.9 from the query as float64 distances; the
    # neighbor pair of the nearest sample 1.0 is 1e-300, which is strictly
    # nearer, not 0 as a sort by rounded distance and then value has it
    db = _random_db(params=(0.0, 1e-300, 1.0))
    result = interpolate_reduced(db, 0.9, ne_x=2, ne_t=2, m=3)
    weights = lagrange_weights([1e-300, 1.0], 0.9)
    for factor, blocks in ((result.spatial_factor, db.spatial_blocks),
                           (result.temporal_factor, db.temporal_blocks)):
        reference, block = blocks[2, :, :3], blocks[1, :, :3]
        rows = np.stack([(block @ procrustes_align(reference, block)).ravel(), reference.ravel()])
        assert np.array_equal(factor, (weights @ rows).reshape(-1, 3))
    assert _neighbor_choice(db, 0.9, 2, 2) == (2, [1, 2], [1, 2])


def test_the_frame_is_the_nearest_sample_where_distances_round_equal():
    # 0 and 1e-300 both lie 0.05 from the query as float64 distances, but
    # 1e-300 is strictly nearer: the tables are keyed by it, not by 0 as a
    # sort by rounded distance and then value has it
    db = _random_db(params=(0.0, 1e-300, 1.0))
    assert _neighbor_choice(db, 0.05, 2, 2) == (1, [0, 1], [0, 1])


@given(
    st.lists(
        st.one_of(st.floats(-1.0, 1.0), st.sampled_from((0.0, 5e-324, 1e-300, 0.25, 0.5, 0.75))),
        min_size=2,
        max_size=8,
    ),
    st.data(),
)
def test_the_neighbor_window_is_the_nearest_contiguous_set(values, data):
    values = sorted(set(values))
    assume(len(values) >= 2)
    delta = data.draw(st.floats(values[0], values[-1]))
    ne = data.draw(st.integers(1, len(values)))
    order = _nearest_first(np.array(values), delta)
    j = int(order[0])
    lo, hi = _window(values, j, delta, ne)
    assert 0 <= lo <= j < hi <= len(values)
    assert hi - lo == ne
    # where the nearest ne by rounded distance are contiguous, they are the window
    nearest = sorted(order[:ne].tolist())
    if nearest == list(range(nearest[0], nearest[-1] + 1)):
        assert (lo, hi) == (nearest[0], nearest[-1] + 1)


def test_neighbor_selection_validation():
    db = _random_db(params=PARAMS)
    aligned: dict = {}
    for ne_x, ne_t, named in ((1, 3, "ne_x"), (6, 3, "ne_x"), (3, 1, "ne_t"), (3, 6, "ne_t")):
        with pytest.raises(ValueError, match=rf"\b{named}\b"):
            interpolate_reduced(db, 0.4, ne_x=ne_x, ne_t=ne_t, m=2, aligned=aligned)
    assert aligned == {}  # a rejected query aligns nothing


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
        lagrange_weights([0.5, 0.3, 0.5], 0.4)  # duplicates need not be adjacent
    with pytest.raises(ValueError):
        lagrange_weights([], 0.4)


@given(
    nodes=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=8, unique=True),
    position=st.floats(-0.5, 1.5),
)
def test_lagrange_weights_equal_the_product_loop(nodes, position):
    # same factors in the same order: the weights agree bit for bit, also
    # where nearly equal nodes overflow them to inf or nan
    nodes = np.array(nodes)
    delta = nodes.min() + position * (nodes.max() - nodes.min())
    want = np.empty(nodes.size)
    with np.errstate(all="ignore"):
        for k in range(nodes.size):
            others = np.delete(nodes, k)
            want[k] = np.prod((delta - others) / (nodes[k] - others))
        got = lagrange_weights(nodes, delta)
    assert np.array_equal(got, want, equal_nan=True)


def _numpy_lagrange_weights(nodes, delta):
    """The weights as one numpy product over an (n, n - 1) table of the factors."""
    n = nodes.size
    others = ~np.eye(n, dtype=bool)
    numerators = np.broadcast_to(delta - nodes, (n, n))[others]
    denominators = (nodes[:, None] - nodes)[others]
    return np.prod((numerators / denominators).reshape(n, n - 1), axis=1)


@given(
    nodes=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=8,
        unique=True,
    ),
    delta=st.floats(allow_nan=False, allow_infinity=False, width=64),
)
def test_lagrange_weights_equal_the_numpy_table(nodes, delta):
    # the weights are formed on Python floats; they must keep the bits of
    # the numpy table of factors they replaced, overflow to inf or nan included
    nodes = np.array(nodes)
    assume(np.unique(nodes).size == nodes.size)  # 0.0 and -0.0 are one node
    with np.errstate(all="ignore"):
        want = _numpy_lagrange_weights(nodes, delta)
        got = lagrange_weights(nodes, delta)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


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


def test_procrustes_rejects_an_overflowing_cross_product():
    # finite blocks whose cross product overflows: an SVD of it would return
    # NaN (or, on larger blocks, spin for minutes), so the alignment refuses
    huge = np.full((3, 2), 1e155)
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        procrustes_align(huge, huge)
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        # rows of opposite sign: the overflowing products sum to inf - inf = NaN
        procrustes_align(huge * np.array([[1.0], [-1.0], [1.0]]), huge)


def test_batched_procrustes_equals_one_call_per_matrix(rng, plume_db):
    # a stack of neighbor blocks is aligned in one call; each slice must be
    # the bits a 2D call on that block returns
    for m in (1, 4, plume_db.q):
        reference = plume_db.spatial_blocks[2, :, :m]
        stacks = (plume_db.spatial_blocks[:, :, :m], rng.normal(size=(2, 3, *reference.shape)))
        for stack in stacks:
            batched = procrustes_align(reference, stack)
            assert batched.shape == (*stack.shape[:-2], m, m)
            for index in np.ndindex(stack.shape[:-2]):
                assert np.array_equal(batched[index], procrustes_align(reference, stack[index]))


def test_batched_procrustes_rejects_a_trailing_shape_mismatch(rng):
    reference = rng.normal(size=(7, 3))
    for other in (rng.normal(size=(4, 7, 2)), rng.normal(size=(4, 6, 3)), rng.normal(size=7)):
        with pytest.raises(ValueError):
            procrustes_align(reference, other)
    with pytest.raises(ValueError):
        procrustes_align(rng.normal(size=(4, 7, 3)), rng.normal(size=(4, 7, 3)))


# ---------------------------------------------------------------- queries


def test_query_on_a_training_node_reproduces_its_blocks(plume_db):
    node = plume_db.spatial_blocks[2] @ plume_db.temporal_blocks[2].T
    result = interpolate_reduced(plume_db, 0.40, ne_x=3, ne_t=3, m=10)
    rel = np.linalg.norm(reduced_matrix(result) - node) / np.linalg.norm(node)
    assert rel <= 1e-8


@pytest.fixture(scope="module")
def velocity_db(tmp_path_factory):
    """The series1-velocity ROM at q=30, as the velocity campaign builds it."""
    out = tmp_path_factory.mktemp("series1")
    assert cli.main(["datagen", "--preset", "series1-velocity", "--out", str(out)]) == 0
    rom = out / "db.rom1"
    manifest = str(out / "manifest.txt")
    assert cli.main(["compress", "--snapshots", manifest, "--q", "30", "--out", str(rom)]) == 0
    return read_rom(rom)


@pytest.mark.parametrize("rom", ["plume_db", "velocity_db"])
def test_node_queries_reproduce_their_training_run_bit_for_bit(rom, request):
    # the weights collapse onto the node and the node's block is the frame,
    # summed unrotated, so no rounding is left; a rotation of the node's
    # block onto itself used to leave up to 3.1e-9 at m = 30 on the velocity
    # ROM, whose temporal cross products span about 1e16
    db = request.getfixturevalue(rom)
    for k, delta in enumerate(db.params.tolist()):
        for ne_x in range(2, db.n_params + 1):
            ne_t = db.n_params + 2 - ne_x
            for m in (1, db.q):
                result = interpolate_reduced(db, delta, ne_x=ne_x, ne_t=ne_t, m=m)
                lifted = reconstruct_field(db, result.spatial_factor, result.temporal_factor)
                want = reconstruct_sample(db, k, m).values
                assert np.array_equal(lifted, want), (k, ne_x, ne_t, m)


def test_midway_query_tracks_the_generating_family(plume_db, plume_grid, plume_times):
    result = interpolate_reduced(plume_db, 0.375, ne_x=3, ne_t=3, m=10)
    predicted = reconstruct_field(plume_db, result.spatial_factor, result.temporal_factor)
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
        genes = dict(ne_x=ne, ne_t=ne, m=plume_db.q)
        plain = reduced_matrix(interpolate_reduced(plume_db, delta, **genes))
        spun = reduced_matrix(interpolate_reduced(spun_db, delta, **genes))
        assert np.linalg.norm(spun - plain) <= 1e-8 * np.linalg.norm(plain), delta


def test_query_results_are_deterministic(plume_db):
    a = interpolate_reduced(plume_db, 0.42, ne_x=4, ne_t=3, m=8)
    b = interpolate_reduced(plume_db, 0.42, ne_x=4, ne_t=3, m=8)
    assert np.array_equal(a.spatial_factor, b.spatial_factor)
    assert np.array_equal(a.temporal_factor, b.temporal_factor)
    assert a.spatial_factor.shape == (plume_db.r, 8)
    assert a.temporal_factor.shape == (plume_db.s, 8)


def _aligned_sum(db, blocks, delta, ne, m):
    """weights @ flat, with the flat stack written out row by row in neighbor order.

    Row k is B_k @ Q_k, each Q_k computed on the spot, but the nearest
    block's row, which is B_j as it is.
    """
    order = _nearest_first(db.params, delta)
    chosen = np.sort(order[:ne])
    reference = blocks[order[0]][:, :m]

    def row(k):
        block = blocks[k][:, :m]
        return block if k == order[0] else block @ procrustes_align(reference, block)

    rows = [row(k) for k in chosen]
    weights = lagrange_weights(db.params[chosen], delta)
    return (weights @ np.stack(rows).reshape(ne, -1)).reshape(-1, m)


@given(
    st.lists(
        st.tuples(
            st.one_of(st.floats(0.30, 0.50), st.sampled_from((0.30, 0.35, 0.375, 0.40, 0.50))),
            st.integers(2, 5),
            st.integers(2, 5),
            st.integers(1, 10),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_shared_rotations_change_no_bit(plume_db, stream):
    # one dict serves the whole stream, as it serves a whole search: a query
    # whose rotations or aligned stack an earlier query computed must still
    # return the bits of a query that computes them all itself, and those
    # are the bits of weights @ flat over the stack written out row by row
    aligned: dict = {}
    for delta, ne_x, ne_t, m in stream:
        genes = dict(ne_x=ne_x, ne_t=ne_t, m=m)
        shared = interpolate_reduced(plume_db, delta, **genes, aligned=aligned)
        alone = interpolate_reduced(plume_db, delta, **genes)
        spatial = _aligned_sum(plume_db, plume_db.spatial_blocks, delta, ne_x, m)
        temporal = _aligned_sum(plume_db, plume_db.temporal_blocks, delta, ne_t, m)
        for result in (shared, alone):
            assert np.array_equal(result.spatial_factor, spatial), (delta, genes)
            assert np.array_equal(result.temporal_factor, temporal), (delta, genes)


def _random_db(seed=7, params=(0.0, 0.5, 1.0)):
    rng = np.random.default_rng(seed)
    grid = Grid(6, 5, 1.0, 1.0)
    times = TimeAxis(8, 1.0)
    mats = [
        SnapshotMatrix(grid, times, ParamKind.SYNTHETIC, v, rng.normal(size=(30, 8)))
        for v in params
    ]
    return compress_ensemble(mats, q=5)


def _reference_query(db, delta, ne_x, ne_t, m):
    """Reference-point interpolation written out from its definition.

    Every neighbor block B is turned by the orthogonal Q minimizing
    ||B Q - A||_F, where A is the nearest sample's block; with
    B^T A = U D V^T that is Q = U V^T.
    """
    distance = np.abs(db.params - delta)
    nearest = int(np.argmin(distance))  # first of a tie: the smaller value

    def factor(blocks, ne):
        chosen = np.sort(np.argsort(distance, kind="stable")[:ne])
        weights = lagrange_weights(db.params[chosen], delta)
        reference = blocks[nearest][:, :m]
        total = np.zeros_like(reference)
        for w, k in zip(weights, chosen):
            block = blocks[k][:, :m]
            u, _, vt = np.linalg.svd(block.T @ reference)
            total += w * block @ (u @ vt)
        return total

    return factor(db.spatial_blocks, ne_x), factor(db.temporal_blocks, ne_t)


def test_query_matches_the_reference_point_interpolation():
    # three unrelated random samples: nothing here is close to a fixed point
    # of repeated realignment, so a query that realigned to its own weighted
    # sum would drift away from the reference
    db = _random_db()
    for delta, ne_x, ne_t, m in (
        (0.25, 3, 3, 4),
        (0.1, 2, 3, 5),
        (0.6, 3, 2, 2),
        (0.9, 2, 2, 1),
        (0.75, 3, 3, 5),
    ):
        result = interpolate_reduced(db, delta, ne_x=ne_x, ne_t=ne_t, m=m)
        spatial, temporal = _reference_query(db, delta, ne_x, ne_t, m)
        for got, want in ((result.spatial_factor, spatial), (result.temporal_factor, temporal)):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), delta


def test_request_validation(plume_db, plume_matrices):
    one_sample = compress_ensemble(plume_matrices[:1], q=3)
    with pytest.raises(ValueError, match="interpolation needs at least two training samples"):
        interpolate_reduced(one_sample, 0.3, ne_x=2, ne_t=2, m=3)
    with pytest.raises(ValueError):
        interpolate_reduced(plume_db, 0.4, ne_x=1, ne_t=3, m=5)
    with pytest.raises(ValueError):
        interpolate_reduced(plume_db, 0.4, ne_x=3, ne_t=6, m=5)
    with pytest.raises(ValueError):
        interpolate_reduced(plume_db, 0.4, ne_x=3, ne_t=3, m=0)
    with pytest.raises(ValueError):
        interpolate_reduced(plume_db, 0.4, ne_x=3, ne_t=3, m=11)
    with pytest.raises(ValueError):
        interpolate_reduced(plume_db, 0.29, ne_x=3, ne_t=3, m=5)
    with pytest.raises(ValueError):
        interpolate_reduced(plume_db, 0.51, ne_x=3, ne_t=3, m=5)
    with pytest.raises(TypeError):
        interpolate_reduced(plume_db, 0.4, 3, 2, 5)  # the genes are keyword-only


# ---------------------------------------------------------------- lifting


def test_reconstruction_matches_the_level_one_product(rng):
    grid = Grid(6, 4, 1.0, 1.0)
    times = TimeAxis(9, 2.0)
    matrix = SnapshotMatrix(
        grid, times, ParamKind.SYNTHETIC, 0.5, rng.normal(size=(24, 9))
    )
    db = compress_ensemble([matrix], q=9)
    u, sv, vt = np.linalg.svd(matrix.values, full_matrices=False)
    rank_q = (u[:, :9] * sv[:9]) @ vt[:9]
    lifted = reconstruct_field(db, db.spatial_blocks[0], db.temporal_blocks[0])
    assert np.linalg.norm(lifted - rank_q) <= 1e-10 * np.linalg.norm(matrix.values)


def test_reconstruction_is_the_product_of_the_lifted_factors(plume_db, rng):
    m = 6
    spatial = rng.normal(size=(plume_db.r, m))
    temporal = rng.normal(size=(plume_db.s, m))
    want = (plume_db.spatial_basis @ spatial) @ (plume_db.temporal_basis @ temporal).T
    got = reconstruct_field(plume_db, spatial, temporal)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_reconstruction_validates_inputs(plume_db):
    r, s, m = plume_db.r, plume_db.s, 4
    assert reconstruct_field(plume_db, np.zeros((r, m)), np.zeros((s, m))).shape == (
        plume_db.grid.n_cells,
        plume_db.times.n_steps,
    )
    bad_pairs = (
        (np.zeros((r - 1, m)), np.zeros((s, m))),  # spatial rows are not r
        (np.zeros((r, m)), np.zeros((s + 1, m))),  # temporal rows are not s
        (np.zeros((r, m)), np.zeros((s, m - 1))),  # the factors disagree on m
        (np.zeros(r), np.zeros((s, 1))),           # a vector is not a factor
    )
    for spatial, temporal in bad_pairs:
        with pytest.raises(ValueError):
            reconstruct_field(plume_db, spatial, temporal)
