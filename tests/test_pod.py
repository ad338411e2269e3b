"""Two-level compression: factorization quality, determinism, persistence."""

from __future__ import annotations

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from romga import (
    CorruptionError,
    FormatError,
    Grid,
    ParamKind,
    PersistenceError,
    RomDatabase,
    SnapshotMatrix,
    TimeAxis,
    compress_ensemble,
    pod_factorize,
    read_rom,
    reconstruct_field,
    reconstruct_sample,
    two_level_compress,
    write_rom,
)
from romga import pod
from romga.pod import RANK_RTOL

HEADER = struct.Struct("<4sIIIIIIIQdddB")


def random_matrix(rng, n_cells=30, n_steps=12, value=0.5):
    grid = _grid_for(n_cells)
    times = TimeAxis(n_steps, 2.0)
    values = rng.normal(size=(grid.n_cells, n_steps))
    return SnapshotMatrix(grid, times, ParamKind.SYNTHETIC, value, values)


def _grid_for(n_cells):
    # factor n_cells into an (nx, ny) pair with nx >= 2
    for nx in range(2, n_cells + 1):
        if n_cells % nx == 0 and n_cells // nx >= 2:
            return Grid(nx, n_cells // nx, 1.0, 1.0)
    raise ValueError(f"cannot grid {n_cells} cells")


def ortho_defect(a):
    return float(np.abs(a.T @ a - np.eye(a.shape[1])).max())


# ---------------------------------------------------------------- level one


def test_factorization_reproduces_the_svd_truncation(rng):
    matrix = random_matrix(rng)
    spatial, temporal = pod_factorize(matrix, 5)
    u, sv, vt = np.linalg.svd(matrix.values, full_matrices=False)
    rank5 = (u[:, :5] * sv[:5]) @ vt[:5]
    rebuilt = spatial @ temporal.T
    assert np.abs(rebuilt - rank5).max() < 1e-12
    norms = np.linalg.norm(temporal, axis=0)
    assert np.allclose(norms, sv[:5], rtol=0.0, atol=1e-12)


def test_factorization_error_matches_the_singular_tail(rng):
    matrix = random_matrix(rng, n_cells=40, n_steps=15)
    sv = np.linalg.svd(matrix.values, compute_uv=False)
    scale = float(np.linalg.norm(matrix.values))
    for q in (1, 4, 9, 15):
        spatial, temporal = pod_factorize(matrix, q)
        err = np.linalg.norm(matrix.values - spatial @ temporal.T)
        tail = float(np.sqrt((sv[q:] ** 2).sum()))
        assert abs(err - tail) <= 1e-10 * scale


def test_spatial_modes_are_orthonormal(rng):
    spatial, _ = pod_factorize(random_matrix(rng), 8)
    assert ortho_defect(spatial) < 1e-10


def test_temporal_column_norms_equal_the_singular_values(rng):
    matrix = random_matrix(rng)
    _, temporal = pod_factorize(matrix, 6)
    norms = np.linalg.norm(temporal, axis=0)
    sv = np.linalg.svd(matrix.values, compute_uv=False)
    assert np.allclose(norms, sv[:6], rtol=1e-12, atol=0.0)


def test_sign_convention_and_determinism(rng):
    matrix = random_matrix(rng)
    a_spatial, a_temporal = pod_factorize(matrix, 7)
    b_spatial, b_temporal = pod_factorize(matrix, 7)
    assert np.array_equal(a_spatial, b_spatial)
    assert np.array_equal(a_temporal, b_temporal)
    lead = np.abs(a_spatial).argmax(axis=0)
    assert np.all(a_spatial[lead, np.arange(7)] >= 0.0)


def test_factorization_fixes_signs_of_the_kept_columns_bit_for_bit(rng):
    # reference: fix the signs of the whole SVD by fancy indexing, then truncate
    for n_cells, n_steps, q in ((30, 12, 5), (40, 15, 15), (18, 8, 1)):
        matrix = random_matrix(rng, n_cells=n_cells, n_steps=n_steps)
        u, sv, vt = np.linalg.svd(matrix.values, full_matrices=False)
        flip = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])] < 0.0
        u[:, flip] *= -1.0
        vt[flip, :] *= -1.0
        spatial, temporal = pod_factorize(matrix, q)
        assert spatial.tobytes() == u[:, :q].tobytes()
        assert temporal.tobytes() == (vt[:q].T * sv[:q]).tobytes()


def test_factorization_holds_the_left_factor_once():
    # a series-2-sized sample (2304 cells, 150 instants) at q = 30: the SVD's
    # left factor is as large as the sample, and fixing signs on the q kept
    # columns alone adds less than a quarter of it (1.47 samples measured;
    # fixing all 150 columns peaked at 3.07)
    values = np.random.default_rng(0).normal(size=(2304, 150))
    grid, times = Grid(48, 48, 1.0, 1.0), TimeAxis(150, 60.0)
    matrix = SnapshotMatrix(grid, times, ParamKind.SYNTHETIC, 0.5, values)
    tracemalloc.start()
    try:
        pod_factorize(matrix, 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * matrix.values.nbytes


def test_factors_own_their_memory(rng):
    # a view of the SVD's left factor would keep all of it alive beside the
    # q kept columns: 2.76 MB per series-2 sample, where the kept ones are 0.55 MB
    for n_cells, n_steps, q in ((30, 12, 5), (40, 15, 14), (18, 8, 1), (12, 30, 11)):
        factors = pod_factorize(random_matrix(rng, n_cells=n_cells, n_steps=n_steps), q)
        for factor, rows in zip(factors, (n_cells, n_steps)):
            assert factor.shape == (rows, q)
            assert factor.base is None and factor.flags.c_contiguous


def test_factorization_rejects_bad_orders(rng):
    matrix = random_matrix(rng, n_cells=30, n_steps=12)
    with pytest.raises(ValueError):
        pod_factorize(matrix, 0)
    with pytest.raises(ValueError):
        pod_factorize(matrix, 13)


# ---------------------------------------------------------------- level two


def test_global_bases_are_orthonormal(plume_db):
    assert ortho_defect(plume_db.spatial_basis) < 1e-10
    assert ortho_defect(plume_db.temporal_basis) < 1e-10


def test_lossless_truncation_error_equals_the_singular_tail(plume_db, plume_matrices):
    # the default ranks keep the stacked factor columns to rounding, so
    # rebuilding a sample at order m is the rank-m SVD truncation of that sample
    for k in (0, 2, 4):
        values = plume_matrices[k].values
        sv = np.linalg.svd(values, compute_uv=False)
        scale = float(np.linalg.norm(values))
        for m in (3, 7, 10):
            err = np.linalg.norm(reconstruct_sample(plume_db, k, m).values - values)
            tail = float(np.sqrt((sv[m:] ** 2).sum()))
            assert abs(err - tail) <= 1e-8 * scale


def test_single_sample_database_round_trips(rng):
    matrix = random_matrix(rng, n_cells=24, n_steps=10)
    db = compress_ensemble([matrix], q=10)
    assert (db.r, db.s, db.n_params) == (10, 10, 1)
    u, sv, vt = np.linalg.svd(matrix.values, full_matrices=False)
    rank_q = (u[:, :10] * sv[:10]) @ vt[:10]
    rebuilt = reconstruct_sample(db, 0, 10).values
    assert np.linalg.norm(rebuilt - rank_q) <= 1e-10 * np.linalg.norm(matrix.values)


def test_compress_ensemble_sorts_by_parameter(rng):
    mats = [random_matrix(rng, value=v) for v in (0.9, 0.1, 0.5)]
    db = compress_ensemble(mats, q=4)
    assert np.array_equal(db.params, [0.1, 0.5, 0.9])
    assert db.hull == (0.1, 0.9)


def test_default_rank_clips_to_matrix_dimensions(rng):
    # r and s are the numerical ranks of the stacked factors, which random
    # samples fill: min(q * n_params, n_cells) and min(q * n_params, n_steps)
    for n_cells, n_steps, q, n_params, ranks in (
        (40, 12, 3, 2, (6, 6)),
        (6, 12, 2, 5, (6, 10)),
        (40, 4, 3, 2, (6, 4)),
    ):
        mats = [random_matrix(rng, n_cells, n_steps, value=v) for v in range(n_params)]
        db = compress_ensemble(mats, q=q)
        assert (db.r, db.s) == ranks
        spatial_basis, temporal_basis, *_ = two_level_compress(
            *zip(*(pod_factorize(m, q) for m in mats))
        )
        assert (spatial_basis.shape[1], temporal_basis.shape[1]) == ranks


def _affine_family(rng, deltas, n_cells=40, n_steps=20):
    # Y(delta) = A + delta * B with rank-2 A and B: every sample has rank 4
    # and all of them share one 4-dimensional column space and row space
    grid, times = _grid_for(n_cells), TimeAxis(n_steps, 2.0)
    a, b = (rng.normal(size=(n_cells, 2)) @ rng.normal(size=(2, n_steps)) for _ in range(2))
    return [SnapshotMatrix(grid, times, ParamKind.SYNTHETIC, d, a + d * b) for d in deltas]


def test_default_ranks_are_the_numerical_ranks_of_the_stacked_factors(plume_matrices, rng):
    ensembles = (
        (plume_matrices, 10),
        (_affine_family(rng, (0.1, 0.2, 0.3, 0.4, 0.5)), 4),
        ([random_matrix(rng, value=v) for v in (0.1, 0.4)], 5),
    )
    for mats, q in ensembles:
        factors = list(zip(*(pod_factorize(m, q) for m in mats)))
        bases = two_level_compress(*factors)[:2]
        for basis, side in zip(bases, factors):
            rank = basis.shape[1]
            sv = np.linalg.svd(np.hstack(side), compute_uv=False)
            assert sv[rank - 1] > sv[0] * RANK_RTOL
            assert rank == sv.size or sv[rank] <= sv[0] * RANK_RTOL


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ranks_hold_when_every_singular_value_moves_by_1e_15_of_the_largest(plume_matrices, sign):
    # an SVD that differs at rounding moves each level-2 singular value by about
    # 1e-16 * sigma_1; ten times that, on both sides of the threshold, moves no rank
    factors = list(zip(*(pod_factorize(m, 10) for m in plume_matrices)))
    ranks = [basis.shape[1] for basis in two_level_compress(*factors)[:2]]
    sides = []
    for side in factors:
        u, sv, vt = np.linalg.svd(np.hstack(side), full_matrices=False)
        moved = (u * np.maximum(sv + sign * 1e-15 * sv[0], 0.0)) @ vt
        sides.append(np.hsplit(moved, len(side)))
    assert [basis.shape[1] for basis in two_level_compress(*sides)[:2]] == ranks


def test_a_rank_deficient_ensemble_keeps_its_rank_and_rebuilds(rng):
    deltas = (0.1, 0.2, 0.3, 0.4, 0.5)
    mats = _affine_family(rng, deltas)
    db = compress_ensemble(mats, q=4)
    assert (db.r, db.s) == (4, 4)  # not q * n_params = 20
    assert db.spatial_blocks.shape == (5, 4, 4) and db.temporal_blocks.shape == (5, 4, 4)
    # the dropped directions carry rounding only: each sample's rank-q product survives
    for k, matrix in enumerate(mats):
        spatial, temporal = pod_factorize(matrix, 4)
        own = spatial @ temporal.T
        kept = reconstruct_sample(db, k, 4).values
        assert np.linalg.norm(kept - own) <= 1e-12 * np.linalg.norm(own)


def test_block_shapes_and_truncation(plume_db):
    assert plume_db.spatial_blocks[0].shape == (plume_db.r, plume_db.q)
    assert plume_db.temporal_blocks[0].shape == (plume_db.s, plume_db.q)
    cut = reconstruct_sample(plume_db, 1, 4).values
    expected = reconstruct_field(
        plume_db, plume_db.spatial_blocks[1][:, :4], plume_db.temporal_blocks[1][:, :4]
    )
    assert np.array_equal(cut, expected)
    for m in (0, plume_db.q + 1):
        with pytest.raises(ValueError, match=rf"m must lie in \[1, {plume_db.q}\], got {m}"):
            reconstruct_sample(plume_db, 1, m)


# each case cuts one array of a consistent database by one along one axis
_SHAPE_DEFECTS = {
    "block count": dict(spatial_blocks=(slice(1, None),), temporal_blocks=(slice(1, None),)),
    "spatial block rows": dict(spatial_blocks=(slice(None), slice(1, None))),
    "temporal block rows": dict(temporal_blocks=(slice(None), slice(1, None))),
    "q differs between stacks": dict(spatial_blocks=(slice(None), slice(None), slice(1, None))),
    "spatial basis rows": dict(spatial_basis=(slice(1, None),)),
    "temporal basis rows": dict(temporal_basis=(slice(1, None),)),
}


@pytest.mark.parametrize("defect", sorted(_SHAPE_DEFECTS))
def test_rom_database_checks_every_shape(plume_db, defect):
    cuts = _SHAPE_DEFECTS[defect]
    changes = {name: getattr(plume_db, name)[cut] for name, cut in cuts.items()}
    with pytest.raises(ValueError, match="must have shape"):
        dataclasses.replace(plume_db, **changes)
    # the same arrays uncut build a database whose ranks are read off them
    same = dataclasses.replace(plume_db, **{name: getattr(plume_db, name) for name in cuts})
    assert (same.q, same.r, same.s, same.n_params) == (
        plume_db.q, plume_db.r, plume_db.s, plume_db.n_params
    )


def test_rom_database_stacks_per_sample_blocks(plume_db):
    listed = dataclasses.replace(
        plume_db,
        spatial_blocks=list(plume_db.spatial_blocks),
        temporal_blocks=tuple(plume_db.temporal_blocks),
    )
    assert listed.spatial_blocks.shape == (plume_db.n_params, plume_db.r, plume_db.q)
    assert listed.spatial_blocks.flags.c_contiguous and not listed.spatial_blocks.flags.writeable
    assert np.array_equal(listed.temporal_blocks, plume_db.temporal_blocks)
    assert [f.name for f in dataclasses.fields(RomDatabase)] == [
        "spatial_basis", "temporal_basis", "spatial_blocks", "temporal_blocks",
        "params", "grid", "times", "param_kind",
    ]
    with pytest.raises(ValueError, match="3D"):
        dataclasses.replace(plume_db, spatial_blocks=plume_db.spatial_blocks[0])


def test_reconstruct_sample_index_bounds(plume_db):
    with pytest.raises(ValueError):
        reconstruct_sample(plume_db, -1, 5)
    with pytest.raises(ValueError):
        reconstruct_sample(plume_db, plume_db.n_params, 5)


def test_compress_ensemble_validation(rng):
    mats = [random_matrix(rng, value=v) for v in (0.1, 0.4)]
    assert compress_ensemble(mats, q=4).params.tolist() == [0.1, 0.4]
    with pytest.raises(ValueError, match="strictly increasing"):
        compress_ensemble([mats[0], random_matrix(rng, value=0.1)], q=4)
    with pytest.raises(ValueError, match="at least one sample"):
        compress_ensemble([], q=4)


def test_compress_calls_the_module_names_and_checks_each_sample_first(rng, monkeypatch):
    # perfbench times level one and level two by replacing these module names
    calls = {"pod_factorize": 0, "two_level_compress": 0}
    for name in calls:
        def counted(*args, _real=getattr(pod, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(pod, name, counted)
    mats = [random_matrix(rng, value=v) for v in (0.3, 0.1, 0.2)]
    assert compress_ensemble(mats, q=4).params.tolist() == [0.1, 0.2, 0.3]
    assert calls == {"pod_factorize": 3, "two_level_compress": 1}
    # a sample on another grid stops the ensemble before it is factorized
    calls.update(pod_factorize=0, two_level_compress=0)
    mats[1] = random_matrix(rng, n_cells=24, value=0.1)
    with pytest.raises(ValueError, match="all samples must share grid and time axis"):
        compress_ensemble(mats, q=4)
    assert calls == {"pod_factorize": 1, "two_level_compress": 0}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), q=st.integers(1, 6))
def test_compression_is_exact_at_full_rank(seed, q):
    rng = np.random.default_rng(seed)
    mats = [random_matrix(rng, n_cells=18, n_steps=8, value=v) for v in (0.2, 0.7)]
    db = compress_ensemble(mats, q=q)
    for k, matrix in enumerate(mats):
        spatial, temporal = pod_factorize(matrix, q)
        level_one = spatial @ temporal.T
        rebuilt = reconstruct_sample(db, k, q).values
        scale = max(float(np.linalg.norm(matrix.values)), 1.0)
        assert np.linalg.norm(rebuilt - level_one) <= 1e-10 * scale


# ---------------------------------------------------------------- persistence


def test_rom_file_round_trips_bit_exactly(tmp_path, plume_db):
    path = tmp_path / "db.rom1"
    write_rom(plume_db, path)
    back = read_rom(path)
    assert np.array_equal(back.spatial_basis, plume_db.spatial_basis)
    assert np.array_equal(back.temporal_basis, plume_db.temporal_basis)
    assert np.array_equal(back.params, plume_db.params)
    for a, b in zip(back.spatial_blocks, plume_db.spatial_blocks):
        assert np.array_equal(a, b)
    for a, b in zip(back.temporal_blocks, plume_db.temporal_blocks):
        assert np.array_equal(a, b)
    assert (back.q, back.r, back.s) == (plume_db.q, plume_db.r, plume_db.s)
    assert back.grid == plume_db.grid
    assert back.times == plume_db.times
    assert back.param_kind == plume_db.param_kind


def test_rom_header_layout_is_frozen(tmp_path, rng):
    mats = [random_matrix(rng, n_cells=12, n_steps=6, value=v) for v in (0.3, 0.8)]
    db = compress_ensemble(mats, q=5)
    path = tmp_path / "db.rom1"
    write_rom(db, path)
    blob = path.read_bytes()
    assert blob[:4] == b"ROM1"
    magic, version, q, r, s, n_params, nx, ny, n_steps, lx, ly, t_final, kind = (
        HEADER.unpack(blob[: HEADER.size])
    )
    assert (version, q, r, s, n_params) == (2, 5, db.r, db.s, 2)
    assert (nx, ny, n_steps) == (db.grid.nx, db.grid.ny, 6)
    assert (lx, ly, t_final) == (db.grid.lx, db.grid.ly, 2.0)
    assert kind == int(ParamKind.SYNTHETIC)
    n_cells = nx * ny
    expected = 8 * (n_params + n_cells * r + n_steps * s + n_params * q * (r + s))
    assert len(blob) == HEADER.size + expected
    # five row-major little-endian f8 pieces: params (2), spatial basis
    # (12 x 10), temporal basis (6 x 6), spatial blocks (2 x 10 x 5) and
    # temporal blocks (2 x 6 x 5), each at a fixed byte offset
    assert (n_cells, r, s) == (12, 10, 6)
    offsets = (65, 81, 1041, 1329, 2129)
    arrays = (db.params, db.spatial_basis, db.temporal_basis, db.spatial_blocks, db.temporal_blocks)
    for array, offset in zip(arrays, offsets):
        stored = np.frombuffer(blob, dtype="<f8", count=array.size, offset=offset)
        assert np.array_equal(stored.reshape(array.shape), array)
    assert len(blob) == 2609
    assert np.array_equal(db.params, [0.3, 0.8])


def test_rom_read_rejects_damage(tmp_path, rng):
    db = compress_ensemble([random_matrix(rng, n_cells=12, n_steps=6)], q=3)
    path = tmp_path / "db.rom1"
    write_rom(db, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.rom1"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        read_rom(bad_magic)

    bad_version = tmp_path / "version.rom1"
    bad_version.write_bytes(blob[:4] + struct.pack("<I", 9) + blob[8:])
    with pytest.raises(FormatError):
        read_rom(bad_version)

    short = tmp_path / "short.rom1"
    short.write_bytes(blob[:-8])
    with pytest.raises(CorruptionError):
        read_rom(short)

    stub = tmp_path / "stub.rom1"
    stub.write_bytes(blob[:20])
    with pytest.raises(CorruptionError):
        read_rom(stub)

    # a header with no samples, its payload sized to match: the two bases alone
    fields = list(HEADER.unpack(blob[: HEADER.size]))
    fields[5] = 0  # n_params
    n_bases = db.grid.n_cells * db.r + db.times.n_steps * db.s
    no_samples = tmp_path / "no_samples.rom1"
    payload = blob[HEADER.size + 8 : HEADER.size + 8 * (1 + n_bases)]
    no_samples.write_bytes(HEADER.pack(*fields) + payload)
    with pytest.raises(CorruptionError, match=r"params must be a nonempty 1D array"):
        read_rom(no_samples)
    # read_rom stops a non-finite payload first; a database built in memory
    # with such a parameter is refused before it can be written
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match="params must be finite"):
            dataclasses.replace(db, params=np.array([value]))

    with pytest.raises(PersistenceError):
        read_rom(tmp_path / "absent.rom1")
    with pytest.raises(PersistenceError):
        write_rom(db, tmp_path / "no_dir" / "db.rom1")
