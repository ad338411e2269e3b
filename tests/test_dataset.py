"""Grid/time/snapshot model, SNP1 persistence and observation masks."""

from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from romga import (
    Grid,
    ParamKind,
    RegionMask,
    SnapshotMatrix,
    TimeAxis,
    build_mask,
    read_snapshots,
    write_snapshots,
)
from romga.errors import CorruptionError, EmptyMaskError, FormatError, PersistenceError


def make_matrix(nx=4, ny=3, n_steps=5, seed=0, kind=ParamKind.SYNTHETIC, value=0.7):
    rng = np.random.default_rng(seed)
    grid = Grid(nx, ny, 1.3, 0.9)
    times = TimeAxis(n_steps, 2.5)
    values = rng.standard_normal((grid.n_cells, n_steps))
    return SnapshotMatrix(grid, times, kind, value, values)


# ---------------------------------------------------------------- grid/time


def test_cell_centers_follow_the_half_offset_rule():
    grid = Grid(4, 3, 2.0, 1.5)
    cx, cy = grid.cell_centers()
    assert cx.shape == (12,)
    # row j = iy*nx + ix
    for iy in range(3):
        for ix in range(4):
            j = iy * 4 + ix
            assert cx[j] == pytest.approx((ix + 0.5) * 2.0 / 4, abs=0)
            assert cy[j] == pytest.approx((iy + 0.5) * 1.5 / 3, abs=0)


def test_grid_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        Grid(1, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        Grid(4, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        Grid(4, 4, 0.0, 1.0)
    with pytest.raises(ValueError):
        Grid(4, 4, 1.0, -2.0)


def test_time_axis_spans_zero_to_t_final_uniformly():
    axis = TimeAxis(5, 2.0)
    assert np.allclose(axis.instants(), [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeAxis(1, 2.0)
    with pytest.raises(ValueError):
        TimeAxis(5, 0.0)


# ---------------------------------------------------------------- snapshots


def test_snapshot_matrix_validates_shape_and_finiteness():
    grid = Grid(3, 2, 1.0, 1.0)
    times = TimeAxis(4, 1.0)
    with pytest.raises(ValueError):
        SnapshotMatrix(grid, times, ParamKind.SYNTHETIC, 0.0, np.zeros((5, 4)))
    bad = np.zeros((6, 4))
    bad[2, 1] = np.nan
    with pytest.raises(ValueError):
        SnapshotMatrix(grid, times, ParamKind.SYNTHETIC, 0.0, bad)


def test_snapshot_matrix_is_immutable():
    matrix = make_matrix()
    with pytest.raises(ValueError):
        matrix.values[0, 0] = 1.0


def test_snapshot_matrix_constructor_copies_the_callers_array():
    grid, times = Grid(3, 2, 1.0, 1.0), TimeAxis(4, 1.0)
    for values in (np.arange(24.0).reshape(6, 4), np.asfortranarray(np.arange(24.0).reshape(6, 4))):
        matrix = SnapshotMatrix(grid, times, ParamKind.SYNTHETIC, 0.0, values)
        values[0, 0] = 99.0
        assert matrix.values[0, 0] == 0.0
        assert not np.shares_memory(matrix.values, values)
        assert values.flags.writeable  # the caller's array is left as it was


def test_loading_reads_the_payload_once(tmp_path):
    # a series-2 sized field: 48x48 cells, 150 instants, 2.76 MB
    matrix = make_matrix(nx=48, ny=48, n_steps=150, seed=4)
    path = tmp_path / "m.snp1"
    write_snapshots(matrix, path)
    payload = matrix.values.nbytes
    tracemalloc.start()
    try:
        loaded = read_snapshots(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.equals(matrix)
    assert not loaded.values.flags.writeable and loaded.values.flags.f_contiguous
    # the payload's one buffer and the finiteness check's 64 KiB chunk mask; a
    # full-size mask adds an eighth of the payload, a copy of the file's bytes all of it
    assert peak <= payload + 128 * 1024, peak


def test_snp1_round_trip_is_bit_exact(tmp_path):
    matrix = make_matrix(nx=7, ny=5, n_steps=9, kind=ParamKind.VELOCITY, value=0.627)
    path = tmp_path / "sample.snp1"
    write_snapshots(matrix, path)
    loaded = read_snapshots(path)
    assert loaded.equals(matrix)


@given(
    nx=st.integers(2, 6),
    ny=st.integers(2, 6),
    n_steps=st.integers(2, 8),
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(list(ParamKind)),
    value=st.floats(-1e6, 1e6),
)
def test_snp1_round_trip_property(tmp_path_factory, nx, ny, n_steps, seed, kind, value):
    matrix = make_matrix(nx, ny, n_steps, seed, kind, value)
    path = tmp_path_factory.mktemp("snp") / "m.snp1"
    write_snapshots(matrix, path)
    assert read_snapshots(path).equals(matrix)


def test_snp1_bytes_do_not_depend_on_the_memory_layout(tmp_path):
    matrix = make_matrix(nx=5, ny=4, n_steps=7, value=0.3)
    c_order = np.ascontiguousarray(matrix.values)
    f_order = np.asfortranarray(matrix.values)
    assert c_order.flags.c_contiguous and f_order.flags.f_contiguous
    blobs = []
    for values in (c_order, f_order):
        copy = SnapshotMatrix(matrix.grid, matrix.times, matrix.param_kind, 0.3, values)
        assert copy.values.flags.f_contiguous == values.flags.f_contiguous  # layout kept
        path = tmp_path / "m.snp1"
        write_snapshots(copy, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    assert read_snapshots(tmp_path / "m.snp1").equals(matrix)


def test_snp1_header_layout_is_frozen(tmp_path):
    matrix = make_matrix(nx=4, ny=3, n_steps=5, value=0.7)
    path = tmp_path / "m.snp1"
    write_snapshots(matrix, path)
    blob = path.read_bytes()
    header = struct.Struct("<4sIIIQdddBd")
    assert blob[:4] == b"SNP1"
    fields = header.unpack(blob[: header.size])
    assert fields[1:5] == (1, 4, 3, 5)
    assert fields[5:8] == (1.3, 0.9, 2.5)
    assert fields[8] == int(ParamKind.SYNTHETIC)
    assert fields[9] == 0.7
    assert len(blob) == header.size + 4 * 3 * 5 * 8
    # payload is column-major: first column = field at t = 0
    first_column = np.frombuffer(blob[header.size : header.size + 12 * 8], dtype="<f8")
    assert np.array_equal(first_column, matrix.values[:, 0])


def test_read_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.snp1"
    path.write_bytes(b"NOPE" + bytes(100))
    with pytest.raises(FormatError):
        read_snapshots(path)


def test_read_rejects_unsupported_version(tmp_path):
    matrix = make_matrix()
    path = tmp_path / "m.snp1"
    write_snapshots(matrix, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        read_snapshots(path)


def test_read_rejects_truncated_payload(tmp_path):
    matrix = make_matrix()
    path = tmp_path / "m.snp1"
    write_snapshots(matrix, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CorruptionError):
        read_snapshots(path)


def test_missing_file_raises_persistence_error(tmp_path):
    with pytest.raises(PersistenceError):
        read_snapshots(tmp_path / "absent.snp1")
    with pytest.raises(PersistenceError):
        write_snapshots(make_matrix(), tmp_path / "no_dir" / "m.snp1")


# ---------------------------------------------------------------- masks


def test_mask_matches_brute_force_on_fine_grid():
    # 104x104 cells over 1.04m x 1.04m, window (0.1, 0.9) x (0.15, 0.7)
    grid = Grid(104, 104, 1.04, 1.04)
    rect = (0.1, 0.9, 0.15, 0.7)
    mask = build_mask(grid, rect)
    expected = []
    for iy in range(104):
        for ix in range(104):
            x = (ix + 0.5) * 1.04 / 104
            y = (iy + 0.5) * 1.04 / 104
            if rect[0] < x < rect[1] and rect[2] < y < rect[3]:
                expected.append(iy * 104 + ix)
    assert mask.indices.tolist() == expected
    assert mask.n_cells == 4400
    assert np.all(mask.weights == grid.cell_area)


def test_mask_membership_is_strict():
    # centers sit at 0.05 + 0.1*i; a rectangle edge exactly on a center excludes it
    grid = Grid(10, 10, 1.0, 1.0)
    mask = build_mask(grid, (0.25, 0.65, 0.25, 0.65))
    cx, cy = grid.cell_centers()
    assert all(0.25 < cx[j] < 0.65 and 0.25 < cy[j] < 0.65 for j in mask.indices)
    assert mask.n_cells == 9  # per axis only 0.35, 0.45, 0.55 pass; 0.25/0.65 sit on edges


@given(
    x0=st.floats(0.0, 0.4),
    y0=st.floats(0.0, 0.4),
    dx1=st.floats(0.15, 0.5),
    dy1=st.floats(0.15, 0.5),
    pad=st.floats(0.01, 0.3),
)
def test_mask_grows_with_the_rectangle(x0, y0, dx1, dy1, pad):
    grid = Grid(20, 20, 1.0, 1.0)
    inner = (x0, x0 + dx1, y0, y0 + dy1)
    outer = (max(x0 - pad, 0.0), x0 + dx1 + pad, max(y0 - pad, 0.0), y0 + dy1 + pad)
    try:
        small = build_mask(grid, inner)
    except EmptyMaskError:
        return
    large = build_mask(grid, outer)
    assert set(small.indices.tolist()) <= set(large.indices.tolist())


def test_mask_errors():
    grid = Grid(10, 10, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_mask(grid, (0.5, 0.5, 0.1, 0.2))
    with pytest.raises(EmptyMaskError):
        build_mask(grid, (2.0, 3.0, 2.0, 3.0))  # fully outside the domain
    with pytest.raises(EmptyMaskError):
        build_mask(grid, (0.06, 0.14, 0.06, 0.14))  # between centers
    for bad in (0.0, -0.01, np.nan, np.inf):  # weights are square-rooted by the GA
        with pytest.raises(ValueError):
            RegionMask([0, 1], [0.01, bad])
