"""Snapshot data model and binary persistence.

A snapshot matrix stores one scalar field sampled at the cell centers of a
uniform 2D grid, at uniformly spaced time instants, for a single value of the
driving parameter. Each matrix column is one time instant; row ``j`` is the
cell with indices ``(ix, iy)`` where ``j = iy * nx + ix``.

Files use the little-endian SNP1 layout (see README): a fixed header followed
by the payload as float64 in column-major order.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import CorruptionError, EmptyMaskError, FormatError, PersistenceError

_MAGIC = b"SNP1"
_VERSION = 1
# magic, version, nx, ny, n_steps, lx, ly, t_final, param_kind, param_value
_HEADER = struct.Struct("<4sIIIQdddBd")


class ParamKind(IntEnum):
    """Physical meaning of the scalar parameter attached to a snapshot set."""

    VELOCITY = 0
    TEMPERATURE = 1
    SYNTHETIC = 2


@dataclass(frozen=True)
class Grid:
    """Uniform collocated grid over the rectangle [0, lx] x [0, ly].

    Fields live at cell centers: cell (ix, iy) sits at
    ((ix + 0.5) * lx / nx, (iy + 0.5) * ly / ny) and maps to the flat row
    index j = iy * nx + ix.
    """

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")
        if not (self.lx > 0.0 and self.ly > 0.0):
            raise ValueError("domain extents must be positive")

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Center coordinates of all cells, flat arrays ordered j = iy*nx + ix."""
        cx = (np.arange(self.nx) + 0.5) * self.dx
        cy = (np.arange(self.ny) + 0.5) * self.dy
        gx, gy = np.meshgrid(cx, cy)
        return gx.ravel(), gy.ravel()


@dataclass(frozen=True)
class TimeAxis:
    """Uniformly spaced sampling instants covering [0, t_final]."""

    n_steps: int
    t_final: float

    def __post_init__(self) -> None:
        if self.n_steps < 2:
            raise ValueError("need at least two sampling instants")
        if not self.t_final > 0.0:
            raise ValueError("t_final must be positive")

    def instants(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_steps)


def _frozen_array(values, shape=None, dtype=np.float64) -> np.ndarray:
    """Owned, read-only float64 copy; optionally checked against a shape."""
    arr = np.array(values, dtype=dtype, order="C", copy=True)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


def _write_file(path, data: bytes, what: str) -> None:
    """Write ``data`` to ``path`` atomically, or raise PersistenceError naming ``what``.

    The bytes go to a temporary file in the same directory, which os.replace
    then moves onto ``path``. A failed write removes the temporary file and
    leaves any existing file at ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise PersistenceError(path, f"cannot write {what} ({exc})") from exc


@dataclass(frozen=True, eq=False)
class SnapshotMatrix:
    """One parametrized field history: values[j, l] at cell j and instant l."""

    grid: Grid
    times: TimeAxis
    param_kind: ParamKind
    param_value: float
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = _frozen_array(self.values, (self.grid.n_cells, self.times.n_steps))
        if not np.isfinite(vals).all():
            raise ValueError("snapshot values must all be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "param_kind", ParamKind(self.param_kind))
        object.__setattr__(self, "param_value", float(self.param_value))

    def equals(self, other: "SnapshotMatrix") -> bool:
        """Exact equality of metadata and payload (used by round-trip tests)."""
        return (
            self.grid == other.grid
            and self.times == other.times
            and self.param_kind == other.param_kind
            and self.param_value == other.param_value
            and np.array_equal(self.values, other.values)
        )


def write_snapshots(matrix: SnapshotMatrix, path) -> None:
    """Serialize a SnapshotMatrix to ``path`` in the SNP1 layout.

    Raises PersistenceError if the target cannot be written.
    """
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        matrix.grid.nx,
        matrix.grid.ny,
        matrix.times.n_steps,
        matrix.grid.lx,
        matrix.grid.ly,
        matrix.times.t_final,
        int(matrix.param_kind),
        matrix.param_value,
    )
    payload = matrix.values.astype("<f8", copy=False).tobytes(order="F")
    _write_file(path, header + payload, "snapshot file")


def read_snapshots(path) -> SnapshotMatrix:
    """Load a SnapshotMatrix from an SNP1 file, validating all invariants.

    Raises FormatError on a bad magic/version, CorruptionError when header
    and payload disagree, PersistenceError when the file cannot be read.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise PersistenceError(path, f"cannot read snapshot file ({exc})") from exc
    if len(blob) < 4:
        raise CorruptionError(f"{path}: file shorter than its magic tag")
    if blob[:4] != _MAGIC:
        raise FormatError(f"{path}: not an SNP1 file")
    if len(blob) < _HEADER.size:
        raise CorruptionError(f"{path}: truncated header")
    (_, version, nx, ny, n_steps, lx, ly, t_final, kind, value) = _HEADER.unpack(
        blob[: _HEADER.size]
    )
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported SNP1 version {version}")
    expected = nx * ny * n_steps * 8
    payload = blob[_HEADER.size :]
    if len(payload) != expected:
        raise CorruptionError(
            f"{path}: payload holds {len(payload)} bytes, header implies {expected}"
        )
    try:
        grid = Grid(nx, ny, lx, ly)
        times = TimeAxis(n_steps, t_final)
        values = np.frombuffer(payload, dtype="<f8").reshape((nx * ny, n_steps), order="F")
        return SnapshotMatrix(grid, times, ParamKind(kind), value, values)
    except ValueError as exc:
        raise CorruptionError(f"{path}: inconsistent header or payload ({exc})") from exc


@dataclass(frozen=True, eq=False)
class RegionMask:
    """Cells whose centers fall strictly inside an observation rectangle.

    Weights are quadrature weights, so each must be finite and positive.
    """

    rect: tuple[float, float, float, float]  # (x_min, x_max, y_min, y_max)
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        idx = np.array(self.indices, dtype=np.int64, copy=True)
        idx.flags.writeable = False
        weights = _frozen_array(self.weights, idx.shape)
        if not (np.isfinite(weights).all() and (weights > 0.0).all()):
            raise ValueError("mask weights must be finite and positive")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rect", tuple(float(v) for v in self.rect))

    @property
    def n_cells(self) -> int:
        return int(self.indices.size)


def build_mask(grid: Grid, rect) -> RegionMask:
    """Mask of all cells with center strictly inside ``rect``.

    ``rect`` is (x_min, x_max, y_min, y_max). Every selected cell carries the
    uniform quadrature weight dx * dy. Raises ValueError for a degenerate
    rectangle and EmptyMaskError when no center lies inside.
    """
    x_min, x_max, y_min, y_max = (float(v) for v in rect)
    if not (x_min < x_max and y_min < y_max):
        raise ValueError(f"degenerate observation rectangle {rect}")
    cx, cy = grid.cell_centers()
    inside = (cx > x_min) & (cx < x_max) & (cy > y_min) & (cy < y_max)
    indices = np.flatnonzero(inside)
    if indices.size == 0:
        raise EmptyMaskError(f"rectangle {rect} contains no cell centers")
    weights = np.full(indices.size, grid.cell_area)
    return RegionMask((x_min, x_max, y_min, y_max), indices, weights)
