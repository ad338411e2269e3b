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
import math
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
# Floats per step of _all_finite, which keeps its boolean mask at 64 KiB.
_FINITE_CHUNK = 65536


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
        for name in ("lx", "ly"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
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
        if not math.isfinite(self.t_final):
            raise ValueError(f"t_final must be finite, got {self.t_final!r}")
        if not self.t_final > 0.0:
            raise ValueError("t_final must be positive")

    def instants(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_steps)


class _Handover:
    """A float64 array handed to a frozen dataclass by its only holder.

    _frozen_array keeps the array itself, frozen, instead of a copy. Only
    this package's loaders and producers use it, for arrays they built and
    drop once the dataclass holds them.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


def _frozen_array(values, shape=None, order="C") -> np.ndarray:
    """Read-only float64 array of ``values``; optionally checked against a shape.

    A _Handover's array is kept without a copy unless it is not native
    float64. Anything else is copied in numpy's ``order``: "C" by default,
    "K" to keep the layout of ``values``.
    """
    if isinstance(values, _Handover):
        arr = values.array.astype(np.float64, copy=False)
    else:
        arr = np.array(values, dtype=np.float64, order=order, copy=True)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected array of shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, checked without a mask the size of ``a``."""
    flat = a.ravel(order="K")
    return all(
        np.isfinite(flat[i : i + _FINITE_CHUNK]).all() for i in range(0, flat.size, _FINITE_CHUNK)
    )


def _file_bytes(a: np.ndarray, order: str) -> memoryview:
    """``a`` as little-endian float64 bytes in numpy's ``order``; a view if it is so already."""
    return memoryview(a.astype("<f8", copy=False).ravel(order=order))


def _write_file(path, what: str, chunks) -> None:
    """Write ``chunks`` to ``path`` atomically, or raise PersistenceError naming ``what``.

    Each of the bytes-like ``chunks`` is written in turn without joining them.
    The bytes go to a temporary file in the same directory, which os.replace
    then moves onto ``path``. A failed write removes the temporary file and
    leaves any existing file at ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise PersistenceError(path, f"cannot write {what} ({exc})") from exc


def _read_file(path, what: str, magic: bytes, version: int, header: struct.Struct, n_floats):
    """Header fields after magic and version, and the float64 payload they size.

    The payload of ``n_floats(*fields)`` floats is checked against the file
    size before it is allocated, then read once. Raises FormatError on a bad
    magic/version, CorruptionError on a size mismatch and PersistenceError
    naming ``what`` when the file cannot be read.
    """
    tag = magic.decode("ascii")
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            head = handle.read(header.size)
            if len(head) < 4:
                raise CorruptionError(f"{path}: file shorter than its magic tag")
            if head[:4] != magic:
                # "an SNP1 file" is read letter by letter, "a ROM1 file" as a word
                raise FormatError(f"{path}: not {'an' if tag[0] == 'S' else 'a'} {tag} file")
            if len(head) < header.size:
                raise CorruptionError(f"{path}: truncated header")
            _, found, *fields = header.unpack(head)
            if found != version:
                raise FormatError(f"{path}: unsupported {tag} version {found}")
            expected = 8 * n_floats(*fields)
            if size - header.size != expected:
                raise CorruptionError(
                    f"{path}: payload holds {size - header.size} bytes, header implies {expected}"
                )
            payload = np.empty(expected // 8, dtype="<f8")
            got = handle.readinto(payload)
            if got != expected:
                raise CorruptionError(f"{path}: read {got} payload bytes, header implies {expected}")
    except OSError as exc:
        raise PersistenceError(path, f"cannot read {what} ({exc})") from exc
    return fields, payload


def _adopt(grid: Grid, times: TimeAxis, kind, value: float, values: np.ndarray) -> "SnapshotMatrix":
    """SnapshotMatrix holding ``values`` without a copy; the caller must not keep it."""
    return SnapshotMatrix(grid, times, kind, value, _Handover(values))


@dataclass(frozen=True, eq=False)
class SnapshotMatrix:
    """One parametrized field history: values[j, l] at cell j and instant l.

    The constructor keeps an owned copy of ``values`` in its own layout, so a
    column-major field is written out without a further copy; a _Handover's
    array is kept itself.
    """

    grid: Grid
    times: TimeAxis
    param_kind: ParamKind
    param_value: float
    values: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.grid.n_cells, self.times.n_steps)
        vals = _frozen_array(self.values, shape, order="K")
        if not _all_finite(vals):
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
    _write_file(path, "snapshot file", (header, _file_bytes(matrix.values, "F")))


def read_snapshots(path) -> SnapshotMatrix:
    """Load a SnapshotMatrix from an SNP1 file, validating all invariants.

    The payload is read once by _read_file, into the array the matrix keeps.
    Raises FormatError on a bad magic/version, CorruptionError when header
    and payload disagree, PersistenceError when the file cannot be read.
    """
    (nx, ny, n_steps, lx, ly, t_final, kind, value), payload = _read_file(
        path, "snapshot file", _MAGIC, _VERSION, _HEADER, lambda nx, ny, n, *_: nx * ny * n
    )
    try:
        grid = Grid(nx, ny, lx, ly)
        times = TimeAxis(n_steps, t_final)
        values = payload.reshape((nx * ny, n_steps), order="F")
        return _adopt(grid, times, ParamKind(kind), value, values)
    except ValueError as exc:
        raise CorruptionError(f"{path}: inconsistent header or payload ({exc})") from exc


@dataclass(frozen=True, eq=False)
class RegionMask:
    """Cells whose centers fall strictly inside an observation rectangle.

    Weights are quadrature weights, so each must be finite and positive.
    """

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
    return RegionMask(indices, weights)
