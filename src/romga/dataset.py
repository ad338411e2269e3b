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
import csv
import errno
import io
import math
import os
import struct
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import PersistenceError

_MAGIC = b"SNP1"
_VERSION = 1
# magic, version, nx, ny, n_steps, lx, ly, t_final, param_kind, param_value
_HEADER = struct.Struct("<4sIIIQdddBd")
# Floats per step of _all_finite, which keeps its boolean mask at 64 KiB.
_FINITE_CHUNK = 65536
# errno values by which posix_fallocate says the filesystem cannot preallocate
_NO_FALLOCATE = frozenset({errno.EOPNOTSUPP, errno.ENOTSUP, errno.ENOSYS, errno.EINVAL})


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


def _preallocate(handle, nbytes: int) -> None:
    """Reserve ``nbytes`` for the open file ``handle``, where the OS and filesystem can.

    Without os.posix_fallocate (macOS, Windows), or when the filesystem
    refuses it (EOPNOTSUPP/ENOTSUP, ENOSYS, EINVAL), the file is left as it
    is; any other OSError, such as ENOSPC, propagates.
    """
    fallocate = getattr(os, "posix_fallocate", None)
    if fallocate is None:
        return
    try:
        fallocate(handle.fileno(), 0, nbytes)
    except OSError as exc:
        if exc.errno not in _NO_FALLOCATE:
            raise


def _write_file(path, what: str, chunks) -> None:
    """Write ``chunks`` to ``path`` atomically, or raise PersistenceError naming ``what``.

    ``chunks`` is a sequence of bytes-like objects, written in turn without
    joining them. The bytes go to a temporary file in the same directory,
    which os.replace then moves onto ``path``. A failed write removes the
    temporary file and leaves any existing file at ``path`` as it was.

    The temporary file is first preallocated to exactly the total byte count
    (_preallocate), so it never keeps an allocated tail. The reason is ext4's
    ``auto_da_alloc``: renaming a file whose blocks are still delayed-
    allocation over an existing name makes the kernel allocate them and
    start writeback inside the rename. On an ext4 root of a 2-core VM,
    replacing a 2.76 MB cavity field took 2.7-3.9 ms that way and 1.1-1.2 ms
    preallocated (traced runs in BENCH_24.json).
    Where the OS or filesystem cannot preallocate, the bytes are written
    without it.

    The rename keeps the write atomic against a failed or killed process.
    Nothing here calls fsync, so durability against power loss is not
    promised: without the rename's flush, a file replaced just before a
    power cut may read back as zeros. Every reader rejects such a file:
    SNP1/ROM1 by their magic, a history CSV or manifest by its header or
    line checks.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as handle:
            _preallocate(handle, sum(memoryview(chunk).nbytes for chunk in chunks))
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise PersistenceError(path, f"cannot write {what} ({exc})") from exc


def _write_csv(path, rows, what: str = "CSV") -> None:
    """Write ``rows``, each a sequence of cells, to ``path`` as CSV lines, like _write_file."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    _write_file(path, what, [text.getvalue().encode("utf-8")])


def _read_file(path, what: str, magic: bytes, version: int, header: struct.Struct, n_floats):
    """Header fields after magic and version, and the float64 payload they size.

    The payload of ``n_floats(*fields)`` floats is checked against the file
    size before it is allocated, then read once. Raises ValueError, its
    message starting with ``path``, on a bad magic/version or a size
    mismatch, and PersistenceError naming ``what`` when the file cannot be
    read.
    """
    tag = magic.decode("ascii")
    try:
        with open(path, "rb") as handle:
            size = os.fstat(handle.fileno()).st_size
            head = handle.read(header.size)
            if len(head) < 4:
                raise ValueError(f"{path}: file shorter than its magic tag")
            if head[:4] != magic:
                # "an SNP1 file" is read letter by letter, "a ROM1 file" as a word
                raise ValueError(f"{path}: not {'an' if tag[0] == 'S' else 'a'} {tag} file")
            if len(head) < header.size:
                raise ValueError(f"{path}: truncated header")
            _, found, *fields = header.unpack(head)
            if found != version:
                raise ValueError(f"{path}: unsupported {tag} version {found}")
            expected = 8 * n_floats(*fields)
            if size - header.size != expected:
                raise ValueError(
                    f"{path}: payload holds {size - header.size} bytes, header implies {expected}"
                )
            payload = np.empty(expected // 8, dtype="<f8")
            got = handle.readinto(payload)
            if got != expected:
                raise ValueError(f"{path}: read {got} payload bytes, header implies {expected}")
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
        value = float(self.param_value)
        if not math.isfinite(value):
            raise ValueError(f"param_value must be finite, got {value!r}")
        shape = (self.grid.n_cells, self.times.n_steps)
        vals = _frozen_array(self.values, shape, order="K")
        if not _all_finite(vals):
            raise ValueError("snapshot values must all be finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "param_kind", ParamKind(self.param_kind))
        object.__setattr__(self, "param_value", value)


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
    Raises ValueError, its message starting with ``path``, on a bad
    magic/version or when header and payload disagree, and PersistenceError
    when the file cannot be read.
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
        raise ValueError(f"{path}: inconsistent header or payload ({exc})") from exc


def build_mask(grid: Grid, rect) -> np.ndarray:
    """Increasing int64 row indices of the cells with center strictly inside ``rect``.

    ``rect`` is (x_min, x_max, y_min, y_max). Raises ValueError for a
    degenerate rectangle and when no center lies inside.
    """
    x_min, x_max, y_min, y_max = (float(v) for v in rect)
    if not (x_min < x_max and y_min < y_max):
        raise ValueError(f"degenerate observation rectangle {rect}")
    cx, cy = grid.cell_centers()
    inside = (cx > x_min) & (cx < x_max) & (cy > y_min) & (cy < y_max)
    indices = np.flatnonzero(inside)
    if indices.size == 0:
        raise ValueError(f"rectangle {rect} contains no cell centers")
    return indices
