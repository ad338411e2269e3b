"""Two-level proper orthogonal decomposition of a parametrized ensemble.

Level one factorizes every sample Y_k (n_cells x n_steps) through a truncated
SVD into spatial modes S_k with orthonormal columns and temporal coefficients
T_k carrying the singular values, so Y_k ~ S_k @ T_k.T. Level two compresses
the ensemble jointly: the horizontally stacked spatial modes of all samples
get their own rank-r orthonormal basis (the global spatial basis), the
stacked temporal coefficients a rank-s one (the global temporal basis), and
each sample is reduced to the pair of small projection blocks

    spatial_block_k  = spatial_basis.T  @ S_k     (r x q)
    temporal_block_k = temporal_basis.T @ T_k     (s x q)

so that Y_k ~ spatial_basis @ spatial_block_k @ temporal_block_k.T
@ temporal_basis.T. The blocks are what the barycentric interpolation
operates on; the two global bases never change between queries. r and s
count the singular values of the stacked matrices above sigma_1 * RANK_RTOL,
far above rounding: the dropped directions carry about 1e-10 of a sample,
which no result uses but every lift and search cost would pay for.

pod_factorize returns the two factor arrays alone and two_level_compress
takes them as plain lists: compress_ensemble is the one place that holds a
sample's grid, time axis, kind and value, and checks each sample against the
first before factorizing it.

SVD signs are pinned deterministically: within each left singular vector the
entry of largest magnitude is made nonnegative (first index wins ties), with
the matching right singular vector flipped to preserve the product.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .dataset import (
    Grid,
    ParamKind,
    SnapshotMatrix,
    TimeAxis,
    _all_finite,
    _file_bytes,
    _frozen_array,
    _Handover,
    _read_file,
    _write_file,
)
from .errors import CorruptionError

_MAGIC = b"ROM1"
_VERSION = 2
# magic, version, q, r, s, n_params, nx, ny, n_steps, lx, ly, t_final, param_kind
_HEADER = struct.Struct("<4sIIIIIIIQdddB")
# level-2 singular values at or below sigma_1 * RANK_RTOL are dropped
RANK_RTOL = 1e-10


def _fix_svd_signs(u: np.ndarray, vt: np.ndarray) -> None:
    """Make the largest-magnitude entry of each left singular vector >= 0.

    ``u`` and ``vt`` may be views of the kept columns and rows only: each
    column flips on its own, by an in-place product with a +-1 vector.
    """
    lead = np.abs(u).argmax(axis=0)
    signs = np.where(u[lead, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    u *= signs
    vt *= signs[:, None]


def pod_factorize(matrix: SnapshotMatrix, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated SVD of one snapshot matrix at order ``q``.

    Parameters
    ----------
    matrix : SnapshotMatrix
        Sample to factorize.
    q : int
        Number of retained modes, 1 <= q <= min(n_cells, n_steps).

    Returns
    -------
    (spatial_modes, temporal_coeffs) : (n_cells, q) and (n_steps, q) C-order arrays
        ``spatial_modes`` holds the first q left singular vectors (signs
        pinned), ``temporal_coeffs`` the matching right singular vectors
        scaled by their singular values, so its column norms are the
        singular values. Each owns its memory: the SVD's factors are dropped.
        ||Y - S @ T.T||_F**2 == sum of the squared discarded singular values.
    """
    limit = min(matrix.values.shape)
    if not 1 <= q <= limit:
        raise ValueError(f"q must lie in [1, {limit}], got {q}")
    u, sv, vt = np.linalg.svd(matrix.values, full_matrices=False)
    spatial, temporal = u[:, :q], vt[:q]
    _fix_svd_signs(spatial, temporal)
    return np.ascontiguousarray(spatial), np.ascontiguousarray(temporal.T * sv[:q])


@dataclass(frozen=True, eq=False)
class RomDatabase:
    """Compressed ensemble: two shared bases, one block stack per side; q, r, s from the shapes.

    The constructor keeps C-order copies of the arrays it is given; read_rom
    hands over views of the one buffer it read, which are kept themselves.
    Every array must be finite, so a database that is written can be read.
    """

    spatial_basis: np.ndarray     # (n_cells, r), orthonormal columns
    temporal_basis: np.ndarray    # (n_steps, s), orthonormal columns
    spatial_blocks: np.ndarray    # (n_params, r, q); [k] is sample k's block, a list is stacked
    temporal_blocks: np.ndarray   # (n_params, s, q)
    params: np.ndarray            # strictly increasing parameter values
    grid: Grid
    times: TimeAxis
    param_kind: ParamKind

    def __post_init__(self) -> None:
        params = _frozen_array(self.params)
        if params.ndim != 1 or params.size < 1:
            raise ValueError("params must be a nonempty 1D array")
        if not _all_finite(params):
            raise ValueError("params must be finite")
        if np.any(np.diff(params) <= 0.0):
            raise ValueError("params must be strictly increasing")
        names = ("spatial_basis", "temporal_basis", "spatial_blocks", "temporal_blocks")
        arrays = [_frozen_array(getattr(self, name)) for name in names]
        if [a.ndim for a in arrays] != [2, 2, 3, 3]:
            raise ValueError("bases must be 2D arrays and block stacks 3D")
        n, r, s, q = params.size, arrays[0].shape[1], arrays[1].shape[1], arrays[2].shape[2]
        if min(q, r, s) < 1:
            raise ValueError(f"q, r and s must be at least 1, got q={q} r={r} s={s}")
        shapes = ((self.grid.n_cells, r), (self.times.n_steps, s), (n, r, q), (n, s, q))
        for name, arr, shape in zip(names, arrays, shapes):
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not _all_finite(arr):
                raise ValueError(f"{name} holds a non-finite value")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "param_kind", ParamKind(self.param_kind))

    @property
    def q(self) -> int:
        return int(self.spatial_blocks.shape[2])

    @property
    def r(self) -> int:
        return int(self.spatial_basis.shape[1])

    @property
    def s(self) -> int:
        return int(self.temporal_basis.shape[1])

    @property
    def n_params(self) -> int:
        return int(self.params.size)

    @property
    def hull(self) -> tuple[float, float]:
        return float(self.params[0]), float(self.params[-1])


def _numerical_rank(sv: np.ndarray) -> int:
    """Singular values above sv[0] * RANK_RTOL, at least one."""
    return max(1, int(np.count_nonzero(sv > sv[0] * RANK_RTOL)))


def two_level_compress(spatial_modes, temporal_coeffs) -> tuple[np.ndarray, ...]:
    """Compress per-sample factorizations into two global bases and per-sample blocks.

    ``spatial_modes`` and ``temporal_coeffs`` are sequences holding each
    sample's (n_cells, q) and (n_steps, q) factors, listed in one order. The
    ranks r and s of the global spatial and temporal bases count the singular
    values of the stacked factors above sigma_1 * RANK_RTOL, at least 1. Each
    sample then rebuilds its rank-q factorization to about RANK_RTOL, relative.

    Returns ``(spatial_basis, temporal_basis, spatial_blocks,
    temporal_blocks)``: the (n_cells, r) and (n_steps, s) bases and the
    lists of (r, q) and (s, q) blocks, in the order of the samples.
    """
    stacked_spatial = np.hstack(spatial_modes)
    stacked_temporal = np.hstack(temporal_coeffs)
    us, svs, vts = np.linalg.svd(stacked_spatial, full_matrices=False)
    ut, svt, vtt = np.linalg.svd(stacked_temporal, full_matrices=False)
    r, s = _numerical_rank(svs), _numerical_rank(svt)
    spatial_basis, temporal_basis = us[:, :r], ut[:, :s]
    _fix_svd_signs(spatial_basis, vts[:r])
    _fix_svd_signs(temporal_basis, vtt[:s])
    return (
        spatial_basis,
        temporal_basis,
        [spatial_basis.T @ modes for modes in spatial_modes],
        [temporal_basis.T @ coeffs for coeffs in temporal_coeffs],
    )


def compress_ensemble(matrices, q: int) -> RomDatabase:
    """Factorize and compress an ensemble of SnapshotMatrix in one call.

    ``matrices`` may be any iterable, a generator included: each matrix is
    checked against the first one's grid, time axis and parameter kind,
    factorized as it arrives and dropped, so only its factors stay alive
    and a generator that reads samples from disk holds one at a time. The
    factors are sorted by parameter value and handed to two_level_compress,
    which derives the ranks r and s; RomDatabase rejects a repeated value.
    """
    samples, shared = [], None
    for matrix in matrices:
        if shared is None:
            shared = (matrix.grid, matrix.times, matrix.param_kind)
        if (matrix.grid, matrix.times) != shared[:2]:
            raise ValueError("all samples must share grid and time axis")
        if matrix.param_kind != shared[2]:
            raise ValueError("all samples must share the parameter kind")
        samples.append((matrix.param_value, *pod_factorize(matrix, q)))
    if shared is None:
        raise ValueError("need at least one sample")
    params, spatial_modes, temporal_coeffs = zip(*sorted(samples, key=lambda sample: sample[0]))
    return RomDatabase(*two_level_compress(spatial_modes, temporal_coeffs), params, *shared)


def reconstruct_field(db: RomDatabase, spatial: np.ndarray, temporal: np.ndarray) -> np.ndarray:
    """Lift a factor pair to field values: (spatial_basis @ S) @ (temporal_basis @ K).T.

    ``spatial`` is (r, m) and ``temporal`` (s, m): an interpolated
    prediction's factors or a training sample's truncated block pair. The
    (n_cells, n_steps) result is column-major, the order SNP1 files store,
    so writing it out needs no copy.
    """
    spatial = np.asarray(spatial, dtype=np.float64)
    temporal = np.asarray(temporal, dtype=np.float64)
    if spatial.ndim != 2 or spatial.shape[0] != db.r or temporal.shape != (db.s, spatial.shape[1]):
        raise ValueError(
            f"factor pair must be (r, m) and (s, m) with r={db.r}, s={db.s},"
            f" got {spatial.shape} and {temporal.shape}"
        )
    return ((db.temporal_basis @ temporal) @ (db.spatial_basis @ spatial).T).T


def reconstruct_sample(db: RomDatabase, k: int, m: int) -> SnapshotMatrix:
    """Rebuild training sample ``k`` from its blocks truncated to order ``m``."""
    if not 0 <= k < db.n_params:
        raise ValueError(f"sample index {k} out of range [0, {db.n_params})")
    if not 1 <= m <= db.q:
        raise ValueError(f"m must lie in [1, {db.q}], got {m}")
    values = reconstruct_field(db, db.spatial_blocks[k, :, :m], db.temporal_blocks[k, :, :m])
    return SnapshotMatrix(db.grid, db.times, db.param_kind, float(db.params[k]), values)


def write_rom(db: RomDatabase, path) -> None:
    """Serialize a RomDatabase to ``path`` in the ROM1 layout."""
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        db.q,
        db.r,
        db.s,
        db.n_params,
        db.grid.nx,
        db.grid.ny,
        db.times.n_steps,
        db.grid.lx,
        db.grid.ly,
        db.times.t_final,
        int(db.param_kind),
    )
    pieces = (db.params, db.spatial_basis, db.temporal_basis, db.spatial_blocks, db.temporal_blocks)
    # the database holds every piece in file order, so nothing is copied
    _write_file(path, "ROM file", (header, *(_file_bytes(a, "C") for a in pieces)))


def read_rom(path) -> RomDatabase:
    """Load a RomDatabase from a ROM1 file, validating header consistency.

    A payload holding a NaN or an infinity raises CorruptionError.
    """
    (q, r, s, n_params, nx, ny, n_steps, lx, ly, t_final, kind), data = _read_file(
        path, "ROM file", _MAGIC, _VERSION, _HEADER,
        lambda q, r, s, n, nx, ny, nt, *_: n + nx * ny * r + nt * s + n * q * (r + s),
    )
    # C-order views of the one payload, which RomDatabase keeps without a copy
    ends = np.cumsum([n_params, nx * ny * r, n_steps * s, n_params * r * q])
    shapes = ((n_params,), (nx * ny, r), (n_steps, s), (n_params, r, q), (n_params, s, q))
    params, *arrays = (_Handover(a.reshape(shape)) for a, shape in zip(np.split(data, ends), shapes))
    try:
        return RomDatabase(
            *arrays,
            params,
            Grid(nx, ny, lx, ly),
            TimeAxis(n_steps, t_final),
            ParamKind(kind),
        )
    except ValueError as exc:
        raise CorruptionError(f"{path}: inconsistent header or payload ({exc})") from exc
