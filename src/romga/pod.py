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
are the numerical ranks of the two stacked matrices: the directions whose
singular values lie at rounding level are dropped, since every sample
rebuilds to rounding without them and every lift and search cost would
carry them.

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


def _fix_svd_signs(u: np.ndarray, vt: np.ndarray) -> None:
    """Make the largest-magnitude entry of each left singular vector >= 0.

    ``u`` and ``vt`` may be views of the kept columns and rows only: each
    column flips on its own, by an in-place product with a +-1 vector.
    """
    lead = np.abs(u).argmax(axis=0)
    signs = np.where(u[lead, np.arange(u.shape[1])] < 0.0, -1.0, 1.0)
    u *= signs
    vt *= signs[:, None]


@dataclass(frozen=True, eq=False)
class PodPair:
    """Rank-q factorization of one sample: values ~ spatial_modes @ temporal_coeffs.T.

    spatial_modes has orthonormal columns; temporal_coeffs carries the
    singular values, so its column norms are the singular values themselves.
    Sample metadata rides along for later reassembly.
    """

    spatial_modes: np.ndarray   # (n_cells, q)
    temporal_coeffs: np.ndarray  # (n_steps, q)
    grid: Grid
    times: TimeAxis
    param_kind: ParamKind
    param_value: float

    def __post_init__(self) -> None:
        s = _frozen_array(self.spatial_modes)
        t = _frozen_array(self.temporal_coeffs)
        if s.ndim != 2 or t.ndim != 2:
            raise ValueError("malformed factor shapes")
        if t.shape[1] != s.shape[1]:
            raise ValueError("factor ranks disagree")
        object.__setattr__(self, "spatial_modes", s)
        object.__setattr__(self, "temporal_coeffs", t)

    @property
    def q(self) -> int:
        return int(self.spatial_modes.shape[1])


def pod_factorize(matrix: SnapshotMatrix, q: int) -> PodPair:
    """Truncated SVD of one snapshot matrix at order ``q``.

    Parameters
    ----------
    matrix : SnapshotMatrix
        Sample to factorize.
    q : int
        Number of retained modes, 1 <= q <= min(n_cells, n_steps).

    Returns
    -------
    PodPair
        With ``spatial_modes`` the first q left singular vectors (signs
        pinned), ``temporal_coeffs`` the matching right singular vectors
        scaled by their singular values. The reconstruction error satisfies
        ||Y - S @ T.T||_F**2 == sum of the squared discarded singular values.
    """
    n_cells, n_steps = matrix.values.shape
    limit = min(n_cells, n_steps)
    if not 1 <= q <= limit:
        raise ValueError(f"q must lie in [1, {limit}], got {q}")
    u, sv, vt = np.linalg.svd(matrix.values, full_matrices=False)
    spatial, temporal = u[:, :q], vt[:q]
    _fix_svd_signs(spatial, temporal)
    temporal = temporal.T * sv[:q]
    return PodPair(
        spatial, temporal, matrix.grid, matrix.times, matrix.param_kind, matrix.param_value
    )


@dataclass(frozen=True, eq=False)
class RomDatabase:
    """Compressed ensemble: two shared bases, one block stack per side; q, r, s from the shapes.

    The constructor keeps C-order copies of the arrays it is given; read_rom
    hands over views of the one buffer it read, which are kept themselves.
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
        if not np.isfinite(params).all():
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


def _numerical_rank(sv: np.ndarray, shape: tuple[int, int]) -> int:
    """Singular values above numpy's matrix_rank tolerance, at least one."""
    return max(1, int(np.count_nonzero(sv > sv[0] * max(shape) * np.finfo(sv.dtype).eps)))


def two_level_compress(pairs) -> RomDatabase:
    """Compress an ensemble of per-sample factorizations into a RomDatabase.

    The ranks r and s of the global spatial and temporal bases are the
    numerical ranks of the stacked spatial modes and temporal coefficients:
    the count of singular values above sigma_1 * max(rows, cols) * eps, the
    default tolerance of np.linalg.matrix_rank, and at least 1. That keeps
    the stacked column spaces to rounding.

    Parameters
    ----------
    pairs : sequence of PodPair
        One factorization per sample, all with identical grid, time axis,
        parameter kind and order q, listed in strictly increasing order of
        their parameter values.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one factorized sample")
    first = pairs[0]
    q = first.q
    for p in pairs:
        if p.q != q:
            raise ValueError("all samples must share the same order q")
        if p.grid != first.grid or p.times != first.times:
            raise ValueError("all samples must share grid and time axis")
        if p.param_kind != first.param_kind:
            raise ValueError("all samples must share the parameter kind")
    params = np.array([p.param_value for p in pairs])  # RomDatabase checks the order

    stacked_spatial = np.hstack([p.spatial_modes for p in pairs])
    stacked_temporal = np.hstack([p.temporal_coeffs for p in pairs])
    us, svs, vts = np.linalg.svd(stacked_spatial, full_matrices=False)
    ut, svt, vtt = np.linalg.svd(stacked_temporal, full_matrices=False)
    r = _numerical_rank(svs, stacked_spatial.shape)
    s = _numerical_rank(svt, stacked_temporal.shape)
    spatial_basis, temporal_basis = us[:, :r], ut[:, :s]
    _fix_svd_signs(spatial_basis, vts[:r])
    _fix_svd_signs(temporal_basis, vtt[:s])
    return RomDatabase(
        spatial_basis,
        temporal_basis,
        [spatial_basis.T @ p.spatial_modes for p in pairs],
        [temporal_basis.T @ p.temporal_coeffs for p in pairs],
        params,
        first.grid,
        first.times,
        first.param_kind,
    )


def compress_ensemble(matrices, q: int) -> RomDatabase:
    """Factorize and compress an ensemble of SnapshotMatrix in one call.

    ``matrices`` may be any iterable, a generator included: each matrix is
    factorized as it arrives and dropped, so only its PodPair stays alive
    and a generator that reads samples from disk holds one at a time. The
    pairs are sorted by parameter value and handed to two_level_compress,
    which derives the ranks r and s.
    """
    pairs = sorted((pod_factorize(m, q) for m in matrices), key=lambda p: p.param_value)
    return two_level_compress(pairs)


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
    if not _all_finite(data):
        raise CorruptionError(f"{path}: payload holds a non-finite value")
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
