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
operates on; the two global bases never change between queries.

SVD signs are pinned deterministically: within each left singular vector the
entry of largest magnitude is made nonnegative (first index wins ties), with
the matching right singular vector flipped to preserve the product.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass

import numpy as np

from .dataset import (
    Grid,
    ParamKind,
    SnapshotMatrix,
    TimeAxis,
    _column_major,
    _frozen_array,
    _read_file,
    _write_file,
)
from .errors import CorruptionError

_MAGIC = b"ROM1"
_VERSION = 1
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
    singular_values: np.ndarray  # (q,) nonincreasing
    grid: Grid
    times: TimeAxis
    param_kind: ParamKind
    param_value: float

    def __post_init__(self) -> None:
        s = _frozen_array(self.spatial_modes)
        t = _frozen_array(self.temporal_coeffs)
        sv = _frozen_array(self.singular_values)
        if s.ndim != 2 or t.ndim != 2 or sv.ndim != 1:
            raise ValueError("malformed factor shapes")
        q = s.shape[1]
        if t.shape[1] != q or sv.shape[0] != q:
            raise ValueError("factor ranks disagree")
        if np.any(np.diff(sv) > 0.0):
            raise ValueError("singular values must be nonincreasing")
        object.__setattr__(self, "spatial_modes", s)
        object.__setattr__(self, "temporal_coeffs", t)
        object.__setattr__(self, "singular_values", sv)

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
        spatial,
        temporal,
        sv[:q],
        matrix.grid,
        matrix.times,
        matrix.param_kind,
        matrix.param_value,
    )


@dataclass(frozen=True, eq=False)
class RomDatabase:
    """Compressed ensemble: shared bases plus per-sample projection blocks."""

    spatial_basis: np.ndarray     # (n_cells, r), orthonormal columns
    temporal_basis: np.ndarray    # (n_steps, s), orthonormal columns
    spatial_blocks: tuple         # n_params arrays of shape (r, q)
    temporal_blocks: tuple        # n_params arrays of shape (s, q)
    params: np.ndarray            # strictly increasing parameter values
    q: int
    r: int
    s: int
    grid: Grid
    times: TimeAxis
    param_kind: ParamKind

    def __post_init__(self) -> None:
        params = _frozen_array(self.params)
        if params.ndim != 1 or params.size < 1:
            raise ValueError("params must be a nonempty 1D array")
        if np.any(np.diff(params) <= 0.0):
            raise ValueError("params must be strictly increasing")
        sb = _frozen_array(self.spatial_basis, (self.grid.n_cells, self.r))
        tb = _frozen_array(self.temporal_basis, (self.times.n_steps, self.s))
        sp = tuple(_frozen_array(b, (self.r, self.q)) for b in self.spatial_blocks)
        tp = tuple(_frozen_array(b, (self.s, self.q)) for b in self.temporal_blocks)
        if len(sp) != params.size or len(tp) != params.size:
            raise ValueError("block count must match parameter count")
        object.__setattr__(self, "spatial_basis", sb)
        object.__setattr__(self, "temporal_basis", tb)
        object.__setattr__(self, "spatial_blocks", sp)
        object.__setattr__(self, "temporal_blocks", tp)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "param_kind", ParamKind(self.param_kind))

    @property
    def n_params(self) -> int:
        return int(self.params.size)

    @property
    def hull(self) -> tuple[float, float]:
        return float(self.params[0]), float(self.params[-1])


def two_level_compress(pairs, r: int, s: int) -> RomDatabase:
    """Compress an ensemble of per-sample factorizations into a RomDatabase.

    Parameters
    ----------
    pairs : sequence of PodPair
        One factorization per sample, all with identical grid, time axis,
        parameter kind and order q, listed in strictly increasing order of
        their parameter values.
    r, s : int
        Ranks of the global spatial and temporal bases,
        1 <= r <= min(q * n_params, n_cells) and
        1 <= s <= min(q * n_params, n_steps).
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
    n_cells = first.grid.n_cells
    n_steps = first.times.n_steps
    if not 1 <= r <= min(q * len(pairs), n_cells):
        raise ValueError(f"r must lie in [1, {min(q * len(pairs), n_cells)}], got {r}")
    if not 1 <= s <= min(q * len(pairs), n_steps):
        raise ValueError(f"s must lie in [1, {min(q * len(pairs), n_steps)}], got {s}")

    stacked_spatial = np.hstack([p.spatial_modes for p in pairs])
    stacked_temporal = np.hstack([p.temporal_coeffs for p in pairs])
    us, _, vts = np.linalg.svd(stacked_spatial, full_matrices=False)
    ut, _, vtt = np.linalg.svd(stacked_temporal, full_matrices=False)
    spatial_basis, temporal_basis = us[:, :r], ut[:, :s]
    _fix_svd_signs(spatial_basis, vts[:r])
    _fix_svd_signs(temporal_basis, vtt[:s])
    spatial_blocks = tuple(spatial_basis.T @ p.spatial_modes for p in pairs)
    temporal_blocks = tuple(temporal_basis.T @ p.temporal_coeffs for p in pairs)
    return RomDatabase(
        spatial_basis,
        temporal_basis,
        spatial_blocks,
        temporal_blocks,
        params,
        q,
        r,
        s,
        first.grid,
        first.times,
        first.param_kind,
    )


def default_rank(q: int, n_params: int, n_cells: int, n_steps: int) -> tuple[int, int]:
    """Lossless default ranks: keep the full stacked column space."""
    r = min(q * n_params, n_cells)
    s = min(q * n_params, n_steps)
    return r, s


def compress_ensemble(matrices, q: int, r: int | None = None, s: int | None = None) -> RomDatabase:
    """Factorize and compress an ensemble of SnapshotMatrix in one call.

    ``matrices`` may be any iterable, a generator included: each matrix is
    factorized as it arrives and dropped, so only its PodPair stays alive
    and a generator that reads samples from disk holds one at a time. The
    pairs are sorted by parameter value; ranks default to
    min(q * n_params, matrix dimension), which keeps the stacked column
    spaces exactly.
    """
    pairs = sorted((pod_factorize(m, q) for m in matrices), key=lambda p: p.param_value)
    if not pairs:
        raise ValueError("need at least one snapshot matrix")
    dr, ds = default_rank(q, len(pairs), pairs[0].grid.n_cells, pairs[0].times.n_steps)
    return two_level_compress(pairs, dr if r is None else r, ds if s is None else s)


def truncate_blocks(db: RomDatabase, m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """First ``m`` columns of every sample's block pair, 1 <= m <= q.

    Columns are ordered by the parent factorization's energy, so truncation
    keeps each sample's dominant directions.
    """
    if not 1 <= m <= db.q:
        raise ValueError(f"m must lie in [1, {db.q}], got {m}")
    return [
        (sb[:, :m], tb[:, :m]) for sb, tb in zip(db.spatial_blocks, db.temporal_blocks)
    ]


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
    values = reconstruct_field(db, *truncate_blocks(db, m)[k])
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
    blocks = itertools.chain.from_iterable(zip(db.spatial_blocks, db.temporal_blocks))
    pieces = itertools.chain((db.params, db.spatial_basis, db.temporal_basis), blocks)
    # each piece is copied to file order only when it is written
    _write_file(path, "ROM file", itertools.chain((header,), map(_column_major, pieces)))


def read_rom(path) -> RomDatabase:
    """Load a RomDatabase from a ROM1 file, validating header consistency.

    A payload holding a NaN or an infinity raises CorruptionError.
    """
    (q, r, s, n_params, nx, ny, n_steps, lx, ly, t_final, kind), data = _read_file(
        path, "ROM file", _MAGIC, _VERSION, _HEADER,
        lambda q, r, s, n, nx, ny, nt, *_: n + nx * ny * r + nt * s + n * q * (r + s),
    )
    if not np.isfinite(data).all():
        raise CorruptionError(f"{path}: payload holds a non-finite value")
    # the pieces are views of the payload; RomDatabase takes C-order copies of them
    shapes = [(nx * ny, r), (n_steps, s), *[(r, q), (s, q)] * n_params]
    params, *flat = np.split(data, np.cumsum([n_params] + [a * b for a, b in shapes[:-1]]))
    try:
        spatial_basis, temporal_basis, *blocks = (
            piece.reshape(shape, order="F") for piece, shape in zip(flat, shapes)
        )
        return RomDatabase(
            spatial_basis,
            temporal_basis,
            tuple(blocks[0::2]),
            tuple(blocks[1::2]),
            params,
            q,
            r,
            s,
            Grid(nx, ny, lx, ly),
            TimeAxis(n_steps, t_final),
            ParamKind(kind),
        )
    except ValueError as exc:
        raise CorruptionError(f"{path}: inconsistent header or payload ({exc})") from exc
