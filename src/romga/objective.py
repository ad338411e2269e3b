"""Discrepancy measures between predicted and target temperature histories."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dataset import SnapshotMatrix
from .errors import EmptyMaskError
from .pod import RomDatabase

# Largest entry of |T.T @ T - I| that reduced_cost's identity with the lifted
# cost tolerates; the bases two_level_compress builds are off by a few 1e-15.
ORTHONORMALITY_TOL = 1.0e-10


class ProjectedTarget(NamedTuple):
    """The parts of the masked cost that depend only on the target.

    With B the spatial basis restricted to the mask, T the temporal basis, w
    the grid's cell area and Y the masked target values: sqrt(w) * B =
    Q @ factor is a reduced QR, projected = Q.T @ (sqrt(w) * Y) @ T, and
    residual is the squared Frobenius norm of sqrt(w) * Y - Q @ projected @
    T.T, the part of the target no prediction of the ROM can reach.
    """

    factor: np.ndarray     # (k, r), k = min(n_mask, r)
    projected: np.ndarray  # (k, s)
    residual: float
    n_steps: int


def project_target(db: RomDatabase, target: SnapshotMatrix, rows: np.ndarray) -> ProjectedTarget:
    """Project the ``rows`` of ``target`` onto the bases of ``db``, once per search.

    ``rows`` are the observed cells, as build_mask returns them: a 1D,
    strictly increasing integer array. Raises EmptyMaskError when ``rows``
    is empty, ValueError when the target or the rows do not fit the
    database (the target must vary the database's parameter kind, on its
    grid and time axis) or the temporal basis columns are not orthonormal
    (reduced_cost relies on T.T @ T = I), and np.linalg.LinAlgError when a
    projected piece is not finite.
    """
    if target.grid != db.grid or target.times != db.times:
        raise ValueError("target snapshot grid/time axis does not match the ROM")
    if target.param_kind != db.param_kind:
        raise ValueError(
            f"target is a {target.param_kind.name.lower()} run, the ROM was built from"
            f" {db.param_kind.name.lower()} runs"
        )
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError(f"mask rows must be a 1D integer array, got {rows.dtype} {rows.shape}")
    if rows.size == 0:
        raise EmptyMaskError("mask selects no cells, so every prediction would cost the same")
    if np.any(rows[1:] <= rows[:-1]):
        raise ValueError("mask rows must be strictly increasing")
    if rows[0] < 0 or rows[-1] >= db.grid.n_cells:
        raise ValueError("mask indices out of range for the database grid")
    temporal = db.temporal_basis
    gram = temporal.T @ temporal
    root_w = np.sqrt(db.grid.cell_area)
    q, factor = np.linalg.qr(root_w * db.spatial_basis[rows])
    weighted = root_w * target.values[rows]
    # einsum sums over the mask rows in one fixed order; a threaded BLAS
    # product would split them by thread count and move the search's costs
    projected = np.einsum("ki,kj->ij", q, weighted @ temporal)
    leftover = weighted - (q @ projected) @ temporal.T
    residual = float(np.sum(leftover * leftover))
    pieces = (gram, factor, projected, residual)
    if not all(np.isfinite(piece).all() for piece in pieces):
        raise np.linalg.LinAlgError("target projection is not finite")
    defect = float(np.abs(gram - np.eye(db.s)).max())
    if defect > ORTHONORMALITY_TOL:
        raise ValueError(
            f"temporal basis columns are not orthonormal (max |T.T @ T - I| = {defect!r})"
        )
    return ProjectedTarget(factor, projected, residual, db.times.n_steps)


def reduced_cost(
    spatial_factor: np.ndarray, temporal_factor: np.ndarray, projection: ProjectedTarget
) -> float:
    """The masked cost of the prediction B @ spatial_factor @ temporal_factor.T @ T.T.

    Equal to the masked cost of reconstruct_field(db, ...)[rows], as
    ``cost`` in tests/masked_cost.py defines it, without lifting the
    prediction: with orthonormal Q and T the lifted misfit splits into
    ||factor @ spatial_factor @ temporal_factor.T - projected||_F**2 plus
    the residual, two sums of squares. Raises np.linalg.LinAlgError when
    the cost is not finite, as when factors of huge magnitude overflow it.
    """
    r, m = spatial_factor.shape
    s = projection.projected.shape[1]
    if r != projection.factor.shape[1] or temporal_factor.shape != (s, m):
        raise ValueError(
            f"factors must be ({projection.factor.shape[1]}, m) and ({s}, m),"
            f" got {spatial_factor.shape} and {temporal_factor.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        diff = (projection.factor @ spatial_factor) @ temporal_factor.T - projection.projected
        # einsum sums in one fixed order without a temporary; a BLAS dot would
        # split the sum by thread count
        cost = float((np.einsum("ij,ij->", diff, diff) + projection.residual) / projection.n_steps)
    if not math.isfinite(cost):
        raise np.linalg.LinAlgError("search cost is not finite")
    return cost


def l2_error_series(predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-instant L2 percentage error over the full field.

    e[l] = 100 * ||predicted[:, l] - target[:, l]|| / ||target[:, l]||.
    Column-major copies fix the summation order whatever the inputs' layout.
    Raises ValueError when shapes differ or a target column has zero norm.
    """
    predicted = np.asfortranarray(predicted, dtype=np.float64)
    target = np.asfortranarray(target, dtype=np.float64)
    if predicted.shape != target.shape or predicted.ndim != 2:
        raise ValueError("predicted and target must share a 2D shape")
    denom = np.linalg.norm(target, axis=0)
    if np.any(denom == 0.0):
        raise ValueError("target columns must have nonzero norm")
    return 100.0 * np.linalg.norm(predicted - target, axis=0) / denom
