"""Discrepancy measures between predicted and target temperature histories."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import RegionMask, TimeAxis, _frozen_array
from .pod import RomDatabase

# Additive guard in the fitness transform keeps a perfect match finite.
FITNESS_GUARD = 1.0e-12

# Largest entry of |T.T @ T - I| that reduced_cost's identity with the lifted
# cost tolerates; the bases two_level_compress builds are off by a few 1e-15.
ORTHONORMALITY_TOL = 1.0e-10


@dataclass(frozen=True, eq=False)
class Target:
    """Reference field history restricted to an observation mask.

    ``values`` holds one row per masked cell (same order as mask.indices)
    and one column per sampling instant.
    """

    values: np.ndarray
    mask: RegionMask
    times: TimeAxis

    def __post_init__(self) -> None:
        vals = _frozen_array(self.values, (self.mask.n_cells, self.times.n_steps))
        if not np.isfinite(vals).all():
            raise ValueError("target values must all be finite")
        object.__setattr__(self, "values", vals)


class ProjectedTarget(NamedTuple):
    """The parts of the masked cost that depend only on the target.

    With B the spatial basis restricted to the mask, T the temporal basis, w
    the mask weights and Y the target values: sqrt(w) * B = Q @ factor is a
    reduced QR, projected = Q.T @ (sqrt(w) * Y) @ T, and residual is the
    squared Frobenius norm of sqrt(w) * Y - Q @ projected @ T.T, the part of
    the target no prediction of the ROM can reach.
    """

    factor: np.ndarray     # (k, r), k = min(n_mask, r)
    projected: np.ndarray  # (k, s)
    residual: float
    n_steps: int


def project_target(db: RomDatabase, target: Target) -> ProjectedTarget:
    """Project ``target`` onto the bases of ``db``, once per search.

    Raises ValueError when the target does not fit the database or the
    temporal basis columns are not orthonormal (reduced_cost relies on
    T.T @ T = I), and np.linalg.LinAlgError when a projected piece is not
    finite.
    """
    if target.times != db.times:
        raise ValueError("target time axis must match the database")
    rows = target.mask.indices
    if rows.size and (rows.min() < 0 or rows.max() >= db.grid.n_cells):
        raise ValueError("mask indices out of range for the database grid")
    temporal = db.temporal_basis
    gram = temporal.T @ temporal
    root_w = np.sqrt(target.mask.weights)[:, None]
    q, factor = np.linalg.qr(root_w * db.spatial_basis[rows])
    weighted = root_w * target.values
    projected = (q.T @ weighted) @ temporal
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
    return ProjectedTarget(factor, projected, residual, target.times.n_steps)


def reduced_cost(
    spatial_factor: np.ndarray, temporal_factor: np.ndarray, projection: ProjectedTarget
) -> float:
    """The masked cost of the prediction B @ spatial_factor @ temporal_factor.T @ T.T.

    Equal to the masked cost of reconstruct_field(db, ...)[mask.indices], as
    ``cost`` in tests/masked_cost.py defines it, without lifting the
    prediction: with orthonormal Q and T the lifted misfit splits into
    ||factor @ spatial_factor @ temporal_factor.T - projected||_F**2 plus
    the residual, two sums of squares.
    """
    r, m = spatial_factor.shape
    s = projection.projected.shape[1]
    if r != projection.factor.shape[1] or temporal_factor.shape != (s, m):
        raise ValueError(
            f"factors must be ({projection.factor.shape[1]}, m) and ({s}, m),"
            f" got {spatial_factor.shape} and {temporal_factor.shape}"
        )
    diff = (projection.factor @ spatial_factor) @ temporal_factor.T - projection.projected
    return float((np.sum(diff * diff) + projection.residual) / projection.n_steps)


def fitness(cost_value: float) -> float:
    """Monotone map from cost to selection fitness: 1 / (cost + guard)."""
    if cost_value < 0.0:
        raise ValueError("cost must be nonnegative")
    return 1.0 / (cost_value + FITNESS_GUARD)


def l2_error_series(predicted: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-instant L2 percentage error over the full field.

    e[l] = 100 * ||predicted[:, l] - target[:, l]|| / ||target[:, l]||.
    Raises ValueError when shapes differ or a target column has zero norm.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if predicted.shape != target.shape or predicted.ndim != 2:
        raise ValueError("predicted and target must share a 2D shape")
    denom = np.linalg.norm(target, axis=0)
    if np.any(denom == 0.0):
        raise ValueError("target columns must have nonzero norm")
    return 100.0 * np.linalg.norm(predicted - target, axis=0) / denom
