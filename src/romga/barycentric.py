"""Barycentric interpolation of reduced snapshot data at unseen parameters.

Each training sample k contributes a spatial block (r x q) and a temporal
block (s x q); truncated to m columns these span m-dimensional subspaces
that rotate as the parameter moves. A plain weighted sum of the blocks is
meaningless because each block is only defined up to an orthogonal change of
columns, so the interpolation works on aligned representatives instead:
every neighbor block is aligned once, by an orthogonal Procrustes rotation,
to the block of the training sample nearest to the query, and the
prediction is the Lagrange-weighted sum of the aligned blocks. The spatial
and temporal factors are interpolated this way independently.

This is reference-point interpolation (Amsallem & Farhat, AIAA J. 46(7),
2008), and it is the first sweep of the Riemannian barycentric fixed point
that realigns the blocks to each new weighted sum until the rotations settle.
The nearest sample's block is the reference frame and enters the sum as it
is, unrotated. A query placed exactly at a training node therefore
reproduces that node's blocks bit for bit: all Lagrange weights collapse
onto it. No re-orthonormalization happens; the factors are the weighted
sums as they come.

A rotation depends only on the side, the nearest sample j, the neighbor k
and m, never on the query's parameter value. Queries sharing an ``aligned``
dict keep one (n, rows * m) table per (side, j, m), its row k the flattened
B_k @ Q_k once a query needed it. The parameters are sorted, so a query's
neighbors are a contiguous window of rows, summed as one slice.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .pod import RomDatabase


class FixedPointConfig:
    """No settings: perfbench/layers.py::_interp builds one as a default argument."""


class BarycentricResult(NamedTuple):
    """Outcome of one interpolation query.

    The prediction is the factor pair; pod.reconstruct_field lifts it to a field.
    """

    spatial_factor: np.ndarray   # (r, m) weighted sum of the aligned spatial blocks
    temporal_factor: np.ndarray  # (s, m) weighted sum of the aligned temporal blocks
    # constants, not fields: perfbench/layers.py::_interp reads them
    iterations = 1
    converged = True


def _weights(values: list, delta_new: float) -> np.ndarray:
    """Lagrange cardinal weights of the distinct Python floats ``values`` at ``delta_new``.

    weight_k = prod_{i != k} (delta_new - x_i) / (x_k - x_i), in order of i.
    The weights sum to one; a query placed on a node yields the Kronecker
    vector for that node. The nodes are not checked: the sorted, strictly
    increasing parameters of a RomDatabase are distinct.
    """
    # Python floats round like float64 and skip numpy's per-call overhead on a few nodes
    return np.array([
        math.prod((delta_new - x_i) / (x_k - x_i) for i, x_i in enumerate(values) if i != k)
        for k, x_k in enumerate(values)
    ], dtype=np.float64)


def procrustes_align(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Orthogonal matrix Q minimizing ||other @ Q - reference||_F.

    Computed from the SVD of the cross-product reference.T @ other = L D R^T
    as Q = R @ L.T. When ``other`` spans the same subspace as ``reference``
    (other = reference @ G for orthogonal G) the alignment is exact:
    other @ Q == reference. A rank-deficient cross-product makes the
    minimizer non-unique; the returned Q is then still a valid choice. A
    non-finite cross-product raises LinAlgError: its SVD may never return.
    ``other`` may stack such matrices on leading axes: one SVD call then
    gives one Q per matrix, each the bits of a 2D call on it.
    """
    reference = np.asarray(reference, dtype=np.float64)
    other = np.asarray(other, dtype=np.float64)
    if reference.ndim != 2 or other.shape[-2:] != reference.shape:
        raise ValueError("other must stack matrices of reference's 2D shape")
    with np.errstate(over="ignore", invalid="ignore"):
        cross = reference.T @ other
    if not np.isfinite(cross).all():
        raise np.linalg.LinAlgError("Procrustes cross product is not finite")
    left, _, right_t = np.linalg.svd(cross)
    return np.swapaxes(right_t, -1, -2) @ np.swapaxes(left, -1, -2)


def _window(values: list, j: int, delta: float, ne: int) -> tuple[int, int]:
    """[lo, hi): the ``ne`` sorted ``values`` nearest ``delta``, grown from the nearest, j.

    Each step takes the side nearer ``delta``, the left one on a tie.
    """
    lo, hi = j, j + 1
    while hi - lo < ne:
        if hi == len(values) or (lo > 0 and abs(values[lo - 1] - delta) <= abs(values[hi] - delta)):
            lo -= 1
        else:
            hi += 1
    return lo, hi


def _interpolate_factor(side: str, stack: np.ndarray, j: int, ne: int, values: list,
                        delta: float, m: int, aligned) -> np.ndarray:
    """sum_k w_k * (B_k @ Q_k) over the window [lo, hi) of ``ne`` neighbors, B_k = stack[k, :, :m].

    w_k are the Lagrange weights on ``values[lo:hi]``. ``aligned`` holds
    (flat, filled) under (side, j, m): row k of flat is B_k @ Q_k for each
    k in filled, Q_j the identity. The window rows not yet filled are
    aligned onto B_j in one batched Procrustes call.
    """
    reference = stack[j, :, :m]
    if (side, j, m) not in aligned:
        flat = np.empty((len(stack), reference.size))
        flat[j] = reference.ravel()
        aligned[side, j, m] = flat, {j}
    flat, filled = aligned[side, j, m]
    lo, hi = _window(values, j, delta, ne)
    missing = [k for k in range(lo, hi) if k not in filled]
    if missing:
        for k, rotation in zip(missing, procrustes_align(reference, stack[missing, :, :m])):
            np.matmul(stack[k, :, :m], rotation, out=flat[k].reshape(reference.shape))
        filled.update(missing)
    return (_weights(values[lo:hi], delta) @ flat[lo:hi]).reshape(-1, m)


def interpolate_reduced(
    db: RomDatabase,
    delta: float,
    *,
    ne_x: int,
    ne_t: int,
    m: int,
    aligned: dict | None = None,
) -> BarycentricResult:
    """Predict the factor pair at the unseen parameter value ``delta``.

    Aligns the ne_x nearest spatial and the ne_t nearest temporal neighbor
    blocks, truncated to their first m columns, to the truncated block pair
    of the training sample nearest to the query, the smaller value on a
    tie, and returns their sums weighted by the Lagrange weights on the
    neighbor parameter values. The genes are keyword-only, so the two
    neighbor counts cannot be swapped by position.

    ``aligned`` holds what earlier queries on the same database computed:
    one aligned-block table per ``(side, nearest, m)``, side ``"x"`` or
    ``"t"``; missing tables and rows are added. A query served from it
    returns the bits of one that computes everything itself. None starts an empty dict.

    Raises ValueError when the database holds fewer than two samples, and
    otherwise naming the gene that does not fit it: neighbor counts
    outside [2, n_params], m outside [1, q], or a query outside the
    training hull.
    """
    n = db.n_params
    lo, hi = db.hull
    if n < 2:
        raise ValueError("interpolation needs at least two training samples")
    if not 2 <= ne_x <= n:
        raise ValueError(f"ne_x must lie in [2, {n}], got {ne_x}")
    if not 2 <= ne_t <= n:
        raise ValueError(f"ne_t must lie in [2, {n}], got {ne_t}")
    if not 1 <= m <= db.q:
        raise ValueError(f"m must lie in [1, {db.q}], got {m}")
    if not lo <= delta <= hi:
        raise ValueError(f"query {delta!r} outside the training hull [{lo!r}, {hi!r}]")

    aligned = {} if aligned is None else aligned
    values = db.params.tolist()
    # the nearest sample is one of the two around delta, the left one on a tie as in _window
    j = bisect_left(values, delta)
    if j > 0 and delta - values[j - 1] <= values[j] - delta:
        j -= 1
    sides = (("x", db.spatial_blocks, ne_x), ("t", db.temporal_blocks, ne_t))
    return BarycentricResult(*[
        _interpolate_factor(side, stack, j, ne, values, float(delta), m, aligned)
        for side, stack, ne in sides
    ])
