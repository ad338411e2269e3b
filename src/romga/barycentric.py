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
dict compute each (side, j, k, m) rotation once, and keep each neighbor
set's aligned blocks as one flat (ne, rows * m) stack, so a query met
before is one weighted sum ``weights @ flat``.
"""

from __future__ import annotations

import math
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


def _nearest_first(params: np.ndarray, delta_new: float) -> np.ndarray:
    """All indices of ``params``, nearest to ``delta_new`` first, ties to the smaller value."""
    # lexsort keys: primary |distance|, secondary the value itself for ties
    return np.lexsort((params, np.abs(params - delta_new)))


def lagrange_weights(nodes, delta_new: float) -> np.ndarray:
    """Classical Lagrange cardinal weights of ``nodes`` evaluated at ``delta_new``.

    weight_k = prod_{i != k} (delta_new - node_i) / (node_k - node_i), in order of i.
    The weights sum to one; a query placed on a node yields the Kronecker
    vector for that node. Duplicate nodes raise ValueError.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ValueError("nodes must be a nonempty 1D array")
    values = nodes.tolist()
    if len(set(values)) != len(values):
        raise ValueError("nodes must be pairwise distinct")
    return _weights(values, float(delta_new))


def _weights(values: list, delta_new: float) -> np.ndarray:
    """lagrange_weights of the distinct Python floats ``values``, unchecked."""
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


def _aligned_stack(side: str, stack: np.ndarray, j: int, neighbors: tuple, m: int, aligned):
    """The flat (ne, rows * m) stack of B_k @ Q_k over ``neighbors``, B_k = stack[k, :, :m].

    Q_j is the identity: the nearest block B_j is copied as it is. Every
    other Q_k aligns B_k onto B_j and is read from ``aligned`` under
    (side, j, k, m); the missing ones are added, all from one batched
    Procrustes call.
    """
    reference = stack[j, :, :m]
    missing = [k for k in neighbors if k != j and (side, j, k, m) not in aligned]
    if missing:
        for k, rotation in zip(missing, procrustes_align(reference, stack[missing, :, :m])):
            aligned[side, j, k, m] = rotation
    flat = np.empty((len(neighbors), reference.size))
    for row, k in zip(flat, neighbors):
        block = row.reshape(reference.shape)
        if k == j:
            block[...] = reference
        else:
            np.matmul(stack[k, :, :m], aligned[side, j, k, m], out=block)
    return flat


def _interpolate_factor(side: str, stack: np.ndarray, j: int, neighbors: tuple, values: list,
                        delta: float, m: int, aligned) -> np.ndarray:
    """sum_k w_k * (B_k @ Q_k) over ``neighbors``, as the product ``weights @ flat``.

    ``neighbors`` are sample indices in increasing order, j the nearest of
    them and ``values`` all the parameter values; w_k are the Lagrange
    weights on the neighbors' values. ``aligned`` holds the flat stack of
    the B_k @ Q_k under (side, j, neighbors, m), see _aligned_stack.
    """
    key = (side, j, neighbors, m)
    flat = aligned.get(key)
    if flat is None:
        flat = aligned[key] = _aligned_stack(side, stack, j, neighbors, m, aligned)
    weights = _weights([values[k] for k in neighbors], delta)
    return (weights @ flat).reshape(-1, m)


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
    of the training sample nearest to the query, and returns their sums
    weighted by the Lagrange weights on the neighbor parameter values. The
    genes are keyword-only, so the two neighbor counts cannot be swapped by
    position.

    ``aligned`` holds what earlier queries on the same database computed:
    one m x m rotation per ``(side, nearest, neighbor, m)`` and one flat
    aligned stack per ``(side, nearest, neighbors, m)``, side ``"x"`` or
    ``"t"`` and neighbors an increasing tuple; missing entries are added. A
    query served from it returns the bits of one that computes everything
    itself. None starts an empty dict.

    Raises ValueError when the database holds fewer than two samples, and
    otherwise naming the gene that does not fit it: neighbor counts
    outside [2, n_params], m outside [1, q], or a query outside the
    training hull.
    """
    params = db.params
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
    order = _nearest_first(params, delta).tolist()
    values = params.tolist()
    sides = (("x", db.spatial_blocks, ne_x), ("t", db.temporal_blocks, ne_t))
    return BarycentricResult(*[
        _interpolate_factor(side, stack, order[0], tuple(sorted(order[:ne])), values,
                            float(delta), m, aligned)
        for side, stack, ne in sides
    ])
