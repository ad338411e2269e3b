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
A query placed exactly at a training node reproduces that node's blocks: all
Lagrange weights collapse onto it and its self-alignment is the identity.
No re-orthonormalization happens; the factors are the weighted sums as they
come.

An aligned block depends only on its factor, the nearest sample j, the
neighbor set and m, never on the query's parameter value. Queries sharing
an ``aligned`` dict align each (side, j, neighbors, m) stack once, in one
batched Procrustes SVD; a search then scores most chromosomes as a weighted
sum (cavity-temperature identify_s 0.152 -> 0.102 s, ``BENCH_23.json``).
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
    # Python floats round like float64 and skip numpy's per-call overhead on a few nodes
    delta_new = float(delta_new)
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


def _interpolate_factor(side: str, stack: np.ndarray, nearest, params, delta, m: int, aligned):
    """sum_k w_k * (B_k @ Q_k) over ``nearest`` in increasing k, B_k = stack[k, :, :m].

    w_k are Lagrange weights; Q_k aligns B_k onto the block of nearest[0].
    ``aligned`` holds the stack of B_k @ Q_k under (side, nearest[0], neighbors, m).
    """
    j = int(nearest[0])
    neighbors = np.sort(nearest)
    key = (side, j, tuple(neighbors.tolist()), m)
    if key not in aligned:
        blocks = stack[neighbors, :, :m]
        aligned[key] = blocks @ procrustes_align(stack[j, :, :m], blocks)
    weights = lagrange_weights(params[neighbors], delta)
    return (weights[:, None, None] * aligned[key]).sum(axis=0)


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

    ``aligned`` holds earlier queries' aligned neighbor blocks on the same
    database, one stack per ``(side, nearest, neighbors, m)``, side ``"x"``
    or ``"t"`` and neighbors an increasing tuple; missing stacks are added.
    A query served from it returns the bits of one that aligns every block.
    None starts an empty dict.

    Raises ValueError naming the gene that does not fit the database:
    neighbor counts outside [2, n_params], m outside [1, q], or a query
    outside the training hull.
    """
    params = db.params
    lo, hi = db.hull
    if not 2 <= ne_x <= db.n_params:
        raise ValueError(f"ne_x must lie in [2, {db.n_params}], got {ne_x}")
    if not 2 <= ne_t <= db.n_params:
        raise ValueError(f"ne_t must lie in [2, {db.n_params}], got {ne_t}")
    if not 1 <= m <= db.q:
        raise ValueError(f"m must lie in [1, {db.q}], got {m}")
    if not lo <= delta <= hi:
        raise ValueError(f"query {delta!r} outside the training hull [{lo!r}, {hi!r}]")

    aligned = {} if aligned is None else aligned
    order = _nearest_first(params, delta)
    sides = (("x", db.spatial_blocks, ne_x), ("t", db.temporal_blocks, ne_t))
    return BarycentricResult(*[
        _interpolate_factor(side, stack, order[:ne], params, delta, m, aligned)
        for side, stack, ne in sides
    ])
