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

Because every block is aligned to the nearest sample's block and not to a
weighted sum, a rotation depends only on which factor it aligns, the nearest
sample j, the neighbor k and the truncation order m; the query's parameter
value enters the prediction through the Lagrange weights alone. Queries that
share a rotation dict therefore compute each (side, j, k, m) rotation once:
a genetic search keeps one dict for its whole run and scores most
chromosomes without an SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _frozen_array
from .pod import RomDatabase


class FixedPointConfig:
    """No settings: perfbench/layers.py::_interp builds one as a default argument."""


@dataclass(frozen=True, eq=False)
class BarycentricResult:
    """Outcome of one interpolation query.

    The prediction is the factor pair; pod.reconstruct_field lifts it to a field.
    """

    spatial_factor: np.ndarray   # (r, m) weighted sum of the aligned spatial blocks
    temporal_factor: np.ndarray  # (s, m) weighted sum of the aligned temporal blocks
    # constants, not fields: perfbench/layers.py::_interp reads them
    iterations = 1
    converged = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "spatial_factor", _frozen_array(self.spatial_factor))
        object.__setattr__(self, "temporal_factor", _frozen_array(self.temporal_factor))


def _nearest_first(params: np.ndarray, delta_new: float) -> np.ndarray:
    """All indices of ``params``, nearest to ``delta_new`` first, ties to the smaller value."""
    # lexsort keys: primary |distance|, secondary the value itself for ties
    return np.lexsort((params, np.abs(params - delta_new)))


def lagrange_weights(nodes, delta_new: float) -> np.ndarray:
    """Classical Lagrange cardinal weights of ``nodes`` evaluated at ``delta_new``.

    weight_k = prod_{i != k} (delta_new - node_i) / (node_k - node_i).
    The weights sum to one; a query placed on a node yields the Kronecker
    vector for that node. Duplicate nodes raise ValueError.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ValueError("nodes must be a nonempty 1D array")
    ordered = np.sort(nodes)
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("nodes must be pairwise distinct")
    n = nodes.size
    others = ~np.eye(n, dtype=bool)
    # row k holds the factors (delta_new - node_i) / (node_k - node_i), i != k, in order
    numerators = np.broadcast_to(delta_new - nodes, (n, n))[others]
    denominators = (nodes[:, None] - nodes)[others]
    return np.prod((numerators / denominators).reshape(n, n - 1), axis=1)


def procrustes_align(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Orthogonal matrix Q minimizing ||other @ Q - reference||_F.

    Computed from the SVD of the cross-product reference.T @ other = L D R^T
    as Q = R @ L.T. When ``other`` spans the same subspace as ``reference``
    (other = reference @ G for orthogonal G) the alignment is exact:
    other @ Q == reference. A rank-deficient cross-product makes the
    minimizer non-unique; the returned Q is then still a valid choice. A
    non-finite cross-product raises LinAlgError: its SVD may never return.
    """
    reference = np.asarray(reference, dtype=np.float64)
    other = np.asarray(other, dtype=np.float64)
    if reference.shape != other.shape or reference.ndim != 2:
        raise ValueError("reference and other must share a 2D shape")
    with np.errstate(over="ignore", invalid="ignore"):
        cross = reference.T @ other
    if not np.isfinite(cross).all():
        raise np.linalg.LinAlgError("Procrustes cross product is not finite")
    left, _, right_t = np.linalg.svd(cross)
    return right_t.T @ left.T


def _interpolate_factor(side: str, stack: np.ndarray, nearest, params, delta, m: int, rotations):
    """sum_k w_k * B_k @ Q_k over ``nearest``, B_k = stack[k, :, :m], w_k Lagrange weights.

    Q_k aligns B_k onto the block of nearest[0], the sample nearest to
    ``delta``. It is cached in ``rotations`` under (side, nearest[0], k, m),
    not the aligned block, so a served Q_k changes no bit of the sum.
    """
    j = int(nearest[0])
    reference = stack[j, :, :m]
    neighbors = np.sort(nearest)

    def aligned(w, k):
        block, key = stack[k, :, :m], (side, j, int(k), m)
        if key not in rotations:
            rotations[key] = procrustes_align(reference, block)
        return w * block @ rotations[key]

    return sum(aligned(w, k) for w, k in zip(lagrange_weights(params[neighbors], delta), neighbors))


def interpolate_reduced(
    db: RomDatabase,
    delta: float,
    *,
    ne_x: int,
    ne_t: int,
    m: int,
    rotations: dict | None = None,
) -> BarycentricResult:
    """Predict the factor pair at the unseen parameter value ``delta``.

    Aligns the ne_x nearest spatial and the ne_t nearest temporal neighbor
    blocks, truncated to their first m columns, to the truncated block pair
    of the training sample nearest to the query, and returns their sums
    weighted by the Lagrange weights on the neighbor parameter values. The
    genes are keyword-only, so the two neighbor counts cannot be swapped by
    position.

    ``rotations`` holds the alignment rotations of earlier queries on the
    same database, keyed ``(side, nearest, neighbor, m)`` with side ``"x"``
    (spatial) or ``"t"`` (temporal); rotations this query needs and does not
    find there are computed and added. A query served from it returns the
    same bits as one that computes every rotation. None starts an empty dict.

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

    rotations = {} if rotations is None else rotations
    order = _nearest_first(params, delta)
    sides = (("x", db.spatial_blocks, ne_x), ("t", db.temporal_blocks, ne_t))
    return BarycentricResult(*[
        _interpolate_factor(side, stack, order[:ne], params, delta, m, rotations)
        for side, stack, ne in sides
    ])
