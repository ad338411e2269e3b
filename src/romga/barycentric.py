"""Barycentric interpolation of reduced snapshot data at unseen parameters.

Each training sample k contributes a spatial block (r x q) and a temporal
block (s x q); truncated to m columns these span m-dimensional subspaces
that rotate as the parameter moves. A plain weighted sum of the blocks is
meaningless because each block is only defined up to an orthogonal change of
columns, so the interpolation works on aligned representatives instead:

    repeat
        align every neighbor block to the current iterate
        (orthogonal Procrustes: the rotation comes from the SVD of the
        cross-product between iterate and block)
        replace the iterate by the Lagrange-weighted sum of the aligned
        blocks
    until the alignment rotations stop moving.

The spatial and temporal iterates advance jointly; the shared stopping
quantity sums, over every (spatial neighbor, temporal neighbor) pair, the
Frobenius distance between the rotation products of consecutive sweeps.
Both iterates start from the blocks of the training sample nearest to the
query, which makes queries placed exactly at a training node reproduce that
node's blocks: all Lagrange weights collapse onto it and its self-alignment
is the identity.

No re-orthonormalization happens between sweeps; the iterate is whatever
the weighted sums produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import _frozen_array
from .pod import RomDatabase, truncate_blocks


@dataclass(frozen=True)
class FixedPointConfig:
    """Stopping controls for the alignment fixed point."""

    epsilon: float = 1.0e-8
    max_iters: int = 100

    def __post_init__(self) -> None:
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class InterpolationRequest:
    """Query: parameter value plus the knobs of the interpolation itself.

    ne_x and ne_t are the neighbor counts used for the spatial and temporal
    blocks; m is the number of block columns kept. Validity against a
    database (neighbor counts vs sample count, m vs q, query inside the
    training hull) is checked by interpolate_reduced.
    """

    delta_new: float
    ne_x: int
    ne_t: int
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta_new", float(self.delta_new))
        for name in ("ne_x", "ne_t", "m"):
            object.__setattr__(self, name, int(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class BarycentricResult:
    """Outcome of one interpolation query.

    The prediction is the factor pair; pod.reconstruct_field lifts it to a field.
    """

    spatial_factor: np.ndarray   # (r, m) final spatial iterate
    temporal_factor: np.ndarray  # (s, m) final temporal iterate
    iterations: int
    final_error: float
    converged: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "spatial_factor", _frozen_array(self.spatial_factor))
        object.__setattr__(self, "temporal_factor", _frozen_array(self.temporal_factor))


def select_neighbors(params, delta_new: float, ne: int) -> np.ndarray:
    """Indices of the ``ne`` training parameters nearest to ``delta_new``.

    Distance is the absolute difference; ties prefer the smaller parameter
    value. The returned indices are sorted so the parameter values ascend.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or params.size == 0:
        raise ValueError("params must be a nonempty 1D array")
    if not 1 <= ne <= params.size:
        raise ValueError(f"ne must lie in [1, {params.size}], got {ne}")
    # lexsort keys: primary |distance|, secondary the value itself for ties
    order = np.lexsort((params, np.abs(params - delta_new)))
    chosen = order[:ne]
    return np.sort(chosen)


def lagrange_weights(nodes, delta_new: float) -> np.ndarray:
    """Classical Lagrange cardinal weights of ``nodes`` evaluated at ``delta_new``.

    weight_k = prod_{i != k} (delta_new - node_i) / (node_k - node_i).
    The weights sum to one; a query placed on a node yields the Kronecker
    vector for that node. Duplicate nodes raise ValueError.
    """
    nodes = np.asarray(nodes, dtype=np.float64)
    if nodes.ndim != 1 or nodes.size == 0:
        raise ValueError("nodes must be a nonempty 1D array")
    if np.unique(nodes).size != nodes.size:
        raise ValueError("nodes must be pairwise distinct")
    n = nodes.size
    weights = np.empty(n)
    for k in range(n):
        others = np.delete(nodes, k)
        weights[k] = np.prod((delta_new - others) / (nodes[k] - others))
    return weights


def procrustes_align(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Orthogonal matrix Q minimizing ||other @ Q - reference||_F.

    Computed from the SVD of the cross-product reference.T @ other = L D R^T
    as Q = R @ L.T. When ``other`` spans the same subspace as ``reference``
    (other = reference @ G for orthogonal G) the alignment is exact:
    other @ Q == reference. A rank-deficient cross-product makes the
    minimizer non-unique; the returned Q is then still a valid choice.
    """
    reference = np.asarray(reference, dtype=np.float64)
    other = np.asarray(other, dtype=np.float64)
    if reference.shape != other.shape or reference.ndim != 2:
        raise ValueError("reference and other must share a 2D shape")
    left, _, right_t = np.linalg.svd(reference.T @ other)
    return right_t.T @ left.T


def _align_and_average(iterate: np.ndarray, blocks, weights) -> tuple[np.ndarray, list]:
    """One sweep for one factor: the weighted sum of the blocks aligned to ``iterate``.

    Returns the new iterate, sum_k weights[k] * blocks[k] @ Q_k, and the
    rotations Q_k (the Procrustes alignment of blocks[k] onto ``iterate``).
    """
    rotations = [procrustes_align(iterate, b) for b in blocks]
    return sum(w * b @ q for w, b, q in zip(weights, blocks, rotations)), rotations


def interpolate_reduced(
    db: RomDatabase,
    request: InterpolationRequest,
    config: FixedPointConfig = FixedPointConfig(),
) -> BarycentricResult:
    """Predict the factor pair of an unseen parameter value.

    Runs the joint alignment fixed point over the request's spatial and
    temporal neighbor sets (Lagrange weights on the neighbor parameter
    values, blocks truncated to the request's m columns, both iterates
    seeded from the nearest training sample). After each sweep the stopping
    quantity

        sum over (k, h) of || Q_k @ K_h.T - previous Q_k @ K_h.T ||_F

    is compared against config.epsilon; it is first available after the
    second sweep. The final iterates are the returned factor pair.

    Raises ValueError when the request does not fit the database: neighbor
    counts outside [2, n_params], m outside [1, q], or a query outside the
    training hull.
    """
    params = db.params
    lo, hi = db.hull
    if not 2 <= request.ne_x <= db.n_params:
        raise ValueError(f"ne_x must lie in [2, {db.n_params}], got {request.ne_x}")
    if not 2 <= request.ne_t <= db.n_params:
        raise ValueError(f"ne_t must lie in [2, {db.n_params}], got {request.ne_t}")
    if not 1 <= request.m <= db.q:
        raise ValueError(f"m must lie in [1, {db.q}], got {request.m}")
    if not lo <= request.delta_new <= hi:
        raise ValueError(
            f"query {request.delta_new!r} outside the training hull [{lo!r}, {hi!r}]"
        )

    truncated = truncate_blocks(db, request.m)
    spatial_idx = select_neighbors(params, request.delta_new, request.ne_x)
    temporal_idx = select_neighbors(params, request.delta_new, request.ne_t)
    spatial_w = lagrange_weights(params[spatial_idx], request.delta_new)
    temporal_w = lagrange_weights(params[temporal_idx], request.delta_new)
    spatial_blocks = [truncated[k][0] for k in spatial_idx]
    temporal_blocks = [truncated[h][1] for h in temporal_idx]

    nearest = int(select_neighbors(params, request.delta_new, 1)[0])
    spatial = np.array(truncated[nearest][0])
    temporal = np.array(truncated[nearest][1])

    previous = None
    final_error = float("inf")
    converged = False
    iterations = 0
    for sweep in range(1, config.max_iters + 1):
        # each factor aligns to its own previous iterate, so the two
        # updates are independent and may run one after the other
        spatial, rotations = _align_and_average(spatial, spatial_blocks, spatial_w)
        temporal, corotations = _align_and_average(temporal, temporal_blocks, temporal_w)
        products = [[q @ k.T for k in corotations] for q in rotations]
        iterations = sweep
        if previous is not None:
            final_error = float(
                sum(
                    np.linalg.norm(p - pp)
                    for row, prow in zip(products, previous)
                    for p, pp in zip(row, prow)
                )
            )
            if final_error <= config.epsilon:
                converged = True
                break
        previous = products

    return BarycentricResult(spatial, temporal, iterations, final_error, converged)

