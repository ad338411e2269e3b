"""The masked cost of a lifted prediction: the definition reduced_cost is checked against."""

from __future__ import annotations

import numpy as np

from romga import Target


def cost(predicted: np.ndarray, target: Target) -> float:
    """Time-averaged, area-weighted squared mismatch over the mask.

    cost = (1 / n_steps) * sum over instants and masked cells of
    weight_j * (predicted[j, l] - target[j, l])**2. Zero if and only if the
    restrictions coincide.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    if predicted.shape != target.values.shape:
        raise ValueError(
            f"predicted restriction must be {target.values.shape}, got {predicted.shape}"
        )
    diff = predicted - target.values
    weighted = (diff * diff) * target.mask.weights[:, None]
    return float(weighted.sum() / target.times.n_steps)
