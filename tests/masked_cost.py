"""The masked cost of a lifted prediction: the definition reduced_cost is checked against."""

from __future__ import annotations

import numpy as np


def cost(predicted: np.ndarray, target: np.ndarray, weights: np.ndarray) -> float:
    """Time-averaged, weighted squared mismatch over the observed cells.

    ``predicted`` and ``target`` hold one row per observed cell and one column
    per instant; ``weights`` holds one quadrature weight per cell. cost =
    (1 / n_steps) * sum over instants and cells of
    weights[j] * (predicted[j, l] - target[j, l])**2. Zero if and only if the
    restrictions coincide.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    if predicted.shape != target.shape:
        raise ValueError(f"predicted restriction must be {target.shape}, got {predicted.shape}")
    diff = predicted - target
    weighted = (diff * diff) * weights[:, None]
    return float(weighted.sum() / target.shape[1])
