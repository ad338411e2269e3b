"""Interpolation quality on the analytic plume family, no search involved.

Two measurements against exact closed-form truth:
  1. leave-one-out: drop each interior training parameter, predict it from
     the rest;
  2. a dense sweep of unseen parameters across the training hull.
Both report full-field relative L2 errors in percent.
"""

from __future__ import annotations

import argparse

import numpy as np

from romga import (
    FixedPointConfig,
    Grid,
    InterpolationRequest,
    PlumeParams,
    TimeAxis,
    analytic_plume,
    compress_ensemble,
    interpolate_reduced,
    reconstruct_field,
)


def relative_error(predicted: np.ndarray, truth: np.ndarray) -> float:
    return float(np.linalg.norm(predicted - truth) / np.linalg.norm(truth))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nx", type=int, default=40)
    parser.add_argument("--snapshots", type=int, default=60)
    parser.add_argument("--q", type=int, default=10)
    parser.add_argument("--sigma", type=float, default=0.3)
    parser.add_argument("--sweep", type=int, default=9, help="unseen query count")
    args = parser.parse_args()

    grid = Grid(args.nx, args.nx, 1.04, 1.04)
    times = TimeAxis(args.snapshots, 10.0)
    deltas = (0.30, 0.35, 0.40, 0.45, 0.50)
    family = {
        d: analytic_plume(PlumeParams(d, sigma=args.sigma), grid, times) for d in deltas
    }

    print("leave-one-out (interior nodes)")
    for held in deltas[1:-1]:
        db = compress_ensemble([family[d] for d in deltas if d != held], q=args.q)
        result = interpolate_reduced(
            db, InterpolationRequest(held, 4, 4, args.q), FixedPointConfig()
        )
        predicted = reconstruct_field(db, result.spatial_factor, result.temporal_factor)
        err = relative_error(predicted, family[held].values)
        flag = "" if result.converged else "  (hit the sweep cap)"
        print(f"  delta {held:.2f}: {100 * err:6.3f}%  iters {result.iterations}{flag}")

    db = compress_ensemble(list(family.values()), q=args.q)
    print(f"\nunseen sweep on the full {len(deltas)}-sample database")
    for delta in np.linspace(deltas[0], deltas[-1], args.sweep + 2)[1:-1]:
        truth = analytic_plume(PlumeParams(float(delta), sigma=args.sigma), grid, times)
        result = interpolate_reduced(db, InterpolationRequest(float(delta), 3, 3, args.q))
        predicted = reconstruct_field(db, result.spatial_factor, result.temporal_factor)
        err = relative_error(predicted, truth.values)
        print(f"  delta {delta:.3f}: {100 * err:6.3f}%  iters {result.iterations}")


if __name__ == "__main__":
    main()
