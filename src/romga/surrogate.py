"""Synthetic field generators used to train and test the reduced pipeline.

Two families are provided. ``analytic_plume`` is a closed-form moving
Gaussian hot spot, cheap enough for property tests and exact enough to act
as its own ground truth. ``solve_cavity`` is a small explicit
advection-diffusion solver on a square cavity with a prescribed
recirculating velocity field, a heated floor and a tunable inlet
temperature patch; it stands in for a full CFD campaign while exposing the
same two physical knobs (recirculation speed, inlet temperature).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .dataset import Grid, ParamKind, SnapshotMatrix, TimeAxis, _adopt
from .errors import DivergenceError

# Safety factor on each member's stability bound: a substep is at most 0.9 of
# the largest step the convex-combination form allows.
CFL = 0.9

# The physics both families share: the cold walls, the cavity's initial field
# and the plume's background (C); the heated floor and the plume's peak (C);
# the cavity's thermal diffusivity (m^2/s).
THETA_COLD = 15.0
THETA_HOT = 35.0
KAPPA = 2.0e-3

# The inflow value a cavity series holds: a velocity series keeps the inlet
# at INLET_TEMPERATURE (C), a temperature series keeps the recirculation at
# INLET_VELOCITY (m/s).
INLET_VELOCITY = 0.57
INLET_TEMPERATURE = 15.0


@dataclass(frozen=True)
class PlumeParams:
    """Moving-Gaussian family: delta controls the lateral sweep frequency."""

    delta: float
    sigma: float = 0.25

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        # sigma**2 divides the plume's exponent, so it must neither overflow
        # nor underflow to zero
        if not (self.sigma > 0.0 and 0.0 < self.sigma * self.sigma < math.inf):
            raise ValueError(
                f"sigma must be positive with a positive finite square, got {self.sigma!r}"
            )


def analytic_plume(params: PlumeParams, grid: Grid, times: TimeAxis) -> SnapshotMatrix:
    """Closed-form hot spot drifting upward while sweeping sideways.

    The field at cell center (x, y) and instant t is

        THETA_COLD + (THETA_HOT - THETA_COLD)
                   * exp(-((x - xc(t))**2 + (y - yc(t))**2) / sigma**2)

    with xc(t) = 0.5*lx*(1 + 0.8*sin(2*pi*delta*t/t_final)) and
    yc(t) = ly*(0.2 + 0.6*t/t_final). Values stay in [THETA_COLD, THETA_HOT].
    """
    cx, cy = grid.cell_centers()
    t = times.instants()
    # a phase that overflows is reported below, not by numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        phase = 2.0 * math.pi * params.delta * t / times.t_final
        xc = 0.5 * grid.lx * (1.0 + 0.8 * np.sin(phase))
        yc = grid.ly * (0.2 + 0.6 * t / times.t_final)
    if not (np.isfinite(xc).all() and np.isfinite(yc).all()):
        raise DivergenceError(f"the plume's centre path is not finite at delta = {params.delta!r}")
    r2 = (cx[:, None] - xc[None, :]) ** 2 + (cy[:, None] - yc[None, :]) ** 2
    # a width so narrow that r2 / sigma**2 overflows gives exp(-inf) = 0, the exact limit
    # (one expression, so numpy reuses its temporaries in place)
    with np.errstate(over="ignore"):
        values = THETA_COLD + (THETA_HOT - THETA_COLD) * np.exp(
            -r2 / params.sigma**2
        )
    return SnapshotMatrix(grid, times, ParamKind.SYNTHETIC, params.delta, values)


def recirculating_velocity(u_ref: float, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Divergence-free single-vortex velocity sampled at cell centers.

    Derived from the stream function psi = u_ref*lx*sin(pi x/lx)*sin(pi y/ly)/pi
    via (u, v) = (d psi/dy, -d psi/dx), so the analytic divergence vanishes
    identically and both components are zero on the walls. Returns flat
    (n_cells,) arrays ordered like SnapshotMatrix rows.
    """
    if u_ref < 0.0:
        raise ValueError("u_ref must be nonnegative")
    cx, cy = grid.cell_centers()
    u = u_ref * (grid.lx / grid.ly) * np.sin(np.pi * cx / grid.lx) * np.cos(np.pi * cy / grid.ly)
    v = -u_ref * np.cos(np.pi * cx / grid.lx) * np.sin(np.pi * cy / grid.ly)
    return u, v


def solve_cavity(
    values: Sequence[float],
    grid: Grid,
    times: TimeAxis,
    vary: ParamKind = ParamKind.VELOCITY,
) -> list[SnapshotMatrix]:
    """Integrate the passive temperature equation on the cavity for a series of runs.

    A series varies one inflow value and holds the other: a velocity series
    keeps the inlet at INLET_TEMPERATURE, a temperature series keeps the
    recirculation at INLET_VELOCITY. The floor is held at THETA_HOT, the
    remaining walls at THETA_COLD except for an inlet patch spanning the top
    10% of the left wall, held at the inlet temperature. The initial field
    is uniform at THETA_COLD.

    Solves dT/dt + u . grad T = KAPPA * lap T with the prescribed
    recirculating velocity, first-order upwind advection and centered
    diffusion, recording the field at every instant of ``times``. Each
    substep is one update in coefficient form: the cell moves toward each of
    its four neighbors by a nonnegative weight, its upwind plus diffusive
    rate times dt. Under the stability bound the weights sum to at most one,
    so every update is a convex combination of neighbor values and the
    discrete maximum principle holds by construction. Dirichlet values enter
    through ghost cells set to the wall temperature.

    A temperature series is affine in the inlet temperature: the update is
    linear in the field and in the ghost values, and only the inlet ghosts
    depend on it. So of three or more values spanning a finite range, only
    the first and last are advanced; every other run is built in its own
    buffer as ``f_lo + lam * (f_hi - f_lo)`` with ``lam = (theta - theta_lo)
    / (theta_hi - theta_lo)``. Cells where the two extremes agree (the
    initial snapshot, cells the inlet has not reached) stay exact, and the
    blend keeps the maximum principle to rounding; elsewhere it differs from
    the run solved alone by rounding only (about 1e-16 of the field's norm on
    the series-2 preset).

    The advanced runs move together in one batch, each with its own
    velocity, time step and substep count, and each bit-identical to that
    run solved alone, whichever other runs share the call.

    Parameters
    ----------
    values : sequence of float
        The varied inflow value of each run: at least one, strictly increasing.
    grid, times : Grid, TimeAxis
        Output sampling. Internal substeps are sized from ``CFL`` times each
        run's stability bound and land exactly on each sampling instant.
    vary : ParamKind
        VELOCITY or TEMPERATURE: which inflow value ``values`` holds; it is
        also the parameter kind of each returned SnapshotMatrix.

    Returns
    -------
    list of SnapshotMatrix
        One per value, in the order of ``values``.

    Raises
    ------
    ValueError
        If ``values`` is empty, holds a non-finite value or a negative
        velocity, or is not strictly increasing, or ``vary`` is neither
        VELOCITY nor TEMPERATURE.
    DivergenceError
        If any recorded snapshot contains non-finite values, or a run's
        stability rate or substep count overflows.
    """
    values = tuple(values)
    if not values:
        raise ValueError("solve_cavity needs at least one value")
    if vary not in (ParamKind.VELOCITY, ParamKind.TEMPERATURE):
        raise ValueError("cavity runs vary either velocity or temperature")
    name = "inlet_velocity" if vary == ParamKind.VELOCITY else "inlet_temperature"
    for value in values:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if vary == ParamKind.VELOCITY and value < 0.0:
            raise ValueError("inlet_velocity must be nonnegative")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} values must be strictly increasing, got {values}")

    if vary == ParamKind.VELOCITY:
        records = _advance(values, (INLET_TEMPERATURE,) * len(values), grid, times)
    else:
        records = _temperature_series(values, grid, times)
    # each SnapshotMatrix keeps its run's record, as a column-major view
    return [
        _adopt(grid, times, vary, value, record.reshape(times.n_steps, grid.n_cells).T)
        for value, record in zip(values, records)
    ]


def _temperature_series(
    temps: tuple[float, ...], grid: Grid, times: TimeAxis
) -> list[np.ndarray]:
    """One record per inlet temperature: the first and last advanced, the rest blended."""
    # a span that overflows would turn every lam into 0
    if len(temps) < 3 or not math.isfinite(temps[-1] - temps[0]):
        return list(_advance((INLET_VELOCITY,) * len(temps), temps, grid, times))
    theta_lo, theta_hi = temps[0], temps[-1]
    low, high = _advance((INLET_VELOCITY,) * 2, (theta_lo, theta_hi), grid, times)
    records = [low]
    for theta in temps[1:-1]:
        lam = (theta - theta_lo) / (theta_hi - theta_lo)
        blend = np.subtract(high, low)
        blend *= lam
        blend += low
        records.append(blend)
    return [*records, high]


def _aligned_zeros(*shape: int) -> np.ndarray:
    """Zeros starting on a 64-byte boundary, wherever the heap puts the block.

    The substep loop runs up to 1.5x slower when its arrays start at most other
    offsets in a cache line, so its speed would otherwise follow heap history.
    """
    n = math.prod(shape)
    raw = np.zeros(n + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + n].reshape(shape)


def _advance(
    velocities: Sequence[float], inlets: Sequence[float], grid: Grid, times: TimeAxis
) -> np.ndarray:
    """The batched kernel of ``solve_cavity``: a (k, n_steps, ny, nx) block, one record per run.

    Run i recirculates at ``velocities[i]`` with its inlet patch at
    ``inlets[i]``. The runs share one padded ``(k, ny + 2, nx + 2)`` buffer,
    so each operation of a substep is one contiguous pass over every run; in
    an interval where a run needs fewer substeps than another, it sits out
    the extra ones. Every operation keeps the operands and the order of
    evaluation of a run solved alone, so each record is bit-identical to
    that run solved alone.
    """
    k = len(velocities)
    nx, ny = grid.nx, grid.ny
    dx, dy = grid.dx, grid.dy
    row = nx + 2                  # flat offset of the north and south neighbors
    plane = (ny + 2) * row        # one padded member field
    size = k * plane              # every member field, back to back

    # One spare row before the first and after the last member keeps every
    # neighbor slice in bounds. The ghost cells hold the wall temperatures:
    # they are set once, and their neighbor rates are zero, so while the
    # field is finite every substep adds exactly zero to them and no
    # per-substep reset is needed. Only the inlet patch differs by member.
    buffer = _aligned_zeros(size + 2 * row)
    padded = buffer[row : row + size].reshape(k, ny + 2, row)
    padded[...] = THETA_COLD     # cold walls and initial field
    padded[:, 0, :] = THETA_HOT  # heated floor at y = 0
    flat = (k, plane)
    center = buffer[row : row + size].reshape(flat)

    # Per-unit-time rates toward the west, east, south and north neighbors:
    # upwind advection plus centered diffusion, each nonnegative.
    rates = _aligned_zeros(4, k, ny + 2, row)
    dt_target = []
    _, cy = grid.cell_centers()
    inlet_rows = cy.reshape(ny, nx)[:, 0] > 0.9 * grid.ly
    for i, (velocity, inlet) in enumerate(zip(velocities, inlets)):
        u_flat, v_flat = recirculating_velocity(velocity, grid)
        u = u_flat.reshape(ny, nx)
        v = v_flat.reshape(ny, nx)
        # a rate that overflows is reported below, not by numpy's warning
        with np.errstate(over="ignore"):
            rates[0, i, 1:-1, 1:-1] = KAPPA / dx**2 + np.maximum(u, 0.0) / dx
            rates[1, i, 1:-1, 1:-1] = KAPPA / dx**2 - np.minimum(u, 0.0) / dx
            rates[2, i, 1:-1, 1:-1] = KAPPA / dy**2 + np.maximum(v, 0.0) / dy
            rates[3, i, 1:-1, 1:-1] = KAPPA / dy**2 - np.minimum(v, 0.0) / dy
            # Convex-combination stability: dt * (|u|/dx + |v|/dy + 2k/dx^2 + 2k/dy^2) <= 1,
            # which is dt times the sum of the four rates.
            rate = np.abs(u) / dx + np.abs(v) / dy + 2.0 * KAPPA * (1.0 / dx**2 + 1.0 / dy**2)
        target = CFL * (1.0 / float(rate.max()))
        if not target > 0.0:
            raise DivergenceError("the stability rate overflows, so no time step is stable")
        dt_target.append(target)
        # inlet patch on the top 10% of the left wall
        padded[i, 1:-1, 0][inlet_rows] = inlet
    rates = rates.reshape(4, *flat)
    # Each interval scales the rates by its members' dt: cw, ce, cs, cn.
    coefs = _aligned_zeros(*rates.shape)
    cw, ce, cs, cn = coefs

    # One-sided differences: (center - west) and (east - center) are the same
    # differences one cell apart, and likewise (center - south) and
    # (north - center) one row apart.
    x_hi, x_lo = buffer[row : row + size + 1], buffer[row - 1 : row + size]
    y_hi, y_lo = buffer[row : 2 * row + size], buffer[: row + size]
    step_x = _aligned_zeros(size + 1)
    step_y = _aligned_zeros(size + row)
    c_minus_w = step_x[:size].reshape(flat)
    e_minus_c = step_x[1:].reshape(flat)
    c_minus_s = step_y[:size].reshape(flat)
    n_minus_c = step_y[row:].reshape(flat)
    flux, term = _aligned_zeros(2, *flat)
    dt = np.empty((k, 1))

    instants = times.instants()
    records = np.empty((k, times.n_steps, ny, nx))
    records[:, 0] = padded[:, 1:-1, 1:-1]
    # a field that leaves the finite range is reported by the check below,
    # not by numpy's overflow warnings along the way
    with np.errstate(over="ignore", invalid="ignore"):
        for l in range(1, times.n_steps):
            span = instants[l] - instants[l - 1]
            ratios = [span / target for target in dt_target]
            if not math.isfinite(max(ratios)):
                raise DivergenceError(f"substep count overflows at t = {instants[l]:.6g}s")
            n_sub = [max(1, math.ceil(ratio)) for ratio in ratios]
            dt[:, 0] = [span / n for n in n_sub]
            np.multiply(rates, dt, out=coefs)
            counts, fewest = np.array(n_sub)[:, None], min(n_sub)
            for j in range(max(n_sub)):
                active = True if j < fewest else counts > j
                np.subtract(x_hi, x_lo, out=step_x)
                np.subtract(y_hi, y_lo, out=step_y)
                # field += ce*(e - c) - cw*(c - w) + cn*(n - c) - cs*(c - s)
                np.multiply(ce, e_minus_c, out=flux)
                np.multiply(cw, c_minus_w, out=term)
                np.subtract(flux, term, out=flux)
                np.multiply(cn, n_minus_c, out=term)
                np.add(flux, term, out=flux)
                np.multiply(cs, c_minus_s, out=term)
                np.subtract(flux, term, out=flux)
                np.add(center, flux, out=center, where=active)
            interior = padded[:, 1:-1, 1:-1]
            if not np.isfinite(interior).all():
                raise DivergenceError(f"non-finite values at t = {instants[l]:.6g}s")
            records[:, l] = interior
    return records
