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
from .errors import DivergenceError, StabilityError


@dataclass(frozen=True)
class PlumeParams:
    """Moving-Gaussian family: delta controls the lateral sweep frequency."""

    delta: float
    theta_cold: float = 15.0
    theta_hot: float = 35.0
    sigma: float = 0.25

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if not self.theta_hot > self.theta_cold:
            raise ValueError("theta_hot must exceed theta_cold")


def analytic_plume(params: PlumeParams, grid: Grid, times: TimeAxis) -> SnapshotMatrix:
    """Closed-form hot spot drifting upward while sweeping sideways.

    The field at cell center (x, y) and instant t is

        theta_cold + (theta_hot - theta_cold)
                   * exp(-((x - xc(t))**2 + (y - yc(t))**2) / sigma**2)

    with xc(t) = 0.5*lx*(1 + 0.8*sin(2*pi*delta*t/t_final)) and
    yc(t) = ly*(0.2 + 0.6*t/t_final). Values stay in (theta_cold, theta_hot].
    """
    cx, cy = grid.cell_centers()
    t = times.instants()
    phase = 2.0 * math.pi * params.delta * t / times.t_final
    xc = 0.5 * grid.lx * (1.0 + 0.8 * np.sin(phase))
    yc = grid.ly * (0.2 + 0.6 * t / times.t_final)
    r2 = (cx[:, None] - xc[None, :]) ** 2 + (cy[:, None] - yc[None, :]) ** 2
    values = params.theta_cold + (params.theta_hot - params.theta_cold) * np.exp(
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


@dataclass(frozen=True)
class CavityParams:
    """Physical setup for the cavity runs.

    The floor is held at theta_hot, the remaining walls at theta_cold except
    for an inlet patch spanning the top 10% of the left wall, held at
    inlet_temperature. The initial field is uniform at theta_initial.
    """

    inlet_velocity: float
    inlet_temperature: float
    theta_hot: float = 35.0
    theta_cold: float = 15.0
    theta_initial: float = 15.0
    kappa: float = 2.0e-3

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.inlet_velocity < 0.0:
            raise ValueError("inlet_velocity must be nonnegative")
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")


@dataclass(frozen=True)
class SolverConfig:
    """Time integration controls: donor-cell advection, centered diffusion."""

    cfl: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")


def solve_cavity(
    members: Sequence[CavityParams],
    grid: Grid,
    times: TimeAxis,
    config: SolverConfig = SolverConfig(),
    vary: ParamKind = ParamKind.VELOCITY,
) -> list[SnapshotMatrix]:
    """Integrate the passive temperature equation on the cavity for every member.

    Solves dT/dt + u . grad T = kappa * lap T with the prescribed
    recirculating velocity, first-order upwind advection and centered
    diffusion, recording the field at every instant of ``times``. Dirichlet
    values enter through ghost cells set directly to the wall temperature,
    which keeps every update a convex combination of neighbor values, so the
    discrete maximum principle holds by construction.

    All members advance together in one padded ``(k, ny + 2, nx + 2)``
    buffer, so each operation of a substep is one contiguous pass over every
    member. Each member keeps its own velocity, time step and substep count:
    in an interval where a member needs fewer substeps than another, it sits
    out the extra ones. Every operation keeps the operands and the order of
    evaluation of a member solved alone, so a member's snapshots do not
    depend on which other members share the call.

    Parameters
    ----------
    members : sequence of CavityParams
        Physical configuration of each run (velocity scale, boundary
        temperatures, kappa); at least one.
    grid, times : Grid, TimeAxis
        Output sampling. Internal substeps are sized from each member's
        stability bound and land exactly on each sampling instant.
    config : SolverConfig
        CFL safety factor.
    vary : ParamKind
        Which knob the enclosing ensemble varies; decides the parameter value
        stored in each returned SnapshotMatrix.

    Returns
    -------
    list of SnapshotMatrix
        One per member, in the order of ``members``.

    Raises
    ------
    StabilityError
        If an internal step exceeds its stability bound (defensive check).
    DivergenceError
        If any recorded snapshot contains non-finite values.
    """
    members = tuple(members)
    if not members:
        raise ValueError("solve_cavity needs at least one member")
    if vary == ParamKind.VELOCITY:
        param_values = [p.inlet_velocity for p in members]
    elif vary == ParamKind.TEMPERATURE:
        param_values = [p.inlet_temperature for p in members]
    else:
        raise ValueError("cavity runs vary either velocity or temperature")

    records = _advance(members, grid, times, config)
    # each SnapshotMatrix keeps its member's record, as a column-major view
    return [
        _adopt(grid, times, vary, value, record.reshape(times.n_steps, grid.n_cells).T)
        for value, record in zip(param_values, records)
    ]


def _advance(
    members: tuple[CavityParams, ...], grid: Grid, times: TimeAxis, config: SolverConfig
) -> list[np.ndarray]:
    """The batched kernel of ``solve_cavity``: one (n_steps, ny, nx) record per member."""
    k = len(members)
    nx, ny = grid.nx, grid.ny
    dx, dy = grid.dx, grid.dy
    row = nx + 2                  # flat offset of the north and south neighbors
    plane = (ny + 2) * row        # one padded member field
    size = k * plane              # every member field, back to back

    # One spare row before the first and after the last member keeps every
    # neighbor slice in bounds. Each pass also updates the ghost cells; the
    # wall reset overwrites what they get, and their zero upwind
    # coefficients keep it finite.
    buffer = np.zeros(size + 2 * row)
    padded = buffer[row : row + size].reshape(k, ny + 2, row)
    flat = (k, plane)
    center = buffer[row : row + size].reshape(flat)
    west_n = buffer[row - 1 : row - 1 + size].reshape(flat)
    east_n = buffer[row + 1 : row + 1 + size].reshape(flat)
    south_n = buffer[:size].reshape(flat)
    north_n = buffer[2 * row : 2 * row + size].reshape(flat)

    # Upwind coefficients, zero on the ghost cells.
    u_pos, u_neg, v_pos, v_neg = np.zeros((4, k, ny + 2, row))
    kappa = np.array([[p.kappa] for p in members])
    dt_stable, dt_target = [], []
    _, cy = grid.cell_centers()
    inlet_rows = cy.reshape(ny, nx)[:, 0] > 0.9 * grid.ly
    west = np.empty((k, ny))
    hot = np.array([[p.theta_hot] for p in members])
    cold = np.array([[p.theta_cold] for p in members])
    for i, p in enumerate(members):
        u_flat, v_flat = recirculating_velocity(p.inlet_velocity, grid)
        u = u_flat.reshape(ny, nx)
        v = v_flat.reshape(ny, nx)
        u_pos[i, 1:-1, 1:-1] = np.maximum(u, 0.0)
        u_neg[i, 1:-1, 1:-1] = np.minimum(u, 0.0)
        v_pos[i, 1:-1, 1:-1] = np.maximum(v, 0.0)
        v_neg[i, 1:-1, 1:-1] = np.minimum(v, 0.0)
        # Convex-combination stability: dt * (|u|/dx + |v|/dy + 2k/dx^2 + 2k/dy^2) <= 1.
        rate = np.abs(u) / dx + np.abs(v) / dy + 2.0 * p.kappa * (1.0 / dx**2 + 1.0 / dy**2)
        dt_stable.append(1.0 / float(rate.max()))
        dt_target.append(config.cfl * dt_stable[-1])
        # West ghost column: inlet patch on the top 10% of the left wall.
        west[i] = np.where(inlet_rows, p.inlet_temperature, p.theta_cold)
        padded[i, 1:-1, 1:-1] = p.theta_initial
    u_pos, u_neg, v_pos, v_neg = (c.reshape(flat) for c in (u_pos, u_neg, v_pos, v_neg))

    def reset_walls() -> None:
        padded[:, 1:-1, 0] = west            # left wall / inlet patch
        padded[:, 1:-1, -1] = cold
        padded[:, 0, :] = hot                # heated floor at y = 0
        padded[:, -1, :] = cold

    # One-sided differences shared by the upwind terms: (center - west) and
    # (east - center) are the same differences one cell apart, and likewise
    # (center - south) and (north - center) one row apart.
    x_hi, x_lo = buffer[row : row + size + 1], buffer[row - 1 : row + size]
    y_hi, y_lo = buffer[row : 2 * row + size], buffer[: row + size]
    step_x = np.empty(size + 1)
    step_y = np.empty(size + row)
    c_minus_w = step_x[:size].reshape(flat)
    e_minus_c = step_x[1:].reshape(flat)
    c_minus_s = step_y[:size].reshape(flat)
    n_minus_c = step_y[row:].reshape(flat)
    adv, lap, term, twice = np.empty((4, *flat))
    dt = np.empty((k, 1))

    instants = times.instants()
    records = [np.empty((times.n_steps, ny, nx)) for _ in members]
    for i, record in enumerate(records):
        record[0] = padded[i, 1:-1, 1:-1]
    reset_walls()
    for l in range(1, times.n_steps):
        span = instants[l] - instants[l - 1]
        n_sub = [max(1, math.ceil(span / target)) for target in dt_target]
        for i, n in enumerate(n_sub):
            dt[i, 0] = span / n
            if dt[i, 0] > dt_stable[i] * (1.0 + 1e-12):
                raise StabilityError(
                    f"substep {dt[i, 0]:.3e}s exceeds stability bound {dt_stable[i]:.3e}s"
                )
        counts, fewest = np.array(n_sub)[:, None], min(n_sub)
        for j in range(max(n_sub)):
            active = True if j < fewest else counts > j
            np.subtract(x_hi, x_lo, out=step_x)
            np.subtract(y_hi, y_lo, out=step_y)
            # adv = u_pos*(c - w)/dx + u_neg*(e - c)/dx + v_pos*(c - s)/dy + v_neg*(n - c)/dy
            np.multiply(u_pos, c_minus_w, out=adv)
            np.divide(adv, dx, out=adv)
            np.multiply(u_neg, e_minus_c, out=term)
            np.divide(term, dx, out=term)
            np.add(adv, term, out=adv)
            np.multiply(v_pos, c_minus_s, out=term)
            np.divide(term, dy, out=term)
            np.add(adv, term, out=adv)
            np.multiply(v_neg, n_minus_c, out=term)
            np.divide(term, dy, out=term)
            np.add(adv, term, out=adv)
            # diff = kappa * ((e - 2c + w)/dx^2 + (n - 2c + s)/dy^2)
            np.multiply(2.0, center, out=twice)
            np.subtract(east_n, twice, out=lap)
            np.add(lap, west_n, out=lap)
            np.divide(lap, dx**2, out=lap)
            np.subtract(north_n, twice, out=term)
            np.add(term, south_n, out=term)
            np.divide(term, dy**2, out=term)
            np.add(lap, term, out=lap)
            np.multiply(kappa, lap, out=lap)
            # field = field + dt * (diff - adv)
            np.subtract(lap, adv, out=lap)
            np.multiply(dt, lap, out=lap)
            np.add(center, lap, out=center, where=active)
            reset_walls()
        interior = padded[:, 1:-1, 1:-1]
        if not np.isfinite(interior).all():
            raise DivergenceError(f"non-finite values at t = {instants[l]:.6g}s")
        for i, record in enumerate(records):
            record[l] = interior[i]
    return records
