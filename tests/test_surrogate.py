"""Synthetic generators: plume formula, velocity field, cavity solver."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from romga import (
    CavityParams,
    Grid,
    ParamKind,
    PlumeParams,
    TimeAxis,
    analytic_plume,
    recirculating_velocity,
    solve_cavity,
)


def _grid(nx=24, ny=24):
    return Grid(nx, ny, 1.04, 1.04)


# ---------------------------------------------------------------- plume


def test_plume_matches_the_closed_form_pointwise():
    grid = Grid(8, 6, 1.2, 0.9)
    times = TimeAxis(7, 5.0)
    params = PlumeParams(0.43, theta_cold=12.0, theta_hot=31.0, sigma=0.2)
    matrix = analytic_plume(params, grid, times)
    cx, cy = grid.cell_centers()
    t = times.instants()
    for j, l in [(0, 0), (17, 3), (47, 6), (25, 1)]:
        xc = 0.5 * 1.2 * (1.0 + 0.8 * math.sin(2.0 * math.pi * 0.43 * t[l] / 5.0))
        yc = 0.9 * (0.2 + 0.6 * t[l] / 5.0)
        expected = 12.0 + 19.0 * math.exp(
            -((cx[j] - xc) ** 2 + (cy[j] - yc) ** 2) / 0.2**2
        )
        assert matrix.values[j, l] == pytest.approx(expected, rel=1e-14)


def test_plume_initial_peak_sits_at_the_start_position():
    grid = _grid(40, 40)
    times = TimeAxis(5, 10.0)
    matrix = analytic_plume(PlumeParams(0.4), grid, times)
    cx, cy = grid.cell_centers()
    j = int(np.argmax(matrix.values[:, 0]))
    # start center: (0.5*lx, 0.2*ly); the peak cell is the center nearest it
    d = (cx - 0.5 * 1.04) ** 2 + (cy - 0.2 * 1.04) ** 2
    assert j == int(np.argmin(d))


@given(
    delta=st.floats(0.05, 2.0),
    sigma=st.floats(0.05, 0.8),
    seed=st.integers(0, 100),
)
def test_plume_values_stay_inside_the_temperature_band(delta, sigma, seed):
    grid = Grid(10, 10, 1.0, 1.0)
    times = TimeAxis(6, 3.0)
    matrix = analytic_plume(PlumeParams(delta, sigma=sigma), grid, times)
    # the Gaussian tail can underflow to zero, landing exactly on theta_cold
    assert np.all(matrix.values >= 15.0)
    assert np.all(matrix.values <= 35.0)


def test_plume_is_deterministic_and_tags_metadata():
    grid = _grid()
    times = TimeAxis(6, 3.0)
    a = analytic_plume(PlumeParams(0.4), grid, times)
    b = analytic_plume(PlumeParams(0.4), grid, times)
    assert np.array_equal(a.values, b.values)
    assert a.param_kind == ParamKind.SYNTHETIC
    assert a.param_value == 0.4


def test_plume_params_validation():
    with pytest.raises(ValueError):
        PlumeParams(0.4, sigma=0.0)
    with pytest.raises(ValueError):
        PlumeParams(0.4, theta_cold=30.0, theta_hot=20.0)
    for name in ("delta", "theta_cold", "theta_hot", "sigma"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                PlumeParams(**{"delta": 0.4, name: bad})


# ---------------------------------------------------------------- velocity


def test_velocity_scales_linearly_and_vanishes_at_zero():
    grid = _grid()
    u1, v1 = recirculating_velocity(0.5, grid)
    u2, v2 = recirculating_velocity(1.0, grid)
    assert np.array_equal(2.0 * u1, u2)
    assert np.array_equal(2.0 * v1, v2)
    u0, v0 = recirculating_velocity(0.0, grid)
    assert np.all(u0 == 0.0) and np.all(v0 == 0.0)
    with pytest.raises(ValueError):
        recirculating_velocity(-0.1, grid)


def _max_discrete_divergence(nx: int, ny: int) -> float:
    grid = Grid(nx, ny, 1.04, 1.04)
    u, v = recirculating_velocity(0.7, grid)
    u = u.reshape(ny, nx)
    v = v.reshape(ny, nx)
    div = (u[1:-1, 2:] - u[1:-1, :-2]) / (2 * grid.dx) + (
        v[2:, 1:-1] - v[:-2, 1:-1]
    ) / (2 * grid.dy)
    return float(np.abs(div).max())


def test_velocity_divergence_vanishes_on_square_cell_counts():
    # with nx == ny the centered differences of the two components cancel
    # identically (same sin(pi*h/L)/h factor), so only rounding remains
    assert _max_discrete_divergence(20, 20) < 1e-12
    assert _max_discrete_divergence(40, 40) < 1e-12


def test_velocity_divergence_shrinks_at_second_order():
    coarse = _max_discrete_divergence(20, 30)
    fine = _max_discrete_divergence(40, 60)
    ratio = coarse / fine
    assert 3.2 <= ratio <= 4.8  # centered differences of a smooth field: O(h^2)


# ---------------------------------------------------------------- cavity


def test_cavity_snapshots_obey_the_maximum_principle():
    grid = _grid()
    times = TimeAxis(12, 6.0)
    params = CavityParams(0.6, 30.0, theta_hot=35.0, theta_cold=15.0, theta_initial=18.0)
    (matrix,) = solve_cavity([params], grid, times)
    lo = min(15.0, 30.0, 18.0, 35.0)
    hi = max(15.0, 30.0, 18.0, 35.0)
    assert matrix.values.min() >= lo - 1e-9
    assert matrix.values.max() <= hi + 1e-9


def test_cavity_uniform_case_stays_exactly_constant():
    grid = _grid(16, 16)
    times = TimeAxis(8, 4.0)
    params = CavityParams(
        0.0, 15.0, theta_hot=15.0, theta_cold=15.0, theta_initial=15.0
    )
    (matrix,) = solve_cavity([params], grid, times)
    assert np.all(matrix.values == 15.0)


def test_cavity_first_snapshot_is_the_initial_field():
    grid = _grid(16, 16)
    times = TimeAxis(6, 3.0)
    (matrix,) = solve_cavity([CavityParams(0.5, 20.0, theta_initial=17.0)], grid, times)
    assert np.all(matrix.values[:, 0] == 17.0)
    assert matrix.values.shape == (16 * 16, 6)


def test_cavity_fields_vary_smoothly_with_velocity():
    grid = _grid(20, 20)
    times = TimeAxis(10, 8.0)
    velocities = (0.51, 0.52, 0.798)
    runs = solve_cavity([CavityParams(u, 15.0) for u in velocities], grid, times)
    final = {u: run.values[:, -1] for u, run in zip(velocities, runs)}
    near = np.linalg.norm(final[0.51] - final[0.52]) / np.linalg.norm(final[0.51])
    far = np.linalg.norm(final[0.51] - final[0.798]) / np.linalg.norm(final[0.51])
    assert near < far


def test_cavity_inlet_temperature_enters_affinely():
    # the advected scalar is linear in its boundary data, so the solution at
    # theta = 15 must equal the average of the theta = 5 and theta = 25 runs
    grid = _grid(16, 16)
    times = TimeAxis(8, 5.0)
    low, mid, high = (
        run.values
        for run in solve_cavity(
            [CavityParams(0.57, theta) for theta in (5.0, 15.0, 25.0)],
            grid, times, vary=ParamKind.TEMPERATURE,
        )
    )
    blend = 0.5 * (low + high)
    assert np.abs(mid - blend).max() < 1e-10


def _reference_cavity(params, grid, times, cfl=0.9):
    """The cavity scheme for one member as a plain loop over padded copies."""
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    u_flat, v_flat = recirculating_velocity(params.inlet_velocity, grid)
    u, v = u_flat.reshape(ny, nx), v_flat.reshape(ny, nx)
    u_pos, u_neg = np.maximum(u, 0.0), np.minimum(u, 0.0)
    v_pos, v_neg = np.maximum(v, 0.0), np.minimum(v, 0.0)
    rate = np.abs(u) / dx + np.abs(v) / dy + 2.0 * params.kappa * (1.0 / dx**2 + 1.0 / dy**2)
    dt_target = cfl / float(rate.max())
    y_col = grid.cell_centers()[1].reshape(ny, nx)[:, 0]
    west = np.where(y_col > 0.9 * grid.ly, params.inlet_temperature, params.theta_cold)
    field = np.full((ny, nx), params.theta_initial)
    padded = np.empty((ny + 2, nx + 2))
    out = np.empty((grid.n_cells, times.n_steps))
    out[:, 0] = field.ravel()
    instants = times.instants()
    for l in range(1, times.n_steps):
        span = instants[l] - instants[l - 1]
        n_sub = max(1, math.ceil(span / dt_target))
        for _ in range(n_sub):
            padded[1:-1, 1:-1] = field
            padded[1:-1, 0] = west
            padded[1:-1, -1] = params.theta_cold
            padded[0, 1:-1] = params.theta_hot
            padded[-1, 1:-1] = params.theta_cold
            c, w, e = padded[1:-1, 1:-1], padded[1:-1, :-2], padded[1:-1, 2:]
            s, n = padded[:-2, 1:-1], padded[2:, 1:-1]
            adv = (
                u_pos * (c - w) / dx + u_neg * (e - c) / dx
                + v_pos * (c - s) / dy + v_neg * (n - c) / dy
            )
            diff = params.kappa * ((e - 2.0 * c + w) / dx**2 + (n - 2.0 * c + s) / dy**2)
            field = field + span / n_sub * (diff - adv)
        out[:, l] = field.ravel()
    return out


# three velocities, so the members take different substep counts, with
# differing inlet, initial and wall temperatures and two diffusivities
MIXED_ENSEMBLE = (
    CavityParams(0.51, 15.0),
    CavityParams(0.798, 30.0, theta_hot=40.0, theta_cold=10.0, theta_initial=12.0, kappa=3e-3),
    CavityParams(0.627, 5.0, theta_initial=20.0),
    CavityParams(0.0, 25.0, theta_cold=18.0, kappa=3e-3),
    CavityParams(0.57, 22.0, theta_hot=30.0, theta_initial=25.0),
)


def test_batched_members_equal_each_member_solved_alone():
    grid = Grid(14, 12, 1.04, 0.9)
    times = TimeAxis(7, 4.0)
    batched = solve_cavity(MIXED_ENSEMBLE, grid, times, vary=ParamKind.TEMPERATURE)
    assert len(batched) == len(MIXED_ENSEMBLE)
    for params, run in zip(MIXED_ENSEMBLE, batched):
        (alone,) = solve_cavity([params], grid, times, vary=ParamKind.TEMPERATURE)
        assert run.equals(alone)
        assert run.param_value == params.inlet_temperature
        assert np.array_equal(alone.values, _reference_cavity(params, grid, times))

    order = (3, 0, 4, 2, 1)
    permuted = solve_cavity(
        [MIXED_ENSEMBLE[i] for i in order], grid, times, vary=ParamKind.TEMPERATURE
    )
    for i, run in zip(order, permuted):
        assert run.equals(batched[i])

    with pytest.raises(ValueError, match="at least one member"):
        solve_cavity([], grid, times)


def test_cavity_parameter_tagging_follows_vary():
    grid = _grid(16, 16)
    times = TimeAxis(4, 2.0)
    params = CavityParams(0.6, 22.0)
    (a,) = solve_cavity([params], grid, times, vary=ParamKind.VELOCITY)
    assert (a.param_kind, a.param_value) == (ParamKind.VELOCITY, 0.6)
    (b,) = solve_cavity([params], grid, times, vary=ParamKind.TEMPERATURE)
    assert (b.param_kind, b.param_value) == (ParamKind.TEMPERATURE, 22.0)
    with pytest.raises(ValueError):
        solve_cavity([params], grid, times, vary=ParamKind.SYNTHETIC)


def test_cavity_validation():
    with pytest.raises(ValueError):
        CavityParams(-0.1, 15.0)
    with pytest.raises(ValueError):
        CavityParams(0.5, 15.0, kappa=0.0)
    for name in (
        "inlet_velocity", "inlet_temperature", "theta_hot", "theta_cold", "theta_initial", "kappa"
    ):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                CavityParams(**{"inlet_velocity": 0.5, "inlet_temperature": 15.0, name: bad})
    grid, times, params = _grid(4, 4), TimeAxis(3, 1.0), CavityParams(0.5, 15.0)
    for cfl in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=r"cfl must lie in \(0, 1\]"):
            solve_cavity([params], grid, times, cfl=cfl)
    (full,) = solve_cavity([params], grid, times, cfl=1.0)
    assert full.values.shape == (16, 3)
