"""Synthetic generators: plume formula, velocity field, cavity solver."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from romga import (
    DivergenceError,
    Grid,
    ParamKind,
    PlumeParams,
    TimeAxis,
    analytic_plume,
    cli,
    recirculating_velocity,
    solve_cavity,
    surrogate,
)


def _grid(nx=24, ny=24):
    return Grid(nx, ny, 1.04, 1.04)


# ---------------------------------------------------------------- plume


def test_plume_matches_the_closed_form_pointwise(monkeypatch):
    monkeypatch.setattr(surrogate, "THETA_COLD", 12.0)
    monkeypatch.setattr(surrogate, "THETA_HOT", 31.0)
    grid = Grid(8, 6, 1.2, 0.9)
    times = TimeAxis(7, 5.0)
    params = PlumeParams(0.43, sigma=0.2)
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
    # the Gaussian tail can underflow to zero, landing exactly on THETA_COLD
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
    for name in ("delta", "sigma"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                PlumeParams(**{"delta": 0.4, name: bad})
    # a width whose square overflows or underflows to zero
    for bad in (1e300, 1e-200):
        with pytest.raises(ValueError, match="sigma must be positive with a positive finite"):
            PlumeParams(0.4, sigma=bad)


def test_a_narrow_plume_is_cold_wherever_its_exponent_overflows():
    # r2 / sigma**2 overflows away from the centre; exp(-inf) = 0 is the exact
    # limit, reached without a numpy warning (pytest turns one into an error)
    field = analytic_plume(PlumeParams(0.4, sigma=1e-160), _grid(), TimeAxis(4, 1.0)).values
    assert np.all(field == 15.0)


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
    (matrix,) = solve_cavity([30.0], grid, times, vary=ParamKind.TEMPERATURE)
    assert matrix.values.min() >= 15.0 - 1e-9
    assert matrix.values.max() <= 35.0 + 1e-9


def test_the_two_series_meet_at_the_held_run():
    # a velocity series holds the inlet temperature, a temperature series the
    # velocity: each at the value the other series holds, they solve one run
    grid = _grid(16, 16)
    times = TimeAxis(6, 3.0)
    u, theta = surrogate.INLET_VELOCITY, surrogate.INLET_TEMPERATURE
    (velocity,) = solve_cavity([u], grid, times, vary=ParamKind.VELOCITY)
    (temperature,) = solve_cavity([theta], grid, times, vary=ParamKind.TEMPERATURE)
    assert np.array_equal(velocity.values, temperature.values)
    assert (velocity.param_kind, velocity.param_value) == (ParamKind.VELOCITY, u)
    assert (temperature.param_kind, temperature.param_value) == (ParamKind.TEMPERATURE, theta)
    assert np.array_equal(velocity.values, _reference_cavity(u, theta, grid, times))


def test_cavity_uniform_case_stays_exactly_constant(monkeypatch):
    # the cold walls, the initial field and the held inlet are already at 15
    monkeypatch.setattr(surrogate, "THETA_HOT", 15.0)
    grid = _grid(16, 16)
    times = TimeAxis(8, 4.0)
    (matrix,) = solve_cavity([0.0], grid, times)
    assert np.all(matrix.values == 15.0)


def test_cavity_first_snapshot_is_the_initial_field(monkeypatch):
    monkeypatch.setattr(surrogate, "THETA_COLD", 17.0)
    grid = _grid(16, 16)
    times = TimeAxis(6, 3.0)
    (matrix,) = solve_cavity([0.5], grid, times)
    assert np.all(matrix.values[:, 0] == 17.0)
    assert matrix.values.shape == (16 * 16, 6)


def test_cavity_fields_vary_smoothly_with_velocity():
    grid = _grid(20, 20)
    times = TimeAxis(10, 8.0)
    velocities = (0.51, 0.52, 0.798)
    runs = solve_cavity(velocities, grid, times)
    final = {u: run.values[:, -1] for u, run in zip(velocities, runs)}
    near = np.linalg.norm(final[0.51] - final[0.52]) / np.linalg.norm(final[0.51])
    far = np.linalg.norm(final[0.51] - final[0.798]) / np.linalg.norm(final[0.51])
    assert near < far


def test_cavity_inlet_temperature_enters_affinely():
    # the advected scalar is linear in its boundary data, so the solution at
    # theta = 15 must equal the average of the theta = 5 and theta = 25 runs;
    # the series blends its middle run from the other two, so the scheme is
    # checked on theta = 15 solved alone
    grid = _grid(16, 16)
    times = TimeAxis(8, 5.0)
    low, mid, high = (
        run.values
        for run in solve_cavity([5.0, 15.0, 25.0], grid, times, vary=ParamKind.TEMPERATURE)
    )
    (alone,) = solve_cavity([15.0], grid, times, vary=ParamKind.TEMPERATURE)
    blend = 0.5 * (low + high)
    assert np.abs(alone.values - blend).max() < 1e-10
    assert np.abs(mid - blend).max() < 1e-10


def _reference_cavity(velocity, inlet, grid, times, cfl=0.9):
    """The cavity scheme for one run as a plain loop in the solver's coefficient form."""
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    u_flat, v_flat = recirculating_velocity(velocity, grid)
    u, v = u_flat.reshape(ny, nx), v_flat.reshape(ny, nx)
    cold, hot, kappa = surrogate.THETA_COLD, surrogate.THETA_HOT, surrogate.KAPPA
    rw = kappa / dx**2 + np.maximum(u, 0.0) / dx
    re = kappa / dx**2 - np.minimum(u, 0.0) / dx
    rs = kappa / dy**2 + np.maximum(v, 0.0) / dy
    rn = kappa / dy**2 - np.minimum(v, 0.0) / dy
    rate = np.abs(u) / dx + np.abs(v) / dy + 2.0 * kappa * (1.0 / dx**2 + 1.0 / dy**2)
    dt_target = cfl / float(rate.max())
    y_col = grid.cell_centers()[1].reshape(ny, nx)[:, 0]
    padded = np.empty((ny + 2, nx + 2))
    padded[1:-1, 0] = np.where(y_col > 0.9 * grid.ly, inlet, cold)
    padded[1:-1, -1] = cold
    padded[0, 1:-1] = hot
    padded[-1, 1:-1] = cold
    padded[1:-1, 1:-1] = cold
    out = np.empty((grid.n_cells, times.n_steps))
    out[:, 0] = padded[1:-1, 1:-1].ravel()
    instants = times.instants()
    for l in range(1, times.n_steps):
        span = instants[l] - instants[l - 1]
        n_sub = max(1, math.ceil(span / dt_target))
        dt = span / n_sub
        cw, ce, cs, cn = rw * dt, re * dt, rs * dt, rn * dt
        for _ in range(n_sub):
            c, w, e = padded[1:-1, 1:-1], padded[1:-1, :-2], padded[1:-1, 2:]
            s, n = padded[:-2, 1:-1], padded[2:, 1:-1]
            padded[1:-1, 1:-1] = c + (ce * (e - c) - cw * (c - w) + cn * (n - c) - cs * (c - s))
        out[:, l] = padded[1:-1, 1:-1].ravel()
    return out


def _textbook_cavity(velocity, inlet, grid, times, cfl=0.9):
    """The cavity scheme for one run as separate upwind advection and diffusion terms."""
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    u_flat, v_flat = recirculating_velocity(velocity, grid)
    u, v = u_flat.reshape(ny, nx), v_flat.reshape(ny, nx)
    u_pos, u_neg = np.maximum(u, 0.0), np.minimum(u, 0.0)
    v_pos, v_neg = np.maximum(v, 0.0), np.minimum(v, 0.0)
    cold, hot, kappa = surrogate.THETA_COLD, surrogate.THETA_HOT, surrogate.KAPPA
    rate = np.abs(u) / dx + np.abs(v) / dy + 2.0 * kappa * (1.0 / dx**2 + 1.0 / dy**2)
    dt_target = cfl / float(rate.max())
    y_col = grid.cell_centers()[1].reshape(ny, nx)[:, 0]
    west = np.where(y_col > 0.9 * grid.ly, inlet, cold)
    field = np.full((ny, nx), cold)
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
            padded[1:-1, -1] = cold
            padded[0, 1:-1] = hot
            padded[-1, 1:-1] = cold
            c, w, e = padded[1:-1, 1:-1], padded[1:-1, :-2], padded[1:-1, 2:]
            s, n = padded[:-2, 1:-1], padded[2:, 1:-1]
            adv = (
                u_pos * (c - w) / dx + u_neg * (e - c) / dx
                + v_pos * (c - s) / dy + v_neg * (n - c) / dy
            )
            diff = kappa * ((e - 2.0 * c + w) / dx**2 + (n - 2.0 * c + s) / dy**2)
            field = field + span / n_sub * (diff - adv)
        out[:, l] = field.ravel()
    return out


# (velocity, inlet temperature) pairs: five velocities, so the members take
# different substep counts (one stands still), each with its own inlet
MIXED_ENSEMBLE = ((0.51, 15.0), (0.798, 30.0), (0.627, 5.0), (0.0, 25.0), (0.57, 22.0))

# the shared physics, as surrogate's defaults and with every constant changed
PHYSICS = ({}, {"THETA_COLD": 10.0, "THETA_HOT": 40.0, "KAPPA": 3e-3})


def _advanced(pairs, grid, times):
    """Each pair's run from one call of the batched kernel, as (n_cells, n_steps) values."""
    velocities, inlets = zip(*pairs)
    records = surrogate._advance(velocities, inlets, grid, times)
    return [record.reshape(times.n_steps, grid.n_cells).T for record in records]


def test_batched_members_equal_each_member_solved_alone(monkeypatch):
    grid = Grid(14, 12, 1.04, 0.9)
    times = TimeAxis(7, 4.0)
    for physics in PHYSICS:
        with monkeypatch.context() as patch:
            for name, value in physics.items():
                patch.setattr(surrogate, name, value)
            batched = _advanced(MIXED_ENSEMBLE, grid, times)
            assert len(batched) == len(MIXED_ENSEMBLE)
            for pair, run in zip(MIXED_ENSEMBLE, batched):
                (alone,) = _advanced([pair], grid, times)
                assert np.array_equal(run, alone)
                assert np.array_equal(alone, _reference_cavity(*pair, grid, times))

            order = (3, 0, 4, 2, 1)
            permuted = _advanced([MIXED_ENSEMBLE[i] for i in order], grid, times)
            for i, run in zip(order, permuted):
                assert np.array_equal(run, batched[i])

    with pytest.raises(ValueError, match="at least one value"):
        solve_cavity([], grid, times)


def test_members_agree_with_the_textbook_scheme(monkeypatch):
    # the coefficient form regroups the upwind and diffusion terms, so it may
    # differ from them only by rounding
    grid = Grid(14, 12, 1.04, 0.9)
    times = TimeAxis(7, 4.0)
    for physics in PHYSICS:
        with monkeypatch.context() as patch:
            for name, value in physics.items():
                patch.setattr(surrogate, name, value)
            runs = _advanced(MIXED_ENSEMBLE, grid, times)
            for pair, run in zip(MIXED_ENSEMBLE, runs):
                textbook = _textbook_cavity(*pair, grid, times)
                assert np.abs(run - textbook).max() <= 1e-13 * np.abs(textbook).max()


def test_full_cfl_keeps_the_maximum_principle_and_batched_equality(monkeypatch):
    # at cfl = 1 a cell's own weight 1 - (cw + ce + cs + cn) can reach zero
    monkeypatch.setattr(surrogate, "CFL", 1.0)
    grid = Grid(14, 12, 1.04, 0.9)
    times = TimeAxis(7, 4.0)
    batched = _advanced(MIXED_ENSEMBLE, grid, times)
    for (velocity, inlet), run in zip(MIXED_ENSEMBLE, batched):
        bounds = (surrogate.THETA_HOT, surrogate.THETA_COLD, inlet)
        assert run.min() >= min(bounds) - 1e-9
        assert run.max() <= max(bounds) + 1e-9
        (alone,) = _advanced([(velocity, inlet)], grid, times)
        assert np.array_equal(run, alone)
        assert np.array_equal(alone, _reference_cavity(velocity, inlet, grid, times, cfl=1.0))


def test_solver_work_arrays_start_on_a_cache_line():
    # each call follows allocations of another size, so the heap hands out
    # blocks at varying offsets
    held = []
    for n in range(1, 10):
        held.append(np.empty(n * 37))
        for shape in ((7,), (2, 3, 5), (4, 3, 14, 16)):
            block = surrogate._aligned_zeros(*shape)
            assert block.shape == shape and block.flags.c_contiguous
            assert block.ctypes.data % 64 == 0 and not block.any()


def test_cavity_parameter_tagging_follows_vary():
    grid = _grid(16, 16)
    times = TimeAxis(4, 2.0)
    (a,) = solve_cavity([0.6], grid, times, vary=ParamKind.VELOCITY)
    assert (a.param_kind, a.param_value) == (ParamKind.VELOCITY, 0.6)
    (b,) = solve_cavity([22.0], grid, times, vary=ParamKind.TEMPERATURE)
    assert (b.param_kind, b.param_value) == (ParamKind.TEMPERATURE, 22.0)
    with pytest.raises(ValueError):
        solve_cavity([0.6], grid, times, vary=ParamKind.SYNTHETIC)


def test_cavity_validation(monkeypatch):
    def no_run(*args):
        raise AssertionError("nothing may run before the values are checked")

    monkeypatch.setattr(surrogate, "_advance", no_run)
    grid, times = _grid(8, 8), TimeAxis(4, 1.0)
    with pytest.raises(ValueError, match="inlet_velocity must be nonnegative"):
        solve_cavity([0.5, -0.1], grid, times)
    for vary, name in ((ParamKind.VELOCITY, "inlet_velocity"),
                       (ParamKind.TEMPERATURE, "inlet_temperature")):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                solve_cavity([0.5, bad], grid, times, vary=vary)


def test_a_field_that_overflows_stops_the_solver(monkeypatch):
    # walls at +-1e308 overflow the first substep's differences: the solver
    # stops at the first instant it records, with no numpy warning on the way
    # (pytest turns any warning into an error)
    monkeypatch.setattr(surrogate, "THETA_HOT", 1e308)
    monkeypatch.setattr(surrogate, "THETA_COLD", -1e308)
    with pytest.raises(DivergenceError, match=r"^non-finite values at t = 0\.333333s$"):
        solve_cavity([0.5], _grid(8, 8), TimeAxis(4, 1.0))


def _solo(theta, grid, times):
    (run,) = solve_cavity([theta], grid, times, vary=ParamKind.TEMPERATURE)
    return run


def _count_advanced(monkeypatch):
    """Record the run count of every batched ``_advance`` call."""
    seen = []
    advance = surrogate._advance

    def counting(velocities, *args):
        seen.append(len(velocities))
        return advance(velocities, *args)

    monkeypatch.setattr(surrogate, "_advance", counting)
    return seen


def test_an_inlet_temperature_group_advances_its_extremes_and_blends_the_rest(monkeypatch):
    grid = Grid(14, 12, 1.04, 0.9)
    times = TimeAxis(9, 6.0)
    temps = (20.0, 5.0, 12.5, 25.0, 10.0)  # the extremes are neither first nor last
    # each run changes one shared constant, which must reach the blended
    # runs as it reaches the advanced ones
    shared = {"default": {}, "cold": {"THETA_COLD": 10.0}, "hot": {"THETA_HOT": 45.0},
              "kappa": {"KAPPA": 4e-3}}
    runs = {}
    for name, setting in shared.items():
        with monkeypatch.context() as patch:
            for constant, value in setting.items():
                patch.setattr(surrogate, constant, value)
            runs[name] = solve_cavity(temps, grid, times, vary=ParamKind.TEMPERATURE)
            for theta, run in zip(temps, runs[name]):
                alone = _solo(theta, grid, times)
                assert run.param_value == theta
                if theta in (5.0, 25.0):
                    assert run.equals(alone), name
                else:
                    scale = np.abs(alone.values).max()
                    assert np.abs(run.values - alone.values).max() <= 1e-13 * scale, name
                # the extremes agree on the initial field, so the blend keeps it exactly
                assert np.all(run.values[:, 0] == surrogate.THETA_COLD), name
                bounds = (surrogate.THETA_HOT, surrogate.THETA_COLD, theta)
                assert run.values.min() >= min(bounds) - 1e-12, name
                assert run.values.max() <= max(bounds) + 1e-12, name
    for i, default in enumerate(runs["default"]):
        ref = default.values
        cold, hot, kappa = (runs[name][i].values for name in ("cold", "hot", "kappa"))
        # colder walls and initial field cool every cell and warm none; a hotter
        # floor warms every cell it reaches and cools none
        assert np.all(cold <= ref + 1e-12) and (cold < ref - 1e-3).any()
        assert np.all(hot >= ref - 1e-12) and (hot > ref + 1e-3).any()
        # a faster diffusion carries the walls' heat further, so it moves the field
        assert np.abs(kappa - ref).max() > 1e-3


def test_only_inlet_temperature_groups_are_blended(monkeypatch, tmp_path, capsys):
    seen = _count_advanced(monkeypatch)
    small = ["--nx", "12", "--ny", "12", "--snapshots", "6", "--tfinal", "3"]
    for preset in ("series2-temperature", "series1-velocity"):
        out = tmp_path / preset
        out.mkdir()
        assert cli.main(["datagen", "--preset", preset, *small, "--out", str(out)]) == 0
    capsys.readouterr()
    assert seen == [2, 3]  # five temperatures, then three velocities

    seen.clear()
    grid, times = Grid(14, 12, 1.04, 0.9), TimeAxis(7, 4.0)
    solve_cavity([5.0, 25.0], grid, times, vary=ParamKind.TEMPERATURE)
    # a span of inlet temperatures beyond the float range is not blended
    huge = (-1e308, 0.0, 1e308)
    middle = solve_cavity(huge, grid, times, vary=ParamKind.TEMPERATURE)[1]
    assert seen == [2, 3]
    assert middle.equals(_solo(huge[1], grid, times))


def test_equal_members_each_get_their_own_record(monkeypatch):
    seen = _count_advanced(monkeypatch)
    grid, times = Grid(12, 12, 1.04, 1.04), TimeAxis(6, 3.0)
    # (inlet temperatures, members advanced, temperatures blended)
    for temps, advanced, blended in (
        ((15.0, 15.0, 15.0), 1, ()),
        ((15.0, 15.0), 2, ()),
        ((25.0, 5.0, 25.0, 5.0, 15.0, 15.0), 2, (15.0,)),
    ):
        seen.clear()
        runs = solve_cavity(temps, grid, times, vary=ParamKind.TEMPERATURE)
        assert seen == [advanced]
        for theta, run in zip(temps, runs):
            alone = _solo(theta, grid, times)
            if theta in blended:
                assert np.abs(run.values - alone.values).max() <= 1e-13 * 35.0
            else:
                assert run.equals(alone)
        for a, b in itertools.combinations(runs, 2):
            assert not np.shares_memory(a.values, b.values)
