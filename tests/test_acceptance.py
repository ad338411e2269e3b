"""Acceptance gate: one test per shipping criterion, pinned tolerances.

Each criterion is a single test function; the -v listing gives the one
pass/fail line per criterion. Prints carry the measured numbers for -s runs.
Artifacts flow through the command line interface wherever one exists:
the fixtures run the campaigns of scripts/campaign.py, whose table holds
the targets and the GA settings.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest

from romga import (
    Grid,
    TimeAxis,
    compress_ensemble,
    interpolate_reduced,
    procrustes_align,
    read_history_csv,
    read_rom,
    read_snapshots,
    reconstruct_field,
    reconstruct_sample,
    pod_factorize,
    solve_cavity,
    surrogate,
)
from romga.barycentric import _weights

# the campaign table and pipeline live in the campaign script, which is not a package module
_SPEC = importlib.util.spec_from_file_location(
    "campaign", Path(__file__).resolve().parents[1] / "scripts" / "campaign.py"
)
campaign = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(campaign)


@pytest.fixture(scope="module")
def plume_assets(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_plume")
    campaign.run_campaign(root, "plume")
    return root


@pytest.fixture(scope="module")
def series1(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_series1")
    return root, campaign.run_campaign(root, "series1").rows


@pytest.fixture(scope="module")
def series2(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_series2")
    return root, campaign.run_campaign(root, "series2").rows


# -------------------------------------------------------------- criterion 1


def test_criterion_1_node_queries_reproduce_the_training_samples(plume_assets, tmp_path):
    root = plume_assets
    db = read_rom(root / "db.rom1")
    start = time.perf_counter()
    worst = 0.0
    for k, delta in enumerate(db.params):
        out = tmp_path / f"node_{k}.snp1"
        campaign.run_cli([
            "predict", "--rom", str(root / "db.rom1"),
            "--delta", repr(float(delta)), "--ne-x", "3", "--ne-t", "3",
            "--out", str(out),
        ])
        stored = reconstruct_sample(db, k, db.q).values
        predicted = read_snapshots(out).values
        rel = float(np.linalg.norm(predicted - stored) / np.linalg.norm(stored))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst rel over {db.n_params} nodes = {worst:.3e} "
          f"(bar 1e-8), {elapsed:.2f}s (bar 5s)")
    assert worst <= 1e-8
    assert elapsed < 5.0


# -------------------------------------------------------------- criterion 2


def test_criterion_2_truncation_error_equals_the_singular_tail():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        nx = int(rng.integers(2, 11))
        ny = int(rng.integers(2, 6))
        n_steps = int(rng.integers(2, 21))
        values = rng.normal(size=(nx * ny, n_steps))
        from romga import ParamKind, SnapshotMatrix

        matrix = SnapshotMatrix(
            Grid(nx, ny, 1.0, 1.0), TimeAxis(n_steps, 1.0),
            ParamKind.SYNTHETIC, 0.5, values,
        )
        sv = np.linalg.svd(values, compute_uv=False)
        scale = float(np.linalg.norm(values))
        for q in range(1, min(nx * ny, n_steps) + 1):
            spatial, temporal = pod_factorize(matrix, q)
            err = float(np.linalg.norm(values - spatial @ temporal.T))
            tail = float(np.sqrt((sv[q:] ** 2).sum()))
            worst = max(worst, abs(err - tail) / scale)
    print(f"criterion 2: worst |error - tail| = {worst:.3e} of scale (bar 1e-10)")
    assert worst <= 1e-10


# -------------------------------------------------------------- criterion 3


def test_criterion_3_weights_and_alignments_hold_their_invariants():
    rng = np.random.default_rng(71)
    worst_sum = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 6))
        nodes = float(rng.uniform(0.0, 0.5)) + np.concatenate(
            [[0.0], np.cumsum(rng.uniform(0.1, 0.25, size - 1))]
        )
        query = float(rng.uniform(nodes[0], nodes[-1]))
        worst_sum = max(worst_sum, abs(float(_weights(nodes.tolist(), query).sum()) - 1.0))

    worst_ortho = 0.0
    for _ in range(1000):
        rows = int(rng.integers(2, 13))
        cols = int(rng.integers(1, min(rows, 6) + 1))
        q = procrustes_align(
            rng.normal(size=(rows, cols)), rng.normal(size=(rows, cols))
        )
        worst_ortho = max(worst_ortho, float(np.abs(q.T @ q - np.eye(cols)).max()))

    print(f"criterion 3: worst |sum w - 1| = {worst_sum:.3e} (bar 1e-12), "
          f"worst ||Q'Q - I|| = {worst_ortho:.3e} (bar 1e-10)")
    assert worst_sum <= 1e-12
    assert worst_ortho <= 1e-10


# -------------------------------------------------------------- criterion 4


def test_criterion_4_leave_one_out_stays_under_five_percent(plume_assets):
    root = plume_assets
    entries = [ln.split(",") for ln in
               (root / "manifest.txt").read_text(encoding="utf-8").splitlines()]
    matrices = {float(v): read_snapshots(root / name) for _, v, name in entries}
    deltas = sorted(matrices)
    start = time.perf_counter()
    errors = {}
    for held in deltas[1:-1]:
        db = compress_ensemble([matrices[d] for d in deltas if d != held], q=10)
        result = interpolate_reduced(db, held, ne_x=4, ne_t=4, m=10)
        predicted = reconstruct_field(db, result.spatial_factor, result.temporal_factor)
        truth = matrices[held].values
        errors[held] = float(np.linalg.norm(predicted - truth) / np.linalg.norm(truth))
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{d}: {100 * e:.2f}%" for d, e in errors.items())
    print(f"criterion 4: leave-one-out {detail} (bar 5%), {elapsed:.1f}s (bar 30s)")
    assert max(errors.values()) <= 0.05
    assert elapsed < 30.0


# -------------------------------------------------------------- criteria 5 and 6


def _recovery(rows, label, bar_pct):
    for row in rows:
        assert row.seconds < 120.0, f"target {row.truth:g} took {row.seconds:.0f}s"
    detail = ", ".join(f"{row.truth:g}: {row.miss_pct:.2f}% in {row.seconds:.0f}s" for row in rows)
    print(f"{label}: recovery misses {detail} (bar {bar_pct:g}%, 120s each)")
    assert max(row.miss_pct for row in rows) <= bar_pct


def test_criterion_5_velocity_recovery_within_five_percent(series1):
    _recovery(series1[1], "criterion 5", 5.0)


def test_criterion_6_temperature_recovery_within_six_percent(series2):
    _recovery(series2[1], "criterion 6", 6.0)


# -------------------------------------------------------------- criterion 7


def test_criterion_7_pointwise_errors_at_the_recovered_optima(series1, series2):
    worst = {}
    for label, (root, rows) in (("velocity", series1), ("temperature", series2)):
        for row in rows:
            tag = f"{row.truth:g}"
            series = (root / f"report_{tag}" / "error_series.csv").read_text(encoding="utf-8")
            worst[f"{label} {tag}"] = max(float(r.split(",")[1]) for r in series.splitlines()[1:])
    detail = ", ".join(f"{k}: {v:.2f}%" for k, v in worst.items())
    print(f"criterion 7: max per-instant errors {detail} (bar 2%)")
    assert max(worst.values()) <= 2.0


# -------------------------------------------------------------- criterion 8


def test_criterion_8_history_is_monotone_informative_and_reproducible(series1):
    root, _ = series1
    value = campaign.CAMPAIGNS["series1"][1][0]
    history = read_history_csv(root / f"history_{value}.csv")
    assert len(history.records) == 30
    best = [rec.best_cost for rec in history.records]
    avg = [rec.avg_cost for rec in history.records]
    assert all(b <= a for a, b in zip(best, best[1:])), "best cost increased"
    assert avg[-1] < avg[0], "no average improvement over the run"

    rerun = root / "history_rerun.csv"
    campaign.run_cli([
        "optimize", "--rom", str(root / "db.rom1"),
        "--target", str(root / f"target_{value}.snp1"),
        *campaign.GA_ARGS, "--out", str(rerun),
    ])
    identical = rerun.read_bytes() == (root / f"history_{value}.csv").read_bytes()
    print(f"criterion 8: best {best[0]:.3e} -> {best[-1]:.3e}, "
          f"avg {avg[0]:.3e} -> {avg[-1]:.3e}, rerun identical: {identical}")
    assert identical


# -------------------------------------------------------------- criterion 9


def test_criterion_9_solver_respects_temperature_bounds(series1, series2, monkeypatch):
    worst_violation = 0.0
    for root, _ in (series1, series2):
        entries = [ln.split(",") for ln in
                   (root / "manifest.txt").read_text(encoding="utf-8").splitlines()]
        paths = [root / name for _, _, name in entries]
        paths += sorted(root.glob("target_*.snp1"))
        for path in paths:
            matrix = read_snapshots(path)
            if matrix.param_kind.name == "TEMPERATURE":
                lo = min(15.0, matrix.param_value)
                hi = max(35.0, matrix.param_value)
            else:
                lo, hi = 15.0, 35.0
            worst_violation = max(
                worst_violation,
                float(lo - matrix.values.min()),
                float(matrix.values.max() - hi),
            )

    # velocity 0 and every boundary and initial value 15: the cold walls, the
    # initial field and the held inlet already are, and the hot floor is lowered to them
    monkeypatch.setattr(surrogate, "THETA_HOT", 15.0)
    grid = Grid(16, 16, 1.04, 1.04)
    times = TimeAxis(8, 4.0)
    (uniform,) = solve_cavity([0.0], grid, times)
    constant = bool(np.all(uniform.values == 15.0))
    print(f"criterion 9: worst bound violation {worst_violation:.2e} (bar 1e-9), "
          f"uniform case exactly constant: {constant}")
    assert worst_violation <= 1e-9
    assert constant
