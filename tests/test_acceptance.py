"""Acceptance gate: one test per shipping criterion, pinned tolerances.

Each criterion is a single test function; the -v listing gives the one
pass/fail line per criterion. Prints carry the measured numbers for -s runs.
Artifacts flow through the command line interface wherever one exists.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from romga import (
    CavityParams,
    Grid,
    TimeAxis,
    cli,
    compress_ensemble,
    interpolate_reduced,
    lagrange_weights,
    procrustes_align,
    read_history_csv,
    read_rom,
    read_snapshots,
    reconstruct_field,
    reconstruct_sample,
    pod_factorize,
    solve_cavity,
)

PLUME_ARGS = [
    "--family", "plume",
    "--deltas", "0.3,0.35,0.4,0.45,0.5",
    "--nx", "40", "--ny", "40",
    "--snapshots", "60", "--tfinal", "10",
    "--sigma", "0.3",
]

SERIES1_TARGETS = ("0.54", "0.67", "0.755")
SERIES2_TARGETS = ("7.5", "17.5", "22.5")
GA_ARGS = ["--pop", "20", "--gens", "30", "--seed", "3"]


def _run(argv):
    """cli.main with captured stdout; fails the test on a nonzero exit."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    assert code == 0, f"{argv} exited {code}\n{buffer.getvalue()}"
    return buffer.getvalue()


def _fields(line):
    return dict(token.split("=") for token in line.split())


def _optimize(root, rom, target_name, out_name):
    start = time.perf_counter()
    line = _run(
        [
            "optimize",
            "--rom", str(rom),
            "--target", str(root / target_name),
            *GA_ARGS,
            "--out", str(root / out_name),
        ]
    )
    elapsed = time.perf_counter() - start
    return _fields(line.strip()), elapsed


@pytest.fixture(scope="module")
def plume_assets(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_plume")
    _run(["datagen", *PLUME_ARGS, "--out", str(root)])
    rom = root / "db.rom1"
    _run(["compress", "--snapshots", str(root / "manifest.txt"), "--q", "10",
          "--out", str(rom)])
    return root


@pytest.fixture(scope="module")
def series1(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_series1")
    _run(["datagen", "--preset", "series1-velocity",
          "--target", ",".join(SERIES1_TARGETS), "--out", str(root)])
    rom = root / "db.rom1"
    _run(["compress", "--snapshots", str(root / "manifest.txt"), "--q", "30",
          "--out", str(rom)])
    results = {
        value: _optimize(root, rom, f"target_{value}.snp1", f"history_{value}.csv")
        for value in SERIES1_TARGETS
    }
    return root, results


@pytest.fixture(scope="module")
def series2(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_series2")
    _run(["datagen", "--preset", "series2-temperature",
          "--target", ",".join(SERIES2_TARGETS), "--out", str(root)])
    rom = root / "db.rom1"
    _run(["compress", "--snapshots", str(root / "manifest.txt"), "--q", "30",
          "--out", str(rom)])
    results = {
        value: _optimize(root, rom, f"target_{value}.snp1", f"history_{value}.csv")
        for value in SERIES2_TARGETS
    }
    return root, results


def _max_error_series(root, rom, fields, target_name, tag):
    """predict at the recovered genes, then report the per-instant errors."""
    pred = root / f"pred_{tag}.snp1"
    _run([
        "predict", "--rom", str(rom),
        "--delta", fields["delta"],
        "--ne-x", fields["ne_x"], "--ne-t", fields["ne_t"], "--m", fields["m"],
        "--out", str(pred),
    ])
    report_dir = root / f"report_{tag}"
    report_dir.mkdir(exist_ok=True)
    _run([
        "report", "--predicted", str(pred), "--target", str(root / target_name),
        "--out", str(report_dir),
    ])
    rows = (report_dir / "error_series.csv").read_text(encoding="utf-8").splitlines()
    return max(float(r.split(",")[1]) for r in rows[1:])


# -------------------------------------------------------------- criterion 1


def test_criterion_1_node_queries_reproduce_the_training_samples(plume_assets, tmp_path):
    root = plume_assets
    db = read_rom(root / "db.rom1")
    start = time.perf_counter()
    worst = 0.0
    for k, delta in enumerate(db.params):
        out = tmp_path / f"node_{k}.snp1"
        _run([
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
            pair = pod_factorize(matrix, q)
            err = float(np.linalg.norm(values - pair.spatial_modes @ pair.temporal_coeffs.T))
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
        worst_sum = max(worst_sum, abs(float(lagrange_weights(nodes, query).sum()) - 1.0))

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


# -------------------------------------------------------------- criterion 5


def test_criterion_5_velocity_recovery_within_five_percent(series1):
    _, results = series1
    misses = {}
    for value, (fields, elapsed) in results.items():
        truth = float(value)
        misses[value] = abs(float(fields["delta"]) - truth) / truth
        assert elapsed < 120.0, f"target {value} took {elapsed:.0f}s"
    detail = ", ".join(
        f"{v}: {100 * m:.2f}% in {results[v][1]:.0f}s" for v, m in misses.items()
    )
    print(f"criterion 5: recovery misses {detail} (bar 5%, 120s each)")
    assert max(misses.values()) <= 0.05


# -------------------------------------------------------------- criterion 6


def test_criterion_6_temperature_recovery_within_six_percent(series2):
    _, results = series2
    misses = {}
    for value, (fields, elapsed) in results.items():
        truth = float(value)
        misses[value] = abs(float(fields["delta"]) - truth) / truth
        assert elapsed < 120.0, f"target {value} took {elapsed:.0f}s"
    detail = ", ".join(
        f"{v}: {100 * m:.2f}% in {results[v][1]:.0f}s" for v, m in misses.items()
    )
    print(f"criterion 6: recovery misses {detail} (bar 6%, 120s each)")
    assert max(misses.values()) <= 0.06


# -------------------------------------------------------------- criterion 7


def test_criterion_7_pointwise_errors_at_the_recovered_optima(series1, series2):
    worst = {}
    for label, (root, results) in (("velocity", series1), ("temperature", series2)):
        rom = root / "db.rom1"
        for value, (fields, _) in results.items():
            worst[f"{label} {value}"] = _max_error_series(
                root, rom, fields, f"target_{value}.snp1", value.replace(".", "_")
            )
    detail = ", ".join(f"{k}: {v:.2f}%" for k, v in worst.items())
    print(f"criterion 7: max per-instant errors {detail} (bar 2%)")
    assert max(worst.values()) <= 2.0


# -------------------------------------------------------------- criterion 8


def test_criterion_8_history_is_monotone_informative_and_reproducible(series1):
    root, _ = series1
    value = SERIES1_TARGETS[0]
    history = read_history_csv(root / f"history_{value}.csv")
    assert len(history) == 30
    best = [rec.best_cost for rec in history.records]
    avg = [rec.avg_cost for rec in history.records]
    assert all(b <= a for a, b in zip(best, best[1:])), "best cost increased"
    assert avg[-1] < avg[0], "no average improvement over the run"

    rerun = root / "history_rerun.csv"
    _run([
        "optimize", "--rom", str(root / "db.rom1"),
        "--target", str(root / f"target_{value}.snp1"),
        *GA_ARGS, "--out", str(rerun),
    ])
    identical = rerun.read_bytes() == (root / f"history_{value}.csv").read_bytes()
    print(f"criterion 8: best {best[0]:.3e} -> {best[-1]:.3e}, "
          f"avg {avg[0]:.3e} -> {avg[-1]:.3e}, rerun identical: {identical}")
    assert identical


# -------------------------------------------------------------- criterion 9


def test_criterion_9_solver_respects_temperature_bounds(series1, series2):
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

    grid = Grid(16, 16, 1.04, 1.04)
    times = TimeAxis(8, 4.0)
    (uniform,) = solve_cavity(
        [CavityParams(0.0, 15.0, theta_hot=15.0, theta_cold=15.0, theta_initial=15.0)],
        grid, times,
    )
    constant = bool(np.all(uniform.values == 15.0))
    print(f"criterion 9: worst bound violation {worst_violation:.2e} (bar 1e-9), "
          f"uniform case exactly constant: {constant}")
    assert worst_violation <= 1e-9
    assert constant
