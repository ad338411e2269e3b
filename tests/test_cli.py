"""End-to-end command line coverage: pipeline, precedence, exit codes."""

from __future__ import annotations

import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from romga import (
    Chromosome,
    CorruptionError,
    GaHistory,
    Grid,
    ParamKind,
    PersistenceError,
    RomDatabase,
    TimeAxis,
    cli,
    compress_ensemble,
    interpolate_reduced,
    read_history_csv,
    read_rom,
    read_snapshots,
    reconstruct_field,
    write_rom,
    write_snapshots,
)
from romga.errors import DivergenceError
from romga.genetic import HISTORY_COLUMNS, GenerationRecord

PLUME_ARGS = [
    "--family", "plume",
    "--deltas", "0.3,0.35,0.4,0.45,0.5",
    "--target", "0.375",
    "--nx", "24", "--ny", "24",
    "--snapshots", "40", "--tfinal", "10",
    "--sigma", "0.3",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """datagen + compress once; the directory is shared read-only."""
    root = tmp_path_factory.mktemp("pipeline")
    assert cli.main(["datagen", *PLUME_ARGS, "--out", str(root)]) == 0
    rom = root / "db.rom1"
    assert (
        cli.main(
            [
                "compress",
                "--snapshots", str(root / "manifest.txt"),
                "--q", "8",
                "--out", str(rom),
            ]
        )
        == 0
    )
    return root


def test_datagen_writes_manifest_and_snapshots(pipeline):
    manifest = (pipeline / "manifest.txt").read_text(encoding="utf-8")
    lines = manifest.splitlines()
    assert lines[0] == "synthetic,0.3,train_00_0.3.snp1"
    assert lines[3] == "synthetic,0.45,train_03_0.45.snp1"
    assert len(lines) == 5
    matrix = read_snapshots(pipeline / "train_02_0.4.snp1")
    assert matrix.values.shape == (24 * 24, 40)
    assert matrix.param_value == 0.4
    target = read_snapshots(pipeline / "target_0.375.snp1")
    assert target.param_value == 0.375


def test_compress_output_reloads(pipeline):
    db = read_rom(pipeline / "db.rom1")
    assert db.n_params == 5 and db.q == 8
    assert (db.r, db.s) == (40, 40)  # lossless: q * n_params on both axes
    assert db.params.tolist() == [0.3, 0.35, 0.4, 0.45, 0.5]


def test_predict_hits_the_target(pipeline, tmp_path):
    out = tmp_path / "pred.snp1"
    code = cli.main(
        [
            "predict",
            "--rom", str(pipeline / "db.rom1"),
            "--delta", "0.375",
            "--ne-x", "3", "--ne-t", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    predicted = read_snapshots(out)
    truth = read_snapshots(pipeline / "target_0.375.snp1")
    rel = np.linalg.norm(predicted.values - truth.values) / np.linalg.norm(truth.values)
    assert rel <= 0.05


def test_predict_truncation_defaults_to_full_order(pipeline, tmp_path):
    full = tmp_path / "full.snp1"
    explicit = tmp_path / "explicit.snp1"
    base = ["predict", "--rom", str(pipeline / "db.rom1"), "--delta", "0.42"]
    assert cli.main([*base, "--out", str(full)]) == 0
    assert cli.main([*base, "--m", "8", "--out", str(explicit)]) == 0
    assert full.read_bytes() == explicit.read_bytes()


def _series2_shaped_rom() -> RomDatabase:
    """A synthetic ROM shaped like the series-2 preset's.

    48x48 cells, 150 instants, q = 30, five samples, r = s = 150: it holds
    3.3 MB of floats, and a field lifted from it 2.76 MB.
    """
    rng = np.random.default_rng(2)
    q, n = 30, 5
    r = s = q * n
    return RomDatabase(
        np.linalg.qr(rng.standard_normal((48 * 48, r)))[0],
        np.linalg.qr(rng.standard_normal((150, s)))[0],
        tuple(rng.standard_normal((r, q)) for _ in range(n)),
        tuple(rng.standard_normal((s, q)) for _ in range(n)),
        np.array([5.0, 10.0, 15.0, 20.0, 25.0]),
        Grid(48, 48, 1.04, 1.04),
        TimeAxis(150, 60.0),
        ParamKind.TEMPERATURE,
    )


def test_write_rom_copies_one_piece_at_a_time(tmp_path):
    # the database holds every piece in file order, so the write copies none
    # of them (measured 0.007 MB for the 3.3 MB file); a write that copied the
    # spatial basis to another order alone would hold 2.76 MB
    db = _series2_shaped_rom()
    path = tmp_path / "db.rom1"
    tracemalloc.start()
    try:
        write_rom(db, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * path.stat().st_size, peak
    back = read_rom(path)
    assert np.array_equal(back.spatial_basis, db.spatial_basis)
    assert all(np.array_equal(a, b) for a, b in zip(back.temporal_blocks, db.temporal_blocks))


def _owner(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


def test_read_rom_keeps_views_of_the_one_buffer_it_reads(tmp_path):
    # the payload is read once and the database keeps views of it: the peak is
    # the payload plus the finiteness check's 64 KiB chunk mask; a full-size
    # mask adds an eighth of the payload, a load that copies the pieces all of it
    db = _series2_shaped_rom()
    path = tmp_path / "db.rom1"
    write_rom(db, path)
    tracemalloc.start()
    try:
        back = read_rom(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    owner = _owner(back.params)
    assert owner.nbytes == size - struct.calcsize("<4sIIIIIIIQdddB")  # the payload
    assert peak <= owner.nbytes + 128 * 1024, peak
    for name in ("spatial_basis", "temporal_basis", "spatial_blocks", "temporal_blocks"):
        array = getattr(back, name)
        assert _owner(array) is owner, name
        assert not array.flags.writeable and array.flags.c_contiguous, name
        assert np.array_equal(array, getattr(db, name)), name


def test_rom_database_copies_the_arrays_a_caller_passes():
    rng = np.random.default_rng(4)
    names = ("spatial_basis", "temporal_basis", "spatial_blocks", "temporal_blocks", "params")
    arrays = [rng.standard_normal(shape) for shape in ((4, 2), (3, 2), (2, 2, 1), (2, 2, 1))]
    arrays.append(np.array([1.0, 2.0]))
    db = RomDatabase(*arrays, Grid(2, 2, 1.0, 1.0), TimeAxis(3, 1.0), ParamKind.SYNTHETIC)
    kept = [getattr(db, name).copy() for name in names]
    for array in arrays:
        array += 1.0
    for name, before in zip(names, kept):
        assert np.array_equal(getattr(db, name), before), name


def test_predict_copies_neither_the_rom_nor_the_field_twice(tmp_path, capsys):
    db = _series2_shaped_rom()
    write_rom(db, tmp_path / "db.rom1")
    predict = [
        "predict", "--rom", str(tmp_path / "db.rom1"), "--delta", "17.3",
        "--ne-x", "3", "--ne-t", "4", "--m", "20", "--out", str(tmp_path / "p.snp1"),
    ]
    assert cli.main(predict) == 0  # the first call builds the parser
    tracemalloc.start()
    try:
        assert cli.main(predict) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    # the database, whose arrays are views of the payload read from the file
    # (3.3 MB), and the lifted field, which the prediction keeps without a
    # copy (2.76 MB): 6.52 MB measured, the peak. The bound is 0.5 MB above
    # it, well under the 2.76 MB a copy of the field adds: a call that copies
    # it peaks at 9.2 MB, and one that also slices the payload out of the
    # file's bytes and serializes the field through tobytes and a header
    # concatenation at 14.5 MB.
    assert peak < 7.0e6, peak
    result = interpolate_reduced(db, 17.3, ne_x=3, ne_t=4, m=20)
    lifted = reconstruct_field(db, result.spatial_factor, result.temporal_factor)
    assert np.array_equal(read_snapshots(tmp_path / "p.snp1").values, lifted)


def test_datagen_holds_at_most_one_field_beyond_its_runs(tmp_path, capsys):
    # the series-2 preset solves its k = 5 training runs in one batch: 48x48
    # cells and 150 instants, 2.76 MB per run. The solver records every run
    # and each SnapshotMatrix keeps its record without a copy, so the k
    # records and the solver's small work arrays are alive at the peak
    # (measured 5.5 fields; 6.1 when each matrix took a copy); the target
    # batch follows once the training runs are written and dropped.
    out = tmp_path / "series2"
    out.mkdir()
    datagen = ["datagen", "--preset", "series2-temperature", "--target", "17.5", "--out", str(out)]
    assert cli.main(["datagen", "--help"]) == 0  # the first call builds the parser
    tracemalloc.start()
    try:
        assert cli.main(datagen) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    k, n_cells, n_steps = 5, 48 * 48, 150
    assert len(list(out.glob("*.snp1"))) == k + 1
    assert peak <= (k + 1) * n_cells * n_steps * 8, peak


def _compress_peak(manifest: Path, q: int, out: Path) -> int:
    tracemalloc.start()
    try:
        assert cli.main(["compress", "--snapshots", str(manifest), "--q", str(q), "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compress_holds_one_sample_at_a_time(tmp_path, capsys):
    # five series-2 runs of 2.76 MB each, against the first two of them: a
    # compress that reads the samples one at a time peaks within one field of
    # the two-sample run, one that holds them all 8.9 MB above it. q = 10 keeps
    # the reduced ensemble small: its pairs and level-2 stacks grow by
    # q * n_cells floats per sample, which at q = 30 alone adds 2.5 MB
    # between two and five samples.
    out = tmp_path / "series2"
    out.mkdir()
    assert cli.main(["datagen", "--preset", "series2-temperature", "--out", str(out)]) == 0
    lines = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    (out / "two.txt").write_text("\n".join(lines[:2]) + "\n", encoding="utf-8")
    assert cli.main(["compress", "--snapshots", str(out / "two.txt"), "--q", "10",
                     "--out", str(out / "warm.rom1")]) == 0  # the first call builds the parser
    two = _compress_peak(out / "two.txt", 10, out / "two.rom1")
    five = _compress_peak(out / "manifest.txt", 10, out / "five.rom1")
    capsys.readouterr()
    assert five - two <= 48 * 48 * 150 * 8, (two, five)


def test_compress_of_a_shuffled_manifest_equals_the_in_memory_rom(pipeline, tmp_path, capsys):
    lines = (pipeline / "manifest.txt").read_text(encoding="utf-8").splitlines()
    order = [3, 0, 4, 2, 1]
    shuffled = tmp_path / "shuffled.txt"
    shuffled.write_text(
        "".join(lines[i].replace(",train", f",{pipeline}/train") + "\n" for i in order),
        encoding="utf-8",
    )
    rom = tmp_path / "shuffled.rom1"
    assert cli.main(["compress", "--snapshots", str(shuffled), "--q", "8", "--out", str(rom)]) == 0
    capsys.readouterr()
    matrices = [read_snapshots(pipeline / line.split(",")[2]) for line in lines]
    write_rom(compress_ensemble(matrices, q=8), tmp_path / "in_memory.rom1")
    assert rom.read_bytes() == (tmp_path / "in_memory.rom1").read_bytes()
    assert rom.read_bytes() == (pipeline / "db.rom1").read_bytes()


def test_compress_stops_at_a_corrupt_sample_and_writes_nothing(pipeline, tmp_path, capsys):
    for path in pipeline.glob("train_*.snp1"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    (tmp_path / "manifest.txt").write_bytes((pipeline / "manifest.txt").read_bytes())
    third = sorted(tmp_path.glob("train_*.snp1"))[2]
    third.write_bytes(third.read_bytes()[:-8])
    before = set(tmp_path.iterdir())
    rom = tmp_path / "db.rom1"
    code = cli.main(["compress", "--snapshots", str(tmp_path / "manifest.txt"), "--q", "8",
                     "--out", str(rom)])
    assert code == 2
    assert third.name in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == before  # no ROM, no temporary file


def test_optimize_recovers_the_target_parameter(pipeline, tmp_path, capsys):
    history_path = tmp_path / "history.csv"
    code = cli.main(
        [
            "optimize",
            "--rom", str(pipeline / "db.rom1"),
            "--target", str(pipeline / "target_0.375.snp1"),
            "--pop", "10", "--gens", "6", "--seed", "5",
            "--out", str(history_path),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip()
    fields = dict(token.split("=") for token in line.split())
    assert abs(float(fields["delta"]) - 0.375) <= 0.02
    assert 2 <= int(fields["ne_t"]) <= 5
    assert 2 <= int(fields["ne_x"]) <= 5
    assert 4 <= int(fields["m"]) <= 8
    history = read_history_csv(history_path)
    assert len(history) == 6
    assert float(fields["cost"]) == min(r.best_cost for r in history.records)


def test_optimize_reruns_are_byte_identical(pipeline, tmp_path):
    args = [
        "optimize",
        "--rom", str(pipeline / "db.rom1"),
        "--target", str(pipeline / "target_0.375.snp1"),
        "--pop", "8", "--gens", "4", "--seed", "9",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main([*args, "--out", str(a)]) == 0
    assert cli.main([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_writes_both_summaries(pipeline, tmp_path, capsys):
    history_path = tmp_path / "history.csv"
    pred_path = tmp_path / "pred.snp1"
    assert (
        cli.main(
            [
                "optimize",
                "--rom", str(pipeline / "db.rom1"),
                "--target", str(pipeline / "target_0.375.snp1"),
                "--pop", "8", "--gens", "3", "--seed", "2",
                "--out", str(history_path),
            ]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "predict",
                "--rom", str(pipeline / "db.rom1"),
                "--delta", "0.375", "--ne-x", "3", "--ne-t", "3",
                "--out", str(pred_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    report_dir = tmp_path / "report"
    report_dir.mkdir()
    code = cli.main(
        [
            "report",
            "--history", str(history_path),
            "--predicted", str(pred_path),
            "--target", str(pipeline / "target_0.375.snp1"),
            "--out", str(report_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "avg_cost.csv" in out and "error_series.csv" in out

    avg = (report_dir / "avg_cost.csv").read_text(encoding="utf-8").splitlines()
    assert avg[0] == "index,value"
    assert len(avg) == 4  # header + one row per generation
    assert int(avg[1].split(",")[0]) == 1

    series = (report_dir / "error_series.csv").read_text(encoding="utf-8").splitlines()
    assert series[0] == "index,value"
    assert len(series) == 41  # header + one row per instant
    errors = [float(row.split(",")[1]) for row in series[1:]]
    assert max(errors) < 5.0


# ---------------------------------------------------------------- config


def test_flags_override_config_file_values(tmp_path):
    plain = tmp_path / "plain"
    via_config = tmp_path / "via_config"
    plain.mkdir()
    via_config.mkdir()
    config = tmp_path / "run.cfg"
    config.write_text(
        "family = plume\n"
        "deltas = 0.3,0.4  # overridden by the flag below\n"
        "sigma = 0.9\n"
        "nx = 16\nny = 16\nsnapshots = 10\ntfinal = 4\n",
        encoding="utf-8",
    )
    assert (
        cli.main(
            [
                "datagen",
                "--config", str(config),
                "--sigma", "0.3",
                "--deltas", "0.3,0.35,0.4",
                "--out", str(via_config),
            ]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "datagen",
                "--family", "plume",
                "--deltas", "0.3,0.35,0.4",
                "--sigma", "0.3",
                "--nx", "16", "--ny", "16",
                "--snapshots", "10", "--tfinal", "4",
                "--out", str(plain),
            ]
        )
        == 0
    )
    name = "train_01_0.35.snp1"
    assert (via_config / name).read_bytes() == (plain / name).read_bytes()


def test_preset_fills_in_the_training_grid(tmp_path, capsys):
    out = tmp_path / "series1"
    out.mkdir()
    code = cli.main(
        [
            "datagen",
            "--preset", "series1-velocity",
            "--nx", "12", "--ny", "12",
            "--snapshots", "10", "--tfinal", "4",
            "--out", str(out),
        ]
    )
    assert code == 0
    manifest = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert manifest == [
        "velocity,0.51,train_00_0.51.snp1",
        "velocity,0.627,train_01_0.627.snp1",
        "velocity,0.798,train_02_0.798.snp1",
    ]


def test_config_file_can_name_the_preset_and_flags_still_win(tmp_path):
    out = tmp_path / "series2"
    out.mkdir()
    config = tmp_path / "series2.cfg"
    config.write_text(
        "preset = series2-temperature\n"
        "temperatures = 10,20\n"  # narrows the preset grid
        "nx = 12\nny = 12\nsnapshots = 8\ntfinal = 4\n",
        encoding="utf-8",
    )
    assert cli.main(["datagen", "--config", str(config), "--out", str(out)]) == 0
    manifest = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert manifest == [
        "temperature,10.0,train_00_10.snp1",
        "temperature,20.0,train_01_20.snp1",
    ]


# ---------------------------------------------------------------- failures


def test_report_on_a_history_without_records_exits_two_and_writes_nothing(tmp_path, capsys):
    history = tmp_path / "history.csv"
    history.write_text(",".join(HISTORY_COLUMNS) + "\n", encoding="utf-8")
    report_dir = tmp_path / "report"
    report_dir.mkdir()
    assert cli.main(["report", "--history", str(history), "--out", str(report_dir)]) == 2
    assert f"{history}: history holds no records" in capsys.readouterr().err
    assert list(report_dir.iterdir()) == []


def test_usage_problems_exit_with_two(pipeline, tmp_path, capsys):
    rom = str(pipeline / "db.rom1")
    history = tmp_path / "history.csv"
    history.write_text(",".join(HISTORY_COLUMNS) + "\n1,0.4,3,2,5,0.25,1.5\n", encoding="utf-8")
    blocked_report = tmp_path / "blocked_report"
    (blocked_report / "avg_cost.csv").mkdir(parents=True)
    blocked_datagen = tmp_path / "blocked_datagen"
    (blocked_datagen / "manifest.txt").mkdir(parents=True)
    non_finite = tmp_path / "non_finite.csv"
    non_finite.write_text(
        ",".join(HISTORY_COLUMNS) + "\n1,nan,3,2,5,0.25,1.5\n2,0.4,3,2,5,0.25,inf\n",
        encoding="utf-8",
    )
    non_finite_report = tmp_path / "non_finite_report"
    non_finite_report.mkdir()
    cases = [
        # missing output directory
        ["datagen", *PLUME_ARGS, "--out", str(tmp_path / "missing")],
        # query outside the training hull
        ["predict", "--rom", rom, "--delta", "0.6", "--out", str(tmp_path / "p.snp1")],
        # unknown preset
        ["datagen", "--preset", "nope", "--out", str(tmp_path)],
        # plume without its parameter grid
        ["datagen", "--family", "plume", "--out", str(tmp_path)],
        # cavity with both sweeps at once
        [
            "datagen", "--family", "cavity",
            "--velocities", "0.5", "--temperatures", "10",
            "--out", str(tmp_path),
        ],
        # report without inputs
        ["report", "--out", str(tmp_path)],
        # report with a lone --predicted
        ["report", "--predicted", str(tmp_path / "p.snp1"), "--out", str(tmp_path)],
        # malformed mask rectangle
        [
            "optimize", "--rom", rom,
            "--target", str(pipeline / "target_0.375.snp1"),
            "--mask", "0.1,0.9", "--out", str(tmp_path / "h.csv"),
        ],
        # missing rom file
        ["predict", "--rom", str(tmp_path / "ghost.rom1"), "--delta", "0.4",
         "--out", str(tmp_path / "p.snp1")],
        # a directory sits where report writes avg_cost.csv
        ["report", "--history", str(history), "--out", str(blocked_report)],
        # a directory sits where datagen writes manifest.txt
        ["datagen", *PLUME_ARGS, "--out", str(blocked_datagen)],
        # a history holding a NaN and an infinity
        ["report", "--history", str(non_finite), "--out", str(non_finite_report)],
    ]
    for argv in cases:
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.strip() != ""
    assert list(non_finite_report.iterdir()) == []
    # the blocked manifest fails the run, which takes its snapshot files with it
    assert [p.name for p in blocked_datagen.iterdir()] == ["manifest.txt"]

    # a non-finite physical input is rejected by name before any solve
    sizes = ["--nx", "8", "--ny", "8", "--snapshots", "4", "--out", str(tmp_path)]
    cavity = ["datagen", "--family", "cavity", *sizes]
    plume = ["datagen", "--family", "plume", *sizes]
    nonfinite = [
        (cavity, ["--velocities", "inf"], "inlet_velocity"),
        (cavity, ["--velocities", "0.5", "--kappa", "inf"], "kappa"),
        (cavity, ["--temperatures", "nan"], "inlet_temperature"),
        (cavity, ["--velocities", "0.5", "--inlet-temp", "nan"], "inlet_temperature"),
        (cavity, ["--velocities", "0.5", "--theta-hot", "nan"], "theta_hot"),
        (cavity, ["--velocities", "0.5", "--tfinal", "inf"], "t_final"),
        (cavity, ["--velocities", "0.5", "--lx", "inf"], "lx"),
        (plume, ["--deltas", "0.3,0.4", "--sigma", "inf"], "sigma"),
        (plume, ["--deltas", "0.3,nan"], "delta"),
    ]
    for base, flags, field in nonfinite:
        assert cli.main([*base, *flags]) == 2, flags
        assert f"{field} must be finite" in capsys.readouterr().err, flags
    assert list(tmp_path.glob("*.snp1")) == []

    # a NaN search bound is rejected by name, not as a query outside the hull
    target = str(pipeline / "target_0.375.snp1")
    optimize = ["optimize", "--rom", rom, "--target", target, "--out", str(tmp_path / "h.csv")]
    assert cli.main([*optimize, "--delta-min", "nan"]) == 2
    assert "delta_bounds must be finite" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


def test_datagen_rejects_targets_that_would_share_a_file(tmp_path, monkeypatch, capsys):
    # target files are named by the value's %g form, so 0.4500001 and 0.45
    # (or a repeated value) would overwrite each other
    def no_solve(*args, **kwargs):
        raise AssertionError("nothing may be solved before the targets are checked")

    monkeypatch.setattr(cli, "analytic_plume", no_solve)
    sizes = ["--nx", "8", "--ny", "8", "--snapshots", "4", "--out", str(tmp_path)]
    clashing = {"0.4500001,0.45": "[0.4500001, 0.45]", "0.35,0.4,0.35": "[0.35, 0.35]"}
    for targets, named in clashing.items():
        argv = ["datagen", "--family", "plume", "--deltas", "0.3,0.5", "--target", targets, *sizes]
        assert cli.main(argv) == 2, targets
        assert f"target values {named} would overwrite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("family = plume\nwavelength = 3\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    assert cli.main(["datagen", "--config", str(config), "--out", str(out)]) == 2
    assert "wavelength" in capsys.readouterr().err


def test_tampered_manifest_is_rejected(pipeline, tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    lines = (pipeline / "manifest.txt").read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace("0.35", "0.36", 1)  # value no longer matches the file
    manifest.write_text("\n".join(f"{ln}" for ln in lines) + "\n", encoding="utf-8")
    for name in pipeline.glob("train_*.snp1"):
        (tmp_path / name.name).write_bytes(name.read_bytes())
    code = cli.main(
        ["compress", "--snapshots", str(manifest), "--q", "4",
         "--out", str(tmp_path / "db.rom1")]
    )
    assert code == 2
    assert "manifest" in capsys.readouterr().err


def test_numerical_failures_exit_with_three(tmp_path, monkeypatch, capsys):
    def blow_up(*args, **kwargs):
        raise DivergenceError("field left the finite range")

    monkeypatch.setattr(cli, "solve_cavity", blow_up)
    out = tmp_path / "out"
    out.mkdir()
    code = cli.main(
        ["datagen", "--family", "cavity", "--velocities", "0.5",
         "--nx", "8", "--ny", "8", "--snapshots", "4", "--tfinal", "1",
         "--out", str(out)]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_nan_in_a_stored_block_is_rejected_at_load(pipeline, tmp_path, capsys):
    source = pipeline / "db.rom1"
    db = read_rom(source)
    # ROM1 layout: 65-byte header, params, both bases, then per sample the
    # spatial block (r x q) and the temporal block (s x q). Poison the first
    # entry of sample 2's spatial block (delta 0.4).
    offset = 65 + 8 * (
        db.n_params
        + db.grid.n_cells * db.r
        + db.times.n_steps * db.s
        + 2 * db.q * (db.r + db.s)
    )
    blob = bytearray(source.read_bytes())
    blob[offset : offset + 8] = struct.pack("<d", float("nan"))
    rom = tmp_path / "nan.rom1"
    rom.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError, match="non-finite"):
        read_rom(rom)
    blob[offset : offset + 8] = struct.pack("<d", float("-inf"))
    (tmp_path / "inf.rom1").write_bytes(bytes(blob))
    with pytest.raises(CorruptionError, match="non-finite"):
        read_rom(tmp_path / "inf.rom1")
    predict = ["predict", "--rom", str(rom), "--delta", "0.42", "--out", str(tmp_path / "p.snp1")]
    assert cli.main(predict) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "p.snp1").exists()
    optimize = [
        "optimize", "--rom", str(rom),
        "--target", str(pipeline / "target_0.375.snp1"),
        "--pop", "6", "--gens", "2", "--seed", "3",
        "--out", str(tmp_path / "h.csv"),
    ]
    assert cli.main(optimize) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


def test_failed_writes_keep_the_old_file_and_leave_no_temp(
    pipeline, tmp_path, monkeypatch, capsys
):
    db = read_rom(pipeline / "db.rom1")
    matrix = read_snapshots(pipeline / "target_0.375.snp1")
    history = GaHistory([GenerationRecord(1, Chromosome(0.4, 3, 2, 5), 0.25, 1.5)])
    writers = {
        "snapshots.snp1": lambda path: write_snapshots(matrix, path),
        "db.rom1": lambda path: write_rom(db, path),
        "history.csv": history.write_csv,
        "pairs.csv": lambda path: cli._write_csv_pairs(path, [(0, 1.5)]),
    }
    datagen_dir = tmp_path / "datagen"
    datagen_dir.mkdir()
    datagen = ["datagen", *PLUME_ARGS, "--out", str(datagen_dir)]
    old = {tmp_path / name: f"old {name}\n".encode() for name in writers}
    old[datagen_dir / "manifest.txt"] = b"old manifest\n"
    for path, data in old.items():
        path.write_bytes(data)

    real_replace = os.replace

    def replace_all_but_training_runs(src, dst):
        if Path(dst).name.startswith("train_"):
            return real_replace(src, dst)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("romga.dataset.os.replace", replace_all_but_training_runs)
    for name, write in writers.items():
        with pytest.raises(PersistenceError, match="No space left"):
            write(tmp_path / name)
    assert cli.main(datagen) == 2
    assert "cannot write manifest" in capsys.readouterr().err
    for path, data in old.items():
        assert path.read_bytes() == data, path.name
    # no temp file, and datagen removed the training runs it had written
    assert {p for p in tmp_path.rglob("*") if p.is_file()} == set(old)

    monkeypatch.undo()
    for name, write in writers.items():
        write(tmp_path / name)
    assert cli.main(datagen) == 0
    for path, data in old.items():
        assert path.read_bytes() != data, path.name
    assert not list(tmp_path.rglob("*.tmp"))


def test_argparse_surface(capsys):
    assert cli.main([]) == 2  # a command is required
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    assert "datagen" in capsys.readouterr().out
