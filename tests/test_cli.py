"""End-to-end command line coverage: pipeline, precedence, exit codes."""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from romga import (
    Chromosome,
    GaHistory,
    PersistenceError,
    cli,
    read_history_csv,
    read_rom,
    read_snapshots,
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


def test_predict_reports_convergence_and_hits_the_target(pipeline, tmp_path, capsys):
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
    line = capsys.readouterr().out.strip()
    fields = dict(token.split("=") for token in line.split())
    assert fields["converged"] == "True"
    assert int(fields["iterations"]) >= 2
    assert float(fields["final_error"]) <= 1e-8

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


def test_usage_problems_exit_with_two(pipeline, tmp_path, capsys):
    rom = str(pipeline / "db.rom1")
    history = tmp_path / "history.csv"
    history.write_text(",".join(HISTORY_COLUMNS) + "\n1,0.4,3,2,5,0.25,1.5\n", encoding="utf-8")
    blocked_report = tmp_path / "blocked_report"
    (blocked_report / "avg_cost.csv").mkdir(parents=True)
    blocked_datagen = tmp_path / "blocked_datagen"
    (blocked_datagen / "manifest.txt").mkdir(parents=True)
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
    ]
    for argv in cases:
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.strip() != ""
    # the blocked manifest fails the run, which takes its snapshot files with it
    assert [p.name for p in blocked_datagen.iterdir()] == ["manifest.txt"]


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


def test_nan_in_a_stored_block_exits_with_three(pipeline, tmp_path, capsys):
    source = pipeline / "db.rom1"
    db = read_rom(source)
    # ROM1 layout: 65-byte header, params, both bases, then per sample the
    # spatial block (r x q) and the temporal block (s x q). Poison the first
    # entry of sample 2's spatial block (delta 0.4): column 0 survives every
    # truncation, so every query with that sample among its neighbors meets it.
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
    predict = ["predict", "--rom", str(rom), "--delta", "0.42", "--out", str(tmp_path / "p.snp1")]
    assert cli.main(predict) == 3
    assert "numerical failure" in capsys.readouterr().err
    optimize = [
        "optimize", "--rom", str(rom),
        "--target", str(pipeline / "target_0.375.snp1"),
        "--pop", "6", "--gens", "2", "--seed", "3",
        "--out", str(tmp_path / "h.csv"),
    ]
    assert cli.main(optimize) == 3
    assert "numerical failure" in capsys.readouterr().err
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
