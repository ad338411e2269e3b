"""End-to-end command line coverage: pipeline, precedence, exit codes."""

from __future__ import annotations

import errno
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from romga import (
    Chromosome,
    CorruptionError,
    FormatError,
    GaHistory,
    GaConfig,
    Grid,
    ParamKind,
    PersistenceError,
    PlumeParams,
    RomDatabase,
    SnapshotMatrix,
    TimeAxis,
    analytic_plume,
    build_mask,
    cli,
    genetic,
    compress_ensemble,
    interpolate_reduced,
    read_history_csv,
    read_rom,
    read_snapshots,
    reconstruct_field,
    write_rom,
    write_snapshots,
)
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
    # the default ranks keep the stacked factors to rounding, at most q * n_params
    training = [read_snapshots(path) for path in sorted(pipeline.glob("train_*.snp1"))]
    library = compress_ensemble(training, q=8)
    assert (db.r, db.s) == (library.r, library.s)
    assert db.r <= 40 and db.s <= 40
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
    """A synthetic ROM on the series-2 preset's grid at the largest ranks.

    48x48 cells, 150 instants, q = 30, five samples, r = s = 150: the
    largest ranks q * n_params allows, not the preset's own ROM, whose
    derived ranks are smaller. It holds 3.3 MB of floats, and a field
    lifted from it 2.76 MB.
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
    # the series-2 preset solves its k = 5 training runs in one call: 48x48
    # cells and 150 instants, 2.76 MB per run. The solver advances the 5 and
    # 25 runs, blends the other three from them, each into its own record,
    # and each SnapshotMatrix keeps its record without a copy, so the k
    # records and the work arrays of a two-member batch are alive at the peak
    # (measured 5.0 fields); the target batch follows once the training runs
    # are written and dropped.
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


def test_compress_prints_the_ranks_it_derived(pipeline, tmp_path, capsys):
    rom = tmp_path / "derived.rom1"
    manifest = str(pipeline / "manifest.txt")
    assert cli.main(["compress", "--snapshots", manifest, "--q", "8", "--out", str(rom)]) == 0
    db = read_rom(rom)
    assert capsys.readouterr().out == f"compressed 5 samples at q=8, r={db.r}, s={db.s} -> {rom}\n"
    assert db.spatial_blocks.shape == (5, db.r, 8) and db.temporal_blocks.shape == (5, db.s, 8)


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
    # the first generation to reach the least cost holds the printed genes
    costs = [r.best_cost for r in history.records]
    best = history.records[costs.index(min(costs))]
    assert float(fields["cost"]) == best.best_cost
    genes = (int(fields["ne_t"]), int(fields["ne_x"]), int(fields["m"]))
    assert Chromosome(float(fields["delta"]), *genes) == best.best


def test_optimize_on_a_one_sample_rom_exits_two_and_writes_nothing(pipeline, tmp_path, capsys):
    first = (pipeline / "manifest.txt").read_text(encoding="utf-8").splitlines()[0]
    manifest = tmp_path / "one.txt"
    manifest.write_text(first.replace(",train", f",{pipeline}/train") + "\n", encoding="utf-8")
    rom, history = tmp_path / "one.rom1", tmp_path / "history.csv"
    assert cli.main(["compress", "--snapshots", str(manifest), "--q", "8", "--out", str(rom)]) == 0
    assert read_rom(rom).n_params == 1
    target = str(pipeline / "target_0.375.snp1")
    code = cli.main(["optimize", "--rom", str(rom), "--target", target, "--out", str(history)])
    assert code == 2
    assert "error: a search needs at least two training samples" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.rom1", "one.txt"]  # no history


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


def test_optimize_history_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, capsys):
    # a threaded BLAS product splits a sum over the mask rows by thread
    # count, so a search that took one would write other cost digits; the
    # prediction's weighted sums of five aligned blocks, 5 x 2610 each at
    # m = 30, are large enough for OpenBLAS to split them over two threads
    assert cli.main(["datagen", "--preset", "series2-temperature", "--target", "7.5",
                     "--out", str(tmp_path)]) == 0
    rom = tmp_path / "db.rom1"
    assert cli.main(["compress", "--snapshots", str(tmp_path / "manifest.txt"), "--q", "30",
                     "--out", str(rom)]) == 0
    capsys.readouterr()
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    optimize = ["optimize", "--rom", str(rom), "--target", str(tmp_path / "target_7.5.snp1"),
                "--pop", "6", "--gens", "2", "--seed", "3"]
    predict = ["predict", "--rom", str(rom), "--delta", "7.5", "--ne-x", "5", "--ne-t", "5",
               "--m", "30"]
    for threads in ("1", "2"):
        runs = ([*optimize, "--out", f"{threads}.csv"], [*predict, "--out", f"{threads}.snp1"])
        for argv in runs:
            done = subprocess.run(
                [sys.executable, "-m", "romga.cli", *argv],
                env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True,
                timeout=120, cwd=tmp_path,
            )
            assert done.returncode == 0, done.stderr
    for name in ("csv", "snp1"):
        assert (tmp_path / f"1.{name}").read_bytes() == (tmp_path / f"2.{name}").read_bytes()


def test_the_mask_window_steers_the_search(pipeline, tmp_path, capsys):
    # the paper's "restricted area": the search sees the target through the window alone
    rom, target = pipeline / "db.rom1", pipeline / "target_0.375.snp1"
    args = ["optimize", "--rom", str(rom), "--target", str(target),
            "--pop", "8", "--gens", "4", "--seed", "3"]
    windows = {"unset": [], "default": ["--mask", "0.1,0.9,0.15,0.7"],
               "upper": ["--mask", "0.5,0.9,0.5,0.9"]}
    for name, extra in windows.items():
        assert cli.main([*args, *extra, "--out", str(tmp_path / f"{name}.csv")]) == 0, name
    capsys.readouterr()
    history = {name: (tmp_path / f"{name}.csv").read_bytes() for name in windows}
    assert history["default"] == history["unset"]
    assert history["upper"] != history["default"]
    # optimize is the library search with the command line's three settings
    db = read_rom(rom)
    config = GaConfig(population_size=8, generations=4, rng_seed=3)
    rows = build_mask(db.grid, (0.5, 0.9, 0.5, 0.9))
    genetic.run(config, db, read_snapshots(target), rows).write_csv(tmp_path / "direct.csv")
    assert (tmp_path / "direct.csv").read_bytes() == history["upper"]


def test_report_writes_the_error_series(pipeline, tmp_path, capsys):
    pred_path = tmp_path / "pred.snp1"
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
            "--predicted", str(pred_path),
            "--target", str(pipeline / "target_0.375.snp1"),
            "--out", str(report_dir),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == f"wrote {report_dir / 'error_series.csv'}\n"
    assert [p.name for p in report_dir.iterdir()] == ["error_series.csv"]

    series = (report_dir / "error_series.csv").read_text(encoding="utf-8").splitlines()
    assert series[0] == "index,value"
    assert len(series) == 41  # header + one row per instant
    errors = [float(row.split(",")[1]) for row in series[1:]]
    assert max(errors) < 5.0


# ---------------------------------------------------------------- presets


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


def test_a_flag_beats_the_preset_wherever_it_stands(tmp_path, capsys):
    sizes = ["--nx", "12", "--ny", "12", "--snapshots", "8", "--tfinal", "4"]
    for order in ("after", "before"):
        out = tmp_path / order
        out.mkdir()
        flags = ["--preset", "series2-temperature", "--temperatures", "10,20"]
        if order == "before":
            flags = flags[2:] + flags[:2]
        assert cli.main(["datagen", *flags, *sizes, "--out", str(out)]) == 0, order
        manifest = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
        assert manifest == [
            "temperature,10.0,train_00_10.snp1",
            "temperature,20.0,train_01_20.snp1",
        ], order
    capsys.readouterr()


def test_each_preset_equals_the_flags_it_stands_for(tmp_path, capsys):
    sizes = ["--nx", "8", "--ny", "8", "--snapshots", "4", "--tfinal", "1"]
    # (preset, the flags it stands for, its number of training runs)
    spelled = (
        ("series1-velocity", ["--family", "cavity", "--velocities", "0.51,0.627,0.798"], 3),
        ("series2-temperature", ["--family", "cavity", "--temperatures", "5,10,15,20,25"], 5),
    )
    for preset, flags, n_runs in spelled:
        runs = {}
        for how, args in (("preset", ["--preset", preset]), ("flags", flags)):
            out = tmp_path / preset / how
            out.mkdir(parents=True)
            assert cli.main(["datagen", *args, *sizes, "--out", str(out)]) == 0, (preset, how)
            runs[how] = {path.name: path.read_bytes() for path in out.iterdir()}
        # the manifest and every SNP1 file, byte for byte
        assert len(runs["preset"]) == n_runs + 1, preset
        assert runs["preset"] == runs["flags"], preset
    capsys.readouterr()


def test_a_negative_list_joined_to_its_flag_reaches_the_solver(tmp_path, capsys):
    out = tmp_path / "cold"
    out.mkdir()
    datagen = ["datagen", "--family", "cavity", "--nx", "8", "--ny", "8",
               "--snapshots", "4", "--tfinal", "1", "--out", str(out)]
    # written apart from its flag, argparse takes the list for a flag
    assert cli.main([*datagen, "--temperatures", "-5,0,5"]) == 2
    assert "--temperatures: expected one argument" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert cli.main([*datagen, "--temperatures=-5,0,5"]) == 0
    manifest = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[1] for line in manifest] == ["-5.0", "0.0", "5.0"]


def test_a_preset_given_to_another_command_exits_two(pipeline, tmp_path, capsys):
    rom = tmp_path / "db.rom1"
    compress = ["compress", "--preset", "series1-velocity",
                "--snapshots", str(pipeline / "manifest.txt"), "--q", "4", "--out", str(rom)]
    assert cli.main(compress) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --preset series1-velocity" in err
    # the message names only what was typed, none of the preset's own settings
    for flag in ("--family=", "--velocities="):
        assert flag not in err, flag
    assert not rom.exists()


def test_the_module_runs_as_a_program(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    datagen = ["datagen", "--family", "plume", "--deltas", "0.3,0.4", "--nx", "8", "--ny", "8",
               "--snapshots", "4", "--tfinal", "1", "--out", str(out)]
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run(
        [sys.executable, "-m", "romga.cli", *datagen],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "wrote 2 training runs and 0 target runs" in done.stdout
    assert len((out / "manifest.txt").read_text(encoding="utf-8").splitlines()) == 2


# ---------------------------------------------------------------- failures


def test_usage_problems_exit_with_two(pipeline, tmp_path, capsys):
    rom = str(pipeline / "db.rom1")
    target = str(pipeline / "target_0.375.snp1")
    blocked_report = tmp_path / "blocked_report"
    (blocked_report / "error_series.csv").mkdir(parents=True)
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
        # report without its two snapshot files
        ["report", "--out", str(tmp_path)],
        # report with a lone --predicted
        ["report", "--predicted", str(tmp_path / "p.snp1"), "--out", str(tmp_path)],
        # malformed mask rectangle
        ["optimize", "--rom", rom, "--target", target, "--mask", "0.1,0.9",
         "--out", str(tmp_path / "h.csv")],
        # missing rom file
        ["predict", "--rom", str(tmp_path / "ghost.rom1"), "--delta", "0.4",
         "--out", str(tmp_path / "p.snp1")],
        # a directory sits where report writes error_series.csv
        ["report", "--predicted", target, "--target", target, "--out", str(blocked_report)],
        # a directory sits where datagen writes manifest.txt
        ["datagen", *PLUME_ARGS, "--out", str(blocked_datagen)],
    ]
    for argv in cases:
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.strip() != ""
    assert [p.name for p in blocked_report.iterdir()] == ["error_series.csv"]
    # the blocked manifest fails the run, which takes its snapshot files with it
    assert [p.name for p in blocked_datagen.iterdir()] == ["manifest.txt"]

    # a non-finite physical input is rejected by name before any solve
    sizes = ["--nx", "8", "--ny", "8", "--snapshots", "4", "--out", str(tmp_path)]
    cavity = ["datagen", "--family", "cavity", *sizes]
    plume = ["datagen", "--family", "plume", *sizes]
    nonfinite = [
        (cavity, ["--velocities", "inf"], "inlet_velocity"),
        (cavity, ["--temperatures", "nan"], "inlet_temperature"),
        (cavity, ["--velocities", "0.5", "--tfinal", "inf"], "t_final"),
        (plume, ["--deltas", "0.3,0.4", "--sigma", "inf"], "sigma"),
        (plume, ["--deltas", "0.3,nan"], "delta"),
    ]
    for base, flags, field in nonfinite:
        assert cli.main([*base, *flags]) == 2, flags
        assert f"{field} must be finite" in capsys.readouterr().err, flags
    # and so is a negative inflow velocity
    assert cli.main([*cavity, "--velocities=-0.5"]) == 2
    assert "inlet_velocity must be nonnegative" in capsys.readouterr().err
    # a plume width whose square overflows, or underflows to zero
    for sigma in ("1e300", "1e-200"):
        assert cli.main([*plume, "--deltas", "0.3,0.4", "--sigma", sigma]) == 2, sigma
        assert "sigma must be positive with a positive finite square" in capsys.readouterr().err
    # an unknown family, and a training value given twice
    for flags, message in (
        (["--family", "fog"], "unknown family 'fog'"),
        ([], "datagen needs --family or --preset"),
        (["--family", "plume", "--deltas", "0.4,0.3,0.4"], "must be pairwise distinct"),
        # the preset set --velocities, so the message names it as the source
        (["--preset", "series1-velocity", "--temperatures", "5,10"],
         "got --velocities (set by --preset series1-velocity) and --temperatures"),
        (["--preset", "series1-velocity", "--family", "plume", "--deltas", "0.3,0.4"],
         "--velocities (set by --preset series1-velocity) does not apply to the plume family"),
    ):
        assert cli.main(["datagen", *flags, *sizes]) == 2, flags
        assert message in capsys.readouterr().err, flags
    assert list(tmp_path.glob("*.snp1")) == []

    optimize = ["optimize", "--rom", rom, "--out", str(tmp_path / "h.csv")]
    # a target sampled on another grid or at other instants than the ROM's
    plume = PlumeParams(0.375, sigma=0.3)
    for name, grid, times in (
        ("other_grid", Grid(20, 20, 1.04, 1.04), TimeAxis(40, 10.0)),
        ("other_times", Grid(24, 24, 1.04, 1.04), TimeAxis(40, 12.0)),
    ):
        foreign = tmp_path / f"{name}.snp1"
        write_snapshots(analytic_plume(plume, grid, times), foreign)
        assert cli.main([*optimize, "--target", str(foreign)]) == 2, name
        assert "target snapshot grid/time axis does not match the ROM" in capsys.readouterr().err
        assert not (tmp_path / "h.csv").exists()
    # a target of another parameter kind on the ROM's grid and time axis
    plume_run = read_snapshots(target)
    velocity_run = tmp_path / "velocity.snp1"
    write_snapshots(SnapshotMatrix(plume_run.grid, plume_run.times, ParamKind.VELOCITY, 0.5,
                                   plume_run.values), velocity_run)
    assert cli.main([*optimize, "--target", str(velocity_run)]) == 2
    assert capsys.readouterr().err == (
        "error: target is a velocity run, the ROM was built from synthetic runs\n"
    )
    assert not (tmp_path / "h.csv").exists()
    # a negative seed is named, not left to numpy's generator
    assert cli.main([*optimize, "--target", target, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: rng_seed must be nonnegative\n"
    assert not (tmp_path / "h.csv").exists()
    # zero generations is named, not run as one
    assert cli.main([*optimize, "--target", target, "--gens", "0"]) == 2
    assert capsys.readouterr().err == "error: generations must be at least 1\n"
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


def test_a_failed_report_writes_nothing(pipeline, tmp_path, capsys):
    history = tmp_path / "history.csv"
    history.write_text(",".join(HISTORY_COLUMNS) + "\n1,0.4,3,2,5,0.25,1.5\n", encoding="utf-8")
    report_dir = tmp_path / "report"
    report_dir.mkdir()
    target = str(pipeline / "target_0.375.snp1")
    report = ["report", "--predicted", target, "--out", str(report_dir)]
    other_grid = tmp_path / "other_grid.snp1"
    write_snapshots(analytic_plume(PlumeParams(0.375, sigma=0.3), Grid(20, 20, 1.04, 1.04),
                                   TimeAxis(40, 10.0)), other_grid)
    # a lone --predicted, a history (no longer an input), a --target that does
    # not exist, one on another grid
    for extra, message in (
        ([], "the following arguments are required: --target"),
        (["--target", target, "--history", str(history)], "unrecognized arguments: --history"),
        (["--target", str(tmp_path / "missing.snp1")], "cannot read snapshot file"),
        (["--target", str(other_grid)], "predicted and target snapshots do not match"),
    ):
        assert cli.main([*report, *extra]) == 2, extra
        assert message in capsys.readouterr().err, extra
        assert list(report_dir.iterdir()) == [], extra


def test_a_missing_out_exits_two_and_names_it(pipeline, capsys):
    assert cli.main(["predict", "--rom", str(pipeline / "db.rom1"), "--delta", "0.4"]) == 2
    assert "--out" in capsys.readouterr().err


def test_abbreviated_and_removed_flags_are_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    datagen = ["datagen", "--family", "plume", "--deltas", "0.3,0.4", "--nx", "8", "--ny", "8",
               "--tfinal", "1", "--out", str(out)]
    assert cli.main([*datagen, "--snap", "10"]) == 2
    assert "unrecognized arguments: --snap" in capsys.readouterr().err
    # neither the grid extents, the stability factor, the fixed inlet value,
    # the walls, the initial field, the diffusivity, the ROM's ranks, the GA's
    # rates and bounds nor an options file can be set on the command line
    optimize = ["optimize", "--rom", "db.rom1", "--target", "t.snp1", "--out", str(out / "h.csv")]
    compress = ["compress", "--snapshots", "manifest.txt", "--out", str(out / "db.rom1")]
    removed = [(datagen, flag) for flag in ("--lx", "--ly", "--cfl", "--config", "--velocity",
                                            "--inlet-temp", "--theta-cold", "--theta-hot",
                                            "--theta-init", "--kappa")]
    removed += [(compress, flag) for flag in ("--r", "--s")]
    removed += [(optimize, flag) for flag in ("--pc", "--pm", "--elite", "--delta-min",
                                              "--delta-max", "--ne-min", "--ne-max", "--m-min",
                                              "--m-max", "--config")]
    for base, flag in removed:
        assert cli.main([*base, flag, "1"]) == 2, flag
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err, flag
    assert list(out.iterdir()) == []


def test_a_malformed_number_in_a_list_is_named(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    for deltas, message in (
        ("0.3,x", "not a number: 'x'"),
        (" , ", "empty value list"),
        ("0.3,,0.5", "empty item in list '0.3,,0.5'"),
    ):
        assert cli.main(["datagen", "--family", "plume", "--deltas", deltas, "--out", str(out)]) == 2
        assert f"--deltas: {message}" in capsys.readouterr().err, deltas
    assert list(out.iterdir()) == []


def test_tampered_manifest_is_rejected(pipeline, tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    lines = (pipeline / "manifest.txt").read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace("0.35", "0.36", 1)  # value no longer matches the file
    manifest.write_text("\n".join(f"{ln}" for ln in lines) + "\n", encoding="utf-8")
    for name in pipeline.glob("train_*.snp1"):
        (tmp_path / name.name).write_bytes(name.read_bytes())
    rom = tmp_path / "db.rom1"
    code = cli.main(["compress", "--snapshots", str(manifest), "--q", "4", "--out", str(rom)])
    assert code == 2
    assert "manifest" in capsys.readouterr().err
    # a manifest that cannot be read, names an unknown kind or lists no run
    unknown = tmp_path / "unknown.txt"
    unknown.write_text(lines[0].replace("synthetic", "pressure", 1) + "\n", encoding="utf-8")
    empty = tmp_path / "empty.txt"
    empty.write_text("\n  \n", encoding="utf-8")
    # runs that each match their own manifest line but not each other
    times = TimeAxis(6, 1.0)
    for name, kind, value, nx in (
        ("grid8", ParamKind.SYNTHETIC, 0.3, 8),
        ("grid10", ParamKind.SYNTHETIC, 0.4, 10),
        ("velocity", ParamKind.VELOCITY, 0.5, 8),
    ):
        run = analytic_plume(PlumeParams(value, sigma=0.3), Grid(nx, 8, 1.04, 1.04), times)
        write_snapshots(SnapshotMatrix(run.grid, times, kind, value, run.values),
                        tmp_path / f"{name}.snp1")
    mixed_grids = tmp_path / "mixed_grids.txt"
    mixed_grids.write_text("synthetic,0.3,grid8.snp1\nsynthetic,0.4,grid10.snp1\n", encoding="utf-8")
    mixed_kinds = tmp_path / "mixed_kinds.txt"
    mixed_kinds.write_text("synthetic,0.3,grid8.snp1\nvelocity,0.5,velocity.snp1\n", encoding="utf-8")
    # a run whose header holds an infinite parameter value, listed as such
    blob = bytearray((tmp_path / "grid8.snp1").read_bytes())
    blob[49:57] = struct.pack("<d", float("inf"))  # param_value ends the 57-byte header
    (tmp_path / "infinite.snp1").write_bytes(bytes(blob))
    infinite = tmp_path / "infinite.txt"
    infinite.write_text("synthetic,0.3,grid8.snp1\nsynthetic,inf,infinite.snp1\n", encoding="utf-8")
    not_a_number = tmp_path / "not_a_number.txt"
    not_a_number.write_text("synthetic,abc,x.snp1\n", encoding="utf-8")
    # one run listed twice, with another between
    repeated = tmp_path / "repeated.txt"
    repeated.write_text(f"{lines[0]}\n{lines[2]}\n{lines[0]}\n", encoding="utf-8")
    for path, message in (
        (tmp_path / "absent.txt", "cannot read manifest"),
        (unknown, "unknown parameter kind 'pressure'"),
        (empty, "manifest lists no runs"),
        (mixed_grids, "all samples must share grid and time axis"),
        (mixed_kinds, "all samples must share the parameter kind"),
        (infinite, "param_value must be finite, got inf"),
        (not_a_number, f"error: {not_a_number}:1: not a number: 'abc'\n"),
        (repeated, f"error: {repeated}: lines 1 and 3 both list the value 0.3\n"),
    ):
        code = cli.main(["compress", "--snapshots", str(path), "--q", "4", "--out", str(rom)])
        assert code == 2, path.name
        assert message in capsys.readouterr().err, path.name
    assert not rom.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--family", "plume", "--deltas", "0.3,0.4", "--velocities", "1,2"], "--velocities"),
        (["--family", "plume", "--deltas", "0.3,0.4", "--temperatures", "10,20"], "--temperatures"),
        (["--family", "cavity", "--velocities", "0.5,0.6", "--sigma", "0.3"], "--sigma"),
        (["--family", "cavity", "--temperatures", "10,20", "--deltas", "0.3,0.4"], "--deltas"),
        (["--preset", "series1-velocity", "--sigma", "0.3"], "--sigma"),
    ],
)
def test_an_option_of_the_other_family_exits_two(flags, named, tmp_path, monkeypatch, capsys):
    # an option the chosen family never reads is named, not silently dropped
    def no_run(*args, **kwargs):
        raise AssertionError("nothing may run before the options are checked")

    monkeypatch.setattr(cli, "solve_cavity", no_run)
    monkeypatch.setattr(cli, "analytic_plume", no_run)
    assert cli.main(["datagen", *flags, "--out", str(tmp_path)]) == 2
    family = "plume" if "plume" in flags else "cavity"
    assert capsys.readouterr().err == f"error: {named} does not apply to the {family} family\n"
    assert list(tmp_path.iterdir()) == []


def test_an_allocation_that_does_not_fit_exits_two(tmp_path, monkeypatch, capsys):
    # numpy raises MemoryError for an array larger than memory, as a huge
    # --nx and --ny ask for; the refusal is stood in for, nothing is allocated
    refusals = (
        MemoryError("Unable to allocate 7.28 TiB for an array with shape (10, 10)"),
        MemoryError(),
    )
    for refusal in refusals:
        def refuse(*args, **kwargs):
            raise refusal

        monkeypatch.setattr(cli, "analytic_plume", refuse)
        argv = ["datagen", "--family", "plume", "--deltas", "0.3,0.4", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        want = str(refusal) or "out of memory"
        assert capsys.readouterr().err == f"error: {want}\n"
        assert list(tmp_path.iterdir()) == []


def test_numerical_failures_exit_with_three(tmp_path, capsys):
    # finite inputs whose stability rate, substep count or plume phase
    # overflows stop before any field is computed, with no numpy warning on
    # the way (pytest turns any warning into an error)
    out = tmp_path / "out"
    out.mkdir()
    sizes = ["--nx", "8", "--ny", "8", "--snapshots", "3"]
    cavity = ["datagen", "--family", "cavity", *sizes]
    plume = ["datagen", "--family", "plume", *sizes]
    no_step = "the stability rate overflows, so no time step is stable"
    for base, flags, message in (
        (cavity, ["--velocities", "1e308"], no_step),
        (cavity, ["--velocities", "0.5", "--tfinal", "1e308"],
         "substep count overflows at t = 5e+307s"),
        # the plume's phase overflows; the runs are ordered, so -1e308 comes first
        (plume, ["--deltas", "1e308,-1e308"],
         "the plume's centre path is not finite at delta = -1e+308"),
    ):
        assert cli.main([*base, *flags, "--out", str(out)]) == 3, flags
        assert capsys.readouterr().err == f"numerical failure: {message}\n", flags
    assert list(out.iterdir()) == []


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
        "pairs.csv": lambda path: cli._write_csv(path, [(0, 1.5)]),
    }
    datagen_dir = tmp_path / "datagen"
    datagen_dir.mkdir()
    datagen = ["datagen", *PLUME_ARGS, "--out", str(datagen_dir)]
    old = {tmp_path / name: f"old {name}\n".encode() for name in writers}
    old[datagen_dir / "manifest.txt"] = b"old manifest\n"
    for path, data in old.items():
        path.write_bytes(data)

    real_replace = os.replace
    real_fallocate = os.posix_fallocate

    def replace_all_but_training_runs(src, dst):
        if Path(dst).name.startswith("train_"):
            return real_replace(src, dst)
        raise OSError(errno.ENOSPC, "No space left on device")

    def no_space(fd, offset, length):
        raise OSError(errno.ENOSPC, "No space left on device")

    # A failed rename spares the training runs, so datagen fails at its
    # manifest; a failed preallocation fails every file, the first run too.
    for call, fault, message in (
        ("replace", replace_all_but_training_runs, "cannot write manifest"),
        ("posix_fallocate", no_space, "cannot write snapshot file"),
    ):
        monkeypatch.setattr(f"romga.dataset.os.{call}", fault)
        for name, write in writers.items():
            with pytest.raises(PersistenceError, match="No space left"):
                write(tmp_path / name)
        assert cli.main(datagen) == 2
        assert message in capsys.readouterr().err
        for path, data in old.items():
            assert path.read_bytes() == data, path.name
        # no temp file, and datagen removed the training runs it had written
        assert {p for p in tmp_path.rglob("*") if p.is_file()} == set(old)
        monkeypatch.undo()

    def write_all():
        for name, write in writers.items():
            write(tmp_path / name)
        assert cli.main(datagen) == 0
        assert not list(tmp_path.rglob("*.tmp"))
        return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    # Without posix_fallocate nothing is preallocated, so these are the bytes written.
    monkeypatch.delattr(os, "posix_fallocate")
    expected = write_all()
    monkeypatch.undo()
    for path, data in old.items():
        assert expected[path] != data, path.name

    def unsupported(fd, offset, length):
        raise OSError(errno.EOPNOTSUPP, "Operation not supported")

    lengths = []

    def recording(fd, offset, length):
        lengths.append((offset, length))
        real_fallocate(fd, offset, length)

    for fault in (unsupported, recording):
        monkeypatch.setattr(os, "posix_fallocate", fault)
        assert write_all() == expected
        monkeypatch.undo()
    # each file was preallocated to exactly its size, so no allocated tail is left
    assert sorted(lengths) == sorted((0, len(data)) for data in expected.values())
    for path, data in expected.items():
        assert path.stat().st_size == len(data), path.name


def test_a_zero_filled_artifact_is_rejected_by_its_reader(tmp_path):
    # what a file replaced just before a power cut may read back as
    zeros = tmp_path / "zeros"
    zeros.write_bytes(bytes(4096))
    with pytest.raises(FormatError, match="not an SNP1 file"):
        read_snapshots(zeros)
    with pytest.raises(FormatError, match="not a ROM1 file"):
        read_rom(zeros)
    with pytest.raises(ValueError, match="not a search history file"):
        read_history_csv(zeros)
    with pytest.raises(ValueError, match="expected 'kind,value,path'"):
        cli._read_manifest(zeros)


def test_argparse_surface(monkeypatch, capsys):
    assert cli.main([]) == 2  # a command is required
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    assert "datagen" in capsys.readouterr().out
    # the installed entry point exits with main's code
    monkeypatch.setattr(sys, "argv", ["romga"])
    with pytest.raises(SystemExit) as stop:
        cli.entry()
    assert stop.value.code == 2
