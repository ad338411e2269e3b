"""The experiment scripts run end to end on small settings."""

from __future__ import annotations

import csv
import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from romga import read_rom, write_rom

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str, cwd: Path, code: int = 0) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == code, done.stderr
    return done.stdout


def test_series_script_recovers_a_target_named_with_trailing_zeros(tmp_path):
    # datagen names the target file target_0.54.snp1; the script must find it
    # under that name however the value was typed
    out = _run_script(
        "campaign.py", "runs", "--only", "series1", "--targets", "0.540", cwd=tmp_path,
    )
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:2] == ["U*", "recovered"])
    row = lines[header + 1].split()
    assert row[0] == "0.540"
    assert 0.51 <= float(row[1]) <= 0.798  # inside the training hull
    setup = lines[header + 2].split()
    assert setup[:2] == ["set-up:", "datagen"] and setup[4] == "compress"
    assert float(setup[2]) > 0.0 and float(setup[5]) > 0.0
    workdir = tmp_path / "runs" / "series1"
    for name in ("target_0.54.snp1", "history_0.54.csv", "pred_0.54.snp1",
                 "report_0.54/error_series.csv"):
        assert (workdir / name).is_file(), name


def test_campaign_targets_without_a_campaign_exit_two_and_create_nothing(tmp_path):
    _run_script("campaign.py", "runs", "--targets", "0.54", cwd=tmp_path, code=2)
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("targets", [",", "0.375,,0.425", "0.375,nan"])
def test_malformed_campaign_targets_exit_two_and_create_nothing(tmp_path, targets):
    # an empty list would fall back to the campaign's own targets, a dropped item skip a run
    _run_script("campaign.py", "runs", "--only", "plume", "--targets", targets,
                cwd=tmp_path, code=2)
    assert not (tmp_path / "runs").exists()


def test_campaign_digest_lists_every_artifact(tmp_path):
    out = _run_script("campaign.py", "campaign", "--digest", cwd=tmp_path)
    lines = out.splitlines()
    listed = [line.split("  ", 1)[1] for line in lines]
    assert listed == sorted(listed)
    assert all(len(line.split("  ", 1)[0]) == 64 for line in lines)

    def campaign(name, training, targets):
        training = [f"train_{i:02d}_{v}.snp1" for i, v in enumerate(training)]
        common = ["db.rom1", "manifest.txt", *training]
        per_target = [
            f"{stem}_{t}{ext}" for t in targets
            for stem, ext in (("target", ".snp1"), ("history", ".csv"), ("pred", ".snp1"))
        ] + [f"report_{t}/error_series.csv" for t in targets]
        return {f"{name}/{f}" for f in common + per_target}

    expected = (
        campaign("series1", ("0.51", "0.627", "0.798"), ("0.54", "0.67", "0.755"))
        | campaign("series2", ("5", "10", "15", "20", "25"), ("7.5", "17.5", "22.5"))
        | campaign("plume", ("0.3", "0.35", "0.4", "0.45", "0.5"), ("0.375",))
    )
    assert set(listed) == expected
    on_disk = {p.relative_to(tmp_path / "campaign").as_posix()
               for p in (tmp_path / "campaign").rglob("*") if p.is_file()}
    assert on_disk == expected


@pytest.fixture(scope="module")
def plume_campaign(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference")
    _run_script("campaign.py", "runs", "--only", "plume", cwd=root)
    return root / "runs"


def _copy_with_history_edit(reference: Path, dest: Path, column: str, edit) -> Path:
    """Copy the campaign, replacing ``column`` of the history's last row by ``edit(value)``."""
    shutil.copytree(reference, dest)
    history = dest / "plume" / "history_0.375.csv"
    with open(history, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    at = rows[0].index(column)
    rows[-1][at] = edit(rows[-1][at])
    with open(history, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    return dest


def test_against_passes_a_copy_and_a_cost_moved_within_bounds(plume_campaign, tmp_path):
    shutil.copytree(plume_campaign, tmp_path / "copy")
    out = _run_script("campaign.py", "copy", "--against", str(plume_campaign), cwd=tmp_path)
    assert out.splitlines() == [f"0 artifacts differ from {plume_campaign}, 0 out of bounds"]

    _copy_with_history_edit(plume_campaign, tmp_path / "near", "best_cost",
                            lambda v: repr(float(v) * (1 + 1e-12)))
    out = _run_script("campaign.py", "near", "--against", str(plume_campaign), cwd=tmp_path)
    assert out.splitlines()[0].startswith("within  plume/history_0.375.csv: delta 0 ")
    assert out.splitlines()[-1] == f"1 artifacts differ from {plume_campaign}, 0 out of bounds"


def test_against_names_a_rank_change(plume_campaign, tmp_path):
    # a temporal basis grown by one orthonormal column, met by a zero row in
    # every temporal block, rebuilds every sample as before
    reference = read_rom(plume_campaign / "plume" / "db.rom1")
    basis = reference.temporal_basis
    extra = np.random.default_rng(0).standard_normal(basis.shape[0])
    for _ in range(2):  # the second pass takes out what rounding left of the first
        extra -= basis @ (basis.T @ extra)
    zero_rows = np.zeros((reference.n_params, 1, reference.q))
    grown = dataclasses.replace(
        reference,
        temporal_basis=np.column_stack([basis, extra / np.linalg.norm(extra)]),
        temporal_blocks=np.concatenate([reference.temporal_blocks, zero_rows], axis=1),
    )
    copy = shutil.copytree(plume_campaign, tmp_path / "grown") / "plume"
    write_rom(grown, copy / "db.rom1")
    out = _run_script("campaign.py", "grown", "--against", str(plume_campaign), cwd=tmp_path)
    first, last = out.splitlines()
    assert first.startswith("within  plume/db.rom1: field ")
    assert first.endswith(f"(bound 1e-12), s {reference.s}→{reference.s + 1}")
    assert last == f"1 artifacts differ from {plume_campaign}, 0 out of bounds"


@pytest.mark.parametrize(
    "column, edit, why",
    [
        ("best_cost", lambda v: repr(float(v) * (1 + 1e-6)),
         "delta 0 (bound 1e-09), cost 1e-06 (bound 1e-09)"),
        ("best_m", lambda v: str(int(v) + 1), "generations or integer genes differ"),
    ],
    ids=["cost-nudged-1e-6", "best-m-changed"],
)
def test_against_fails_a_history_out_of_bounds(plume_campaign, tmp_path, column, edit, why):
    _copy_with_history_edit(plume_campaign, tmp_path / "moved", column, edit)
    out = _run_script(
        "campaign.py", "moved", "--against", str(plume_campaign), cwd=tmp_path, code=1
    )
    assert out.splitlines() == [
        f"OUT OF BOUNDS  plume/history_0.375.csv: {why}",
        f"1 artifacts differ from {plume_campaign}, 1 out of bounds",
    ]


def test_against_a_missing_directory_exits_two(plume_campaign, tmp_path):
    # an empty comparison would otherwise pass
    _run_script("campaign.py", "absent", "--against", str(plume_campaign), cwd=tmp_path, code=2)
