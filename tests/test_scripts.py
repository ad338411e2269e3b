"""The experiment scripts run end to end on small settings."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
    workdir = tmp_path / "runs" / "series1"
    for name in ("target_0.54.snp1", "history_0.54.csv", "pred_0.54.snp1",
                 "report_0.54/error_series.csv", "report_0.54/avg_cost.csv"):
        assert (workdir / name).is_file(), name


def test_plume_study_runs(tmp_path):
    out = _run_script("plume_interpolation_study.py", "--sweep", "1", cwd=tmp_path)
    assert "leave-one-out" in out
    assert out.count("delta 0.400:") == 1  # the one unseen sweep query


def test_campaign_targets_without_a_campaign_exit_two_and_create_nothing(tmp_path):
    _run_script("campaign.py", "runs", "--targets", "0.54", cwd=tmp_path, code=2)
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
        ] + [f"report_{t}/{csv}" for t in targets for csv in ("avg_cost.csv", "error_series.csv")]
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
