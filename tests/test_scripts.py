"""The experiment scripts run end to end on small settings."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_series_script_recovers_a_target_named_with_trailing_zeros(tmp_path):
    # datagen names the target file target_0.54.snp1; the script must find it
    # under that name however the value was typed
    out = _run_script(
        "run_series.py", "--preset", "series1-velocity", "--targets", "0.540",
        "--pop", "4", "--gens", "2", "--workdir", "runs", cwd=tmp_path,
    )
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines) if line.split()[:2] == ["U*", "recovered"])
    row = lines[header + 1].split()
    assert row[0] == "0.540"
    assert 0.51 <= float(row[1]) <= 0.798  # inside the training hull
    workdir = tmp_path / "runs"
    for name in ("target_0.54.snp1", "history_0.54.csv", "pred_0.54.snp1",
                 "report_0.54/error_series.csv", "report_0.54/avg_cost.csv"):
        assert (workdir / name).is_file(), name


def test_plume_study_runs(tmp_path):
    out = _run_script("plume_interpolation_study.py", "--sweep", "1", cwd=tmp_path)
    assert "leave-one-out" in out
    assert out.count("delta 0.400:") == 1  # the one unseen sweep query
