"""Run the seven-target campaign and print a sha256 of every artifact it writes.

Three campaigns each run datagen once for all of their targets and compress
once. Then, for each target, they run optimize (pop 20, gens 30, seed 3),
predict at the recovered genes and report:

  series1    preset series1-velocity, targets 0.54, 0.67 and 0.755, q 30
  series2    preset series2-temperature, targets 7.5, 17.5 and 22.5, q 30
  plume      the acceptance suite's 40x40 plume family, target 0.375, q 10

The output is one sorted ``sha256  relative-path`` line per file under OUTDIR,
so two checkouts produce byte-identical artifacts exactly when
``diff`` finds no difference between their outputs.

Usage: python3 scripts/campaign_digest.py OUTDIR
"""

from __future__ import annotations

import argparse
import hashlib
from pathlib import Path

from run_series import run_cli  # this directory is on sys.path when a script runs

# the plume family of tests/test_acceptance.py
PLUME_ARGS = [
    "--family", "plume",
    "--deltas", "0.3,0.35,0.4,0.45,0.5",
    "--nx", "40", "--ny", "40",
    "--snapshots", "60", "--tfinal", "10",
    "--sigma", "0.3",
]
GA_ARGS = ["--pop", "20", "--gens", "30", "--seed", "3"]
# name -> (datagen arguments, targets, q)
CAMPAIGNS = {
    "series1": (["--preset", "series1-velocity"], ("0.54", "0.67", "0.755"), "30"),
    "series2": (["--preset", "series2-temperature"], ("7.5", "17.5", "22.5"), "30"),
    "plume": (PLUME_ARGS, ("0.375",), "10"),
}


def run_campaign(root: Path, datagen: list[str], targets, q: str) -> None:
    root.mkdir(parents=True, exist_ok=True)
    run_cli(["datagen", *datagen, "--target", ",".join(targets), "--out", str(root)])
    rom = str(root / "db.rom1")
    run_cli(["compress", "--snapshots", str(root / "manifest.txt"), "--q", q, "--out", rom])
    for value in targets:
        target, history = str(root / f"target_{value}.snp1"), str(root / f"history_{value}.csv")
        line = run_cli(["optimize", "--rom", rom, "--target", target, *GA_ARGS, "--out", history])
        genes = dict(token.split("=") for token in line.split())
        pred = str(root / f"pred_{value}.snp1")
        run_cli(["predict", "--rom", rom, "--delta", genes["delta"], "--ne-x", genes["ne_x"],
                 "--ne-t", genes["ne_t"], "--m", genes["m"], "--out", pred])
        report = root / f"report_{value}"
        report.mkdir(exist_ok=True)
        run_cli(["report", "--history", history, "--predicted", pred, "--target", target,
                 "--out", str(report)])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="directory for the artifacts")
    out = parser.parse_args().outdir
    for name, (datagen, targets, q) in CAMPAIGNS.items():
        run_campaign(out / name, datagen, targets, q)
    files = {p.relative_to(out).as_posix(): p for p in out.rglob("*") if p.is_file()}
    for name in sorted(files):
        print(f"{hashlib.sha256(files[name].read_bytes()).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
