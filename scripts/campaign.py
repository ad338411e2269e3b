"""Run the paper's identification campaigns and print a recovery table or an artifact digest.

Each campaign runs datagen once for all of its targets and compresses once.
Then, for each target, it runs optimize (pop 20, gens 30, seed 3), predicts
at the recovered genes and reports:

  series1    preset series1-velocity, targets 0.54, 0.67 and 0.755, q 30
  series2    preset series2-temperature, targets 7.5, 17.5 and 22.5, q 30
  plume      the acceptance suite's 40x40 plume family, target 0.375, q 10

Artifacts go to OUTDIR/<campaign>/, named after each target's %g form as
datagen names the target files (--targets 0.540 reads target_0.54.snp1).
Each campaign prints a recovery table; --digest prints one sorted
``sha256  relative-path`` line per file under OUTDIR instead, so two
checkouts wrote byte-identical artifacts exactly when their digests diff empty.

Usage: python3 scripts/campaign.py OUTDIR [--only NAME [--targets V,...]] [--digest]
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

from romga import cli

PLUME_ARGS = [
    "--family", "plume",
    "--deltas", "0.3,0.35,0.4,0.45,0.5",
    "--nx", "40", "--ny", "40",
    "--snapshots", "60", "--tfinal", "10",
    "--sigma", "0.3",
]
GA_ARGS = ["--pop", "20", "--gens", "30", "--seed", "3"]
# name -> (datagen arguments, targets, q, table header of the parameter)
CAMPAIGNS = {
    "series1": (["--preset", "series1-velocity"], ("0.54", "0.67", "0.755"), "30", "U*"),
    "series2": (["--preset", "series2-temperature"], ("7.5", "17.5", "22.5"), "30", "theta*"),
    "plume": (PLUME_ARGS, ("0.375",), "10", "delta*"),
}


class Row(NamedTuple):
    truth: float
    delta: float
    miss_pct: float
    ne_t: int
    ne_x: int
    m: int
    cost: float
    worst_pct: float  # largest per-instant relative L2 error of the prediction at the optimum
    seconds: float  # wall time of optimize


HEADER = "{:>7}  recovered  miss % ne_t ne_x   m      cost  max L2 %  time s"
ROW = "{:7.3f} {:10.4f} {:7.2f} {:4d} {:4d} {:3d} {:9.3e} {:9.3f} {:7.1f}"


def run_cli(argv: list[str]) -> str:
    """cli.main with captured stdout; a nonzero exit echoes it to stderr and exits with its code."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        sys.stderr.write(buffer.getvalue())
        raise SystemExit(code)
    return buffer.getvalue().strip()


def run_campaign(root: Path, name: str, targets=None) -> list[Row]:
    """Run campaign ``name`` into ``root``, at its own targets unless ``targets`` are given."""
    datagen, default_targets, q, _ = CAMPAIGNS[name]
    targets = targets or default_targets
    root.mkdir(parents=True, exist_ok=True)
    run_cli(["datagen", *datagen, "--target", ",".join(targets), "--out", str(root)])
    rom = str(root / "db.rom1")
    run_cli(["compress", "--snapshots", str(root / "manifest.txt"), "--q", q, "--out", rom])
    rows = []
    for value in targets:
        truth, tag = float(value), f"{float(value):g}"
        target, history = str(root / f"target_{tag}.snp1"), str(root / f"history_{tag}.csv")
        start = time.perf_counter()
        line = run_cli(["optimize", "--rom", rom, "--target", target, *GA_ARGS, "--out", history])
        seconds = time.perf_counter() - start
        genes = dict(token.split("=") for token in line.split())
        pred = str(root / f"pred_{tag}.snp1")
        run_cli(["predict", "--rom", rom, "--delta", genes["delta"], "--ne-x", genes["ne_x"],
                 "--ne-t", genes["ne_t"], "--m", genes["m"], "--out", pred])
        report = root / f"report_{tag}"
        report.mkdir(exist_ok=True)
        run_cli(["report", "--history", history, "--predicted", pred, "--target", target,
                 "--out", str(report)])
        series = (report / "error_series.csv").read_text(encoding="utf-8").splitlines()[1:]
        delta = float(genes["delta"])
        rows.append(Row(truth, delta, 100 * abs(delta - truth) / truth,
                        *(int(genes[k]) for k in ("ne_t", "ne_x", "m")), float(genes["cost"]),
                        max(float(r.split(",")[1]) for r in series), seconds))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="artifact directory, one subdirectory per campaign")
    parser.add_argument("--only", choices=list(CAMPAIGNS), help="run this campaign alone")
    parser.add_argument("--targets", help="comma-separated held-out values for --only's campaign")
    parser.add_argument("--digest", action="store_true", help="print artifact sha256s, not tables")
    args = parser.parse_args()
    if args.targets is not None and args.only is None:
        parser.error("--targets needs --only")
    targets = [tok.strip() for tok in (args.targets or "").split(",") if tok.strip()]
    for name in [args.only] if args.only else CAMPAIGNS:
        rows = run_campaign(args.outdir / name, name, targets)
        if not args.digest:
            print(name, HEADER.format(CAMPAIGNS[name][3]), sep="\n")
            print("\n".join(ROW.format(*row) for row in rows) + "\n")
    if args.digest:
        files = {p.relative_to(args.outdir).as_posix(): p
                 for p in args.outdir.rglob("*") if p.is_file()}
        for path in sorted(files):
            print(f"{hashlib.sha256(files[path].read_bytes()).hexdigest()}  {path}")
    else:
        print(f"artifacts in {args.outdir}/")


if __name__ == "__main__":
    main()
