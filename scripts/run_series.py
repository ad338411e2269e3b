"""Recover unseen cavity parameters from temperature fields, one preset series at a time.

Generates the preset's training set plus held-out targets, compresses it,
runs the genetic search against each target, lifts the recovered optimum
and prints a recovery table.

  series1-velocity     three stirring velocities; recover the velocity
  series2-temperature  five inlet temperatures; recover the inlet
                       temperature (the advected scalar is affine in it,
                       so this is the easier series)

Usage: python3 scripts/run_series.py --preset series1-velocity [--targets 0.54,0.67]
"""

from __future__ import annotations

import argparse
import io
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

from romga import cli

# preset -> (default targets, default workdir, table header of the parameter)
SERIES = {
    "series1-velocity": ("0.54,0.67,0.755", "series1_runs", "U*"),
    "series2-temperature": ("7.5,17.5,22.5", "series2_runs", "theta*"),
}


def run_cli(argv: list[str]) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        sys.stderr.write(buffer.getvalue())
        raise SystemExit(code)
    return buffer.getvalue().strip()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", required=True, choices=sorted(SERIES))
    parser.add_argument("--workdir", default=None, help="artifact directory (default: per preset)")
    parser.add_argument("--targets", default=None, help="comma-separated held-out values")
    parser.add_argument("--pop", type=int, default=20)
    parser.add_argument("--gens", type=int, default=30)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--q", type=int, default=30, help="per-sample truncation order")
    args = parser.parse_args()

    default_targets, default_workdir, header = SERIES[args.preset]
    workdir = Path(args.workdir or default_workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    raw = args.targets or default_targets
    targets = [float(tok) for tok in raw.split(",") if tok.strip()]

    print("generating training and target runs (this solves the cavity model)")
    run_cli(["datagen", "--preset", args.preset,
             "--target", ",".join(repr(v) for v in targets), "--out", str(workdir)])
    rom = workdir / "db.rom1"
    print(run_cli(["compress", "--snapshots", str(workdir / "manifest.txt"),
                   "--q", str(args.q), "--out", str(rom)]))

    rows = []
    for truth in targets:
        # datagen names each target file after the value's %g form
        tag = f"{truth:g}"
        target = workdir / f"target_{tag}.snp1"
        history = workdir / f"history_{tag}.csv"
        start = time.perf_counter()
        line = run_cli([
            "optimize", "--rom", str(rom), "--target", str(target),
            "--pop", str(args.pop), "--gens", str(args.gens), "--seed", str(args.seed),
            "--out", str(history),
        ])
        elapsed = time.perf_counter() - start
        fields = dict(tok.split("=") for tok in line.split())

        # lift the recovered optimum and measure the per-instant error
        pred = workdir / f"pred_{tag}.snp1"
        run_cli(["predict", "--rom", str(rom), "--delta", fields["delta"],
                 "--ne-x", fields["ne_x"], "--ne-t", fields["ne_t"],
                 "--m", fields["m"], "--out", str(pred)])
        report_dir = workdir / f"report_{tag}"
        report_dir.mkdir(exist_ok=True)
        run_cli(["report", "--history", str(history), "--predicted", str(pred),
                 "--target", str(target), "--out", str(report_dir)])
        series = (report_dir / "error_series.csv").read_text(encoding="utf-8")
        worst = max(float(r.split(",")[1]) for r in series.splitlines()[1:])

        recovered = float(fields["delta"])
        rows.append((truth, recovered, 100 * abs(recovered - truth) / truth,
                     fields["ne_t"], fields["ne_x"], fields["m"], worst, elapsed))

    print()
    print(f"{header:>7} {'recovered':>10} {'miss %':>7} {'ne_t':>4} {'ne_x':>4}"
          f" {'m':>3} {'max L2 %':>9} {'time s':>7}")
    for truth, rec, miss, ne_t, ne_x, m, worst, elapsed in rows:
        print(f"{truth:7.3f} {rec:10.4f} {miss:7.2f} {ne_t:>4} {ne_x:>4}"
              f" {m:>3} {worst:9.3f} {elapsed:7.1f}")
    print(f"\nartifacts in {workdir}/")


if __name__ == "__main__":
    main()
