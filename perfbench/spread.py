"""Run one workload on several seeds and print each metric's run-to-run spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 --seconds S [--trace 0|1]

Each seed is a fresh ``run.py`` process, run one after another. For every
metric the script prints the median over seeds and the interquartile
distance as a share of that median (``statistics.quantiles(values, n=4)``),
next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from summary import relative_spread

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="range, e.g. 1-10")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=HERE.parent, capture_output=True, text=True, check=False,
        )
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':32} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        spread = relative_spread(series) if median(series) else 0.0
        bound = bounds.get(name)
        print(f"{name:32} {median(series):12.6g} {spread:8.3f} {bound if bound else '':>6}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
