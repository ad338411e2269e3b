"""Run one romga benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the benchmark imports romga from
``src/`` of that checkout and nothing else. It prints one line per metric
(name, value, unit, sample count) and, as its last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
full run record goes to ``.bench_out/``; scratch files live in
``.bench_work/`` and are removed when the run ends. See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread, not nproc: on a shared host, a second BLAS thread waits
# for a core that another tenant may hold. With one busy process beside it on
# 2 cores, the median cavity predict call took 48 ms with 2 threads and 25 ms
# with 1, the same as on an idle machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP_SHAPES = ((1600, 50), (1600, 60), (2304, 90), (2304, 150), (150, 150), (30, 30))
WARMUP_POLICY = (
    "before any timed call, one SVD per matrix shape the pipeline factorizes "
    f"{list(WARMUP_SHAPES)}; its wall time is recorded here and is part of no metric"
)


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    return done.stdout.strip()


def _source_digest() -> str:
    hasher = hashlib.sha256()
    for path in sorted((SRC / "romga").glob("*.py")):
        hasher.update(path.name.encode() + b"\0" + path.read_bytes())
    return hasher.hexdigest()


def _blas(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def _warm_up(np) -> float:
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    for shape in WARMUP_SHAPES:
        np.linalg.svd(rng.standard_normal(shape), full_matrices=False)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "romga" / "cli.py").is_file():
        print(f"error: no romga sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy loads it.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import romga

    if Path(romga.__file__).resolve().parent != (SRC / "romga").resolve():
        print(f"error: romga imported from {romga.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    results = ROOT / ".bench_out"
    results.mkdir(exist_ok=True)

    started = time.perf_counter()
    warm_s = _warm_up(np)
    try:
        state = workloads.run(workload, args.seed, args.seconds, trace, work)
        metrics = state.per_layer() if trace else state.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still has its scratch files there
            pass
    units = layers.UNITS if trace else workloads.END_TO_END_UNITS
    extra = {} if trace else state.tail()
    if trace:
        state.tracer.write(results / f"{tag}-spans.jsonl")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "warmup": {"policy": WARMUP_POLICY, "seconds": warm_s},
        "loop": "closed, one caller: in-process romga.cli.main calls, each after the last returned",
        "metrics": {
            name: {"value": value, "unit": units[name], "samples": n}
            for name, (value, n) in metrics.items()
        },
        "unregistered": {
            name: {"value": value, "unit": "ms", "samples": n} for name, (value, n) in extra.items()
        },
        "quality": state.quality,
        "samples": state.samples,
        "attempted": state.attempted,
        "failed": state.failed,
        "failed_frac": state.failed / state.attempted,
        "failures": state.failures,
        "wall_s": time.perf_counter() - started,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"romga benchmark: workload {workload.name}, seed {args.seed}, trace {args.trace}, "
          f"warm-up {warm_s:.3f} s, wall {record['wall_s']:.1f} s")
    print(f"{'metric':32} {'value':>14} {'unit':>14} {'samples':>8}")
    for name, (value, n) in metrics.items():
        print(f"{name:32} {value:14.6g} {units[name]:>14} {n:8d}")
    for name, (value, n) in extra.items():
        print(f"{name:32} {value:14.6g} {'ms':>14} {n:8d}  (printed only)")
    print(f"{'failed_frac':32} {record['failed_frac']:14.6g} {'ratio':>14} {state.attempted:8d}"
          "  (printed only; the JSON carries attempted and failed)")
    for failure in state.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": state.failed == 0,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
