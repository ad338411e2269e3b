"""Run the paper's identification campaigns and print a recovery table or an artifact digest.

Each campaign runs datagen once for all of its targets and compresses once.
Then, for each target, it runs optimize (pop 20, gens 30, seed 3), predicts
at the recovered genes and reports:

  series1    preset series1-velocity, targets 0.54, 0.67 and 0.755, q 30
  series2    preset series2-temperature, targets 7.5, 17.5 and 22.5, q 30
  plume      the acceptance suite's 40x40 plume family, target 0.375, q 10

Artifacts go to OUTDIR/<campaign>/, named after each target's %g form as
datagen names the target files (--targets 0.540 reads target_0.54.snp1).
Each campaign prints a recovery table and the wall times of its datagen and
compress, all timed after one warm-up SVD per shape the campaigns factorize;
--digest prints one sorted
``sha256  relative-path`` line per file under OUTDIR instead, so two
checkouts wrote byte-identical artifacts exactly when their digests diff empty.

--against REFDIR runs nothing: it compares the artifacts already under OUTDIR
with their counterparts under REFDIR. A file passes when its bytes are equal
or when it meets the tolerance standard (see TOLERANCES), prints one line per
file that differs and exits 1 if any file is missing or out of bounds.

Usage: python3 scripts/campaign.py OUTDIR [--only NAME [--targets V,...]] [--digest]
       python3 scripts/campaign.py OUTDIR --against REFDIR
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import math
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

from romga import RomgaError, cli, read_history_csv, read_rom, read_snapshots, reconstruct_sample

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


class Campaign(NamedTuple):
    datagen_s: float  # wall time of datagen, training runs and targets
    compress_s: float  # wall time of compress
    rows: list[Row]  # one per target


# One SVD per matrix shape the campaigns factorize runs before anything is
# timed, as perfbench does, so that no campaign's compress pays for the
# process's first call into LAPACK: per sample (cells x instants), level 2
# (cells or instants x q * samples) and a Procrustes cross product (m x m).
WARMUP_SHAPES = ((1600, 60), (1600, 50), (60, 50), (2304, 150), (2304, 90), (150, 90),
                 (150, 150), (30, 30))

HEADER = "{:>7}  recovered  miss % ne_t ne_x   m      cost  max L2 %  time s"
ROW = "{:7.3f} {:10.4f} {:7.2f} {:4d} {:4d} {:3d} {:9.3e} {:9.3f} {:7.1f}"
SETUP = "set-up: datagen {:.2f} s, compress {:.2f} s"


def run_cli(argv: list[str]) -> str:
    """cli.main with captured stdout; a nonzero exit echoes it to stderr and exits with its code."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    if code != 0:
        sys.stderr.write(buffer.getvalue())
        raise SystemExit(code)
    return buffer.getvalue().strip()


def _timed(argv: list[str]) -> tuple[str, float]:
    """run_cli's output and its wall time in seconds."""
    start = time.perf_counter()
    out = run_cli(argv)
    return out, time.perf_counter() - start


def _warm_up() -> None:
    rng = np.random.default_rng(0)
    for shape in WARMUP_SHAPES:
        np.linalg.svd(rng.standard_normal(shape), full_matrices=False)


def run_campaign(root: Path, name: str, targets=None) -> Campaign:
    """Run campaign ``name`` into ``root``, at its own targets unless ``targets`` are given."""
    datagen, default_targets, q, _ = CAMPAIGNS[name]
    targets = targets or default_targets
    root.mkdir(parents=True, exist_ok=True)
    _, datagen_s = _timed(["datagen", *datagen, "--target", ",".join(targets), "--out", str(root)])
    rom = str(root / "db.rom1")
    _, compress_s = _timed(
        ["compress", "--snapshots", str(root / "manifest.txt"), "--q", q, "--out", rom]
    )
    rows = []
    for value in targets:
        truth, tag = float(value), f"{float(value):g}"
        target, history = str(root / f"target_{tag}.snp1"), str(root / f"history_{tag}.csv")
        line, seconds = _timed(
            ["optimize", "--rom", rom, "--target", target, *GA_ARGS, "--out", history]
        )
        genes = dict(token.split("=") for token in line.split())
        pred = str(root / f"pred_{tag}.snp1")
        run_cli(["predict", "--rom", rom, "--delta", genes["delta"], "--ne-x", genes["ne_x"],
                 "--ne-t", genes["ne_t"], "--m", genes["m"], "--out", pred])
        report = root / f"report_{tag}"
        report.mkdir(exist_ok=True)
        run_cli(["report", "--predicted", pred, "--target", target, "--out", str(report)])
        _, errors = _series(report / "error_series.csv")
        delta = float(genes["delta"])
        rows.append(Row(truth, delta, 100 * abs(delta - truth) / truth,
                        *(int(genes[k]) for k in ("ne_t", "ne_x", "m")), float(genes["cost"]),
                        float(errors.max()), seconds))
    return Campaign(datagen_s, compress_s, rows)


# Bounds of the tolerance standard: how far an artifact may move from its
# reference when it is not byte-identical.
TOLERANCES = {
    "delta": 1e-9,  # history best_delta, relative
    "cost": 1e-9,  # history best_cost and avg_cost, relative
    "error": 1e-9,  # error_series.csv values, absolute percentage points
    "field": 1e-12,  # SNP1 fields and ROM1 reconstructions, relative to the reference's norm
}


def _relative(new: np.ndarray, ref: np.ndarray) -> float:
    """Largest |new - ref| / |ref|; a moved value whose reference is zero reads inf."""
    gap = np.abs(new - ref)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(gap == 0.0, 0.0, gap / np.abs(ref))
    return float(ratio.max(initial=0.0))


def _field_gap(new: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(new - ref) / np.linalg.norm(ref))


def _history_gaps(new: Path, ref: Path) -> dict[str, float]:
    a, b = read_history_csv(new).records, read_history_csv(ref).records
    if [(r.generation, *r.best[1:]) for r in a] != [(r.generation, *r.best[1:]) for r in b]:
        raise ValueError("generations or integer genes differ")
    # columns: best_delta, best_cost, avg_cost
    a, b = (np.array([(r.best.delta, r.best_cost, r.avg_cost) for r in rs]) for rs in (a, b))
    return {"delta": _relative(a[:, 0], b[:, 0]), "cost": _relative(a[:, 1:], b[:, 1:])}


def _series(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    return [i for i, _ in rows], np.array([float(v) for _, v in rows])


def _series_gaps(new: Path, ref: Path) -> dict[str, float]:
    (new_index, new_values), (ref_index, ref_values) = _series(new), _series(ref)
    if new_index != ref_index:
        raise ValueError("row indices differ")
    return {"error": float(np.abs(new_values - ref_values).max(initial=0.0))}


def _snapshot_gaps(new: Path, ref: Path) -> dict[str, float]:
    a, b = read_snapshots(new), read_snapshots(ref)
    if (a.grid, a.times, a.param_kind, a.param_value) != (
        b.grid, b.times, b.param_kind, b.param_value
    ):
        raise ValueError("grid, time axis or parameter differ")
    return {"field": _field_gap(a.values, b.values)}


def _rom_gaps(new: Path, ref: Path) -> tuple[dict[str, float], str]:
    # reconstructions, not bases: near-null basis columns may rotate freely,
    # and the ranks may differ; the note names a rank that moved
    a, b = read_rom(new), read_rom(ref)
    if (a.grid, a.times, a.param_kind, a.q) != (b.grid, b.times, b.param_kind, b.q) or not (
        np.array_equal(a.params, b.params)
    ):
        raise ValueError("grid, time axis, parameters or order q differ")
    gap = max(
        _field_gap(reconstruct_sample(a, k, a.q).values, reconstruct_sample(b, k, b.q).values)
        for k in range(a.n_params)
    )
    ranks = (("r", b.r, a.r), ("s", b.s, a.s))
    return {"field": gap}, " ".join(f"{x} {old}→{now}" for x, old, now in ranks if old != now)


def _gaps(new: Path, ref: Path) -> tuple[dict[str, float], str]:
    """What the tolerance standard measures between two versions of one artifact, and a note."""
    if new.suffix == ".rom1":
        return _rom_gaps(new, ref)
    if new.name.startswith("history_") and new.suffix == ".csv":
        return _history_gaps(new, ref), ""
    if new.name == "error_series.csv":
        return _series_gaps(new, ref), ""
    if new.suffix == ".snp1":
        return _snapshot_gaps(new, ref), ""
    raise ValueError("no tolerance applies; the bytes must match")


def compare_artifacts(outdir: Path, refdir: Path) -> list[tuple[str, str, bool]]:
    """One (path, verdict, within bounds) row per artifact that is not byte-identical."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (outdir, refdir) for p in root.rglob("*") if p.is_file()})
    rows = []
    for name in names:
        new, ref = outdir / name, refdir / name
        if not (new.is_file() and ref.is_file()):
            rows.append((name, f"only under {outdir if new.is_file() else refdir}", False))
            continue
        if new.read_bytes() == ref.read_bytes():
            continue
        try:
            gaps, note = _gaps(new, ref)
        except (ValueError, RomgaError) as exc:
            rows.append((name, str(exc), False))
            continue
        ok = all(gap <= TOLERANCES[kind] for kind, gap in gaps.items())
        verdict = [f"{kind} {gap:.2g} (bound {TOLERANCES[kind]:.0e})" for kind, gap in gaps.items()]
        rows.append((name, ", ".join(verdict + ([note] if note else [])), ok))
    return rows


def _targets(raw: str) -> list[str]:
    """The values of --targets as typed, once they pass as a list of finite numbers."""
    if not all(math.isfinite(v) for v in cli._floats(raw)):
        raise argparse.ArgumentTypeError(f"non-finite value in {raw!r}")
    return [tok.strip() for tok in raw.split(",")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, help="artifact directory, one subdirectory per campaign")
    parser.add_argument("--only", choices=list(CAMPAIGNS), help="run this campaign alone")
    parser.add_argument("--targets", type=_targets,
                        help="comma-separated held-out values for --only's campaign")
    parser.add_argument("--digest", action="store_true", help="print artifact sha256s, not tables")
    parser.add_argument("--against", type=Path, metavar="REFDIR",
                        help="run nothing; compare OUTDIR's artifacts with REFDIR's")
    args = parser.parse_args()
    if args.targets is not None and args.only is None:
        parser.error("--targets needs --only")
    if args.against is not None:
        if args.only or args.digest:
            parser.error("--against takes no other option")
        for root in (args.outdir, args.against):
            if not root.is_dir():
                parser.error(f"{root} is not a directory")
        rows = compare_artifacts(args.outdir, args.against)
        for name, verdict, ok in rows:
            print(f"{'within' if ok else 'OUT OF BOUNDS'}  {name}: {verdict}")
        failed = sum(not ok for *_, ok in rows)
        print(f"{len(rows)} artifacts differ from {args.against}, {failed} out of bounds")
        raise SystemExit(1 if failed else 0)
    _warm_up()
    for name in [args.only] if args.only else CAMPAIGNS:
        done = run_campaign(args.outdir / name, name, args.targets)
        if not args.digest:
            print(name, HEADER.format(CAMPAIGNS[name][3]), sep="\n")
            print(*(ROW.format(*row) for row in done.rows), sep="\n")
            print(SETUP.format(done.datagen_s, done.compress_s) + "\n")
    if args.digest:
        files = {p.relative_to(args.outdir).as_posix(): p
                 for p in args.outdir.rglob("*") if p.is_file()}
        for path in sorted(files):
            print(f"{hashlib.sha256(files[path].read_bytes()).hexdigest()}  {path}")
    else:
        print(f"artifacts in {args.outdir}/")


if __name__ == "__main__":
    main()
