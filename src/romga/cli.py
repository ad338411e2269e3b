"""Command line pipeline: datagen -> compress -> predict / optimize -> report.

Exit codes: 0 success, 2 usage or validation problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import genetic
from .barycentric import interpolate_reduced
from .dataset import (
    Grid,
    ParamKind,
    SnapshotMatrix,
    TimeAxis,
    _adopt,
    _write_csv,
    _write_file,
    build_mask,
    read_snapshots,
    write_snapshots,
)
from .errors import DivergenceError, PersistenceError, RomgaError
from .objective import l2_error_series
from .pod import compress_ensemble, read_rom, reconstruct_field, write_rom
from .surrogate import PlumeParams, analytic_plume, solve_cavity

MANIFEST_NAME = "manifest.txt"
DOMAIN_SIDE = 1.04  # both families sample the square [0, 1.04 m]^2

# Named experiment presets: the training grids of the two cavity series, as
# the datagen options they set.
PRESETS = {
    "series1-velocity": {"family": "cavity", "velocities": (0.51, 0.627, 0.798)},
    "series2-temperature": {"family": "cavity", "temperatures": (5.0, 10.0, 15.0, 20.0, 25.0)},
}

# The datagen options only one family reads, by family.
_FAMILY_OPTIONS = {"plume": ("deltas", "sigma"), "cavity": ("velocities", "temperatures")}


def _floats(raw: str) -> tuple[float, ...]:
    parts = [tok.strip() for tok in raw.split(",")]
    if not any(parts):
        raise argparse.ArgumentTypeError("empty value list")
    values = []
    for tok in parts:
        if not tok:
            raise argparse.ArgumentTypeError(f"empty item in list {raw!r}")
        try:
            values.append(float(tok))
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {tok!r}") from None
    return tuple(values)


def _rect(raw: str) -> tuple[float, float, float, float]:
    values = _floats(raw)
    if len(values) != 4:
        raise argparse.ArgumentTypeError("rectangle needs exactly x_min,x_max,y_min,y_max")
    return values  # type: ignore[return-value]


def _out_dir(out: str) -> Path:
    path = Path(out)
    if not path.is_dir():
        raise ValueError(f"output directory {path} does not exist")
    return path


# ---------------------------------------------------------------- datagen

# (flag, type, default, help); a default of ... marks a required option

_DATAGEN_OPTS = (
    ("--family", str, None, "plume or cavity"),
    ("--preset", str, None, "named experiment preset"),
    ("--deltas", _floats, None, "plume training parameters"),
    ("--velocities", _floats, None, "cavity training velocities (m/s)"),
    ("--temperatures", _floats, None, "cavity training inlet temperatures (C)"),
    ("--target", _floats, None, "held-out parameter values to also generate"),
    ("--nx", int, 48, "cells along x"),
    ("--ny", int, 48, "cells along y"),
    ("--snapshots", int, 150, "number of recorded instants"),
    ("--tfinal", float, 60.0, "simulated time span (s)"),
    ("--sigma", float, None, "plume width (m), default 0.25"),
    ("--out", str, ..., "existing output directory"),
)


def _cmd_datagen(ns: argparse.Namespace) -> int:
    if ns.preset is not None and ns.preset not in PRESETS:
        raise ValueError(f"unknown preset {ns.preset!r}; choose from {', '.join(sorted(PRESETS))}")
    # a flag beats the preset, which beats the defaults
    preset = {k: v for k, v in PRESETS.get(ns.preset, {}).items() if getattr(ns, k) is None}
    for name, value in preset.items():
        setattr(ns, name, value)
    flag = {k: f"--{k}" for k in vars(ns)}  # each option as an error names it
    flag.update({k: f"--{k} (set by --preset {ns.preset})" for k in preset})
    if ns.family is None:
        raise ValueError("datagen needs --family or --preset")
    if ns.family not in _FAMILY_OPTIONS:
        raise ValueError(f"unknown family {ns.family!r}")
    foreign = [
        name
        for family, names in _FAMILY_OPTIONS.items() if family != ns.family
        for name in names if getattr(ns, name) is not None
    ]
    if foreign:
        raise ValueError(f"{flag[foreign[0]]} does not apply to the {ns.family} family")
    out = _out_dir(ns.out)
    grid = Grid(ns.nx, ns.ny, DOMAIN_SIDE, DOMAIN_SIDE)
    times = TimeAxis(ns.snapshots, ns.tfinal)

    if ns.family == "plume":
        if ns.deltas is None:
            raise ValueError("the plume family needs --deltas")
        train_values = ns.deltas

        width = {} if ns.sigma is None else {"sigma": ns.sigma}

        def make(values) -> list[SnapshotMatrix]:
            return [analytic_plume(PlumeParams(v, **width), grid, times) for v in values]

        kind = ParamKind.SYNTHETIC
    else:
        if (ns.velocities is None) == (ns.temperatures is None):
            got = f", got {flag['velocities']} and {flag['temperatures']}" if ns.velocities else ""
            raise ValueError(f"cavity runs need exactly one of --velocities/--temperatures{got}")
        if ns.velocities is not None:
            train_values, kind = ns.velocities, ParamKind.VELOCITY
        else:
            train_values, kind = ns.temperatures, ParamKind.TEMPERATURE

        def make(values) -> list[SnapshotMatrix]:
            # one solver call advances every run of the series together
            return solve_cavity(values, grid, times, vary=kind)

    train_values = tuple(sorted(train_values))
    if len(set(train_values)) != len(train_values):
        raise ValueError("training parameter values must be pairwise distinct")

    targets = ns.target or ()
    target_name = "target_{:g}.snp1".format
    target_names = [target_name(value) for value in targets]
    clashes = [v for v, name in zip(targets, target_names) if target_names.count(name) > 1]
    if clashes:
        raise ValueError(f"target values {clashes} would overwrite each other's target file")
    targets = sorted(targets)  # the solver takes a strictly increasing series
    manifest_lines = []
    written: list[Path] = []
    try:
        for i, (value, matrix) in enumerate(zip(train_values, make(train_values))):
            name = f"train_{i:02d}_{value:g}.snp1"
            write_snapshots(matrix, out / name)
            written.append(out / name)
            manifest_lines.append(f"{ParamKind(kind).name.lower()},{value!r},{name}")
        manifest = out / MANIFEST_NAME
        _write_file(manifest, "manifest", [("\n".join(manifest_lines) + "\n").encode("utf-8")])
        written.append(manifest)
        for value, matrix in zip(targets, make(targets) if targets else ()):
            path = out / target_name(value)
            write_snapshots(matrix, path)
            written.append(path)
    except BaseException:
        # a failed run leaves none of the files it wrote behind
        for path in written:
            path.unlink(missing_ok=True)
        raise

    print(
        f"wrote {len(train_values)} training runs and {len(targets)} target runs to {out}"
    )
    return 0


def _read_manifest(path: Path) -> list[tuple[ParamKind, float, Path]]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise PersistenceError(path, f"cannot read manifest ({exc})") from exc
    entries = []
    first_lines: dict = {}  # value -> the line that first lists it
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        parts = stripped.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'kind,value,path'")
        kind_name, value, rel = (p.strip() for p in parts)
        try:
            kind = ParamKind[kind_name.upper()]
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: unknown parameter kind {kind_name!r}") from exc
        try:
            number = float(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: not a number: {value!r}") from None
        first = first_lines.setdefault(number, lineno)
        if first != lineno:
            raise ValueError(f"{path}: lines {first} and {lineno} both list the value {number!r}")
        entries.append((kind, number, path.parent / rel))
    if not entries:
        raise ValueError(f"{path}: manifest lists no runs")
    return entries


# ---------------------------------------------------------------- compress

_COMPRESS_OPTS = (
    ("--snapshots", str, ..., "manifest file listing the training runs"),
    ("--q", int, 60, "per-sample truncation order"),
    ("--out", str, ..., "ROM output file"),
)


def _manifest_samples(entries):
    """Each manifest entry's snapshot matrix, read and checked when it is asked for."""
    for kind, value, path in entries:
        matrix = read_snapshots(path)
        if matrix.param_kind != kind or matrix.param_value != value:
            raise ValueError(
                f"{path}: manifest says ({kind.name.lower()}, {value!r}), file holds"
                f" ({matrix.param_kind.name.lower()}, {matrix.param_value!r})"
            )
        yield matrix


def _cmd_compress(ns: argparse.Namespace) -> int:
    entries = _read_manifest(Path(ns.snapshots))
    # the samples stream from disk: compress holds one of them at a time
    db = compress_ensemble(_manifest_samples(entries), q=ns.q)
    write_rom(db, ns.out)
    print(
        f"compressed {db.n_params} samples at q={db.q}, r={db.r}, s={db.s} -> {ns.out}"
    )
    return 0


# ---------------------------------------------------------------- predict

_PREDICT_OPTS = (
    ("--rom", str, ..., "ROM database file"),
    ("--delta", float, ..., "query parameter value"),
    ("--ne-x", int, 2, "spatial neighbor count"),
    ("--ne-t", int, 2, "temporal neighbor count"),
    ("--m", int, None, "block truncation order (default: q)"),
    ("--out", str, ..., "predicted snapshot output file"),
)


def _cmd_predict(ns: argparse.Namespace) -> int:
    db = read_rom(ns.rom)
    m = db.q if ns.m is None else ns.m
    result = interpolate_reduced(db, ns.delta, ne_x=ns.ne_x, ne_t=ns.ne_t, m=m)
    field = reconstruct_field(db, result.spatial_factor, result.temporal_factor)
    # the lifted field is this call's own, so the matrix keeps it without a copy
    write_snapshots(_adopt(db.grid, db.times, db.param_kind, ns.delta, field), ns.out)
    print(f"predicted delta={ns.delta!r} ne_x={ns.ne_x} ne_t={ns.ne_t} m={m} -> {ns.out}")
    return 0


# ---------------------------------------------------------------- optimize

_OPTIMIZE_OPTS = (
    ("--rom", str, ..., "ROM database file"),
    ("--target", str, ..., "target snapshot file"),
    ("--mask", _rect, (0.1, 0.9, 0.15, 0.7), "observation window x_min,x_max,y_min,y_max"),
    ("--pop", int, 20, "population size"),
    ("--gens", int, 30, "number of generations"),
    ("--seed", int, 0, "random seed"),
    ("--out", str, ..., "history CSV output file"),
)


def _cmd_optimize(ns: argparse.Namespace) -> int:
    db = read_rom(ns.rom)
    target = read_snapshots(ns.target)
    rows = build_mask(db.grid, ns.mask)
    cfg = genetic.GaConfig(population_size=ns.pop, generations=ns.gens, rng_seed=ns.seed)
    history = genetic.run(cfg, db, target, rows)
    history.write_csv(ns.out)
    # the first generation to reach the least cost holds the overall best
    record = min(history.records, key=lambda rec: rec.best_cost)
    best = record.best
    print(
        f"delta={best.delta!r} ne_t={best.ne_t} ne_x={best.ne_x} m={best.m}"
        f" cost={record.best_cost!r}"
    )
    return 0


# ---------------------------------------------------------------- report

_REPORT_OPTS = (
    ("--predicted", str, ..., "predicted snapshot file"),
    ("--target", str, ..., "target snapshot file"),
    ("--out", str, ..., "existing output directory"),
)


def _cmd_report(ns: argparse.Namespace) -> int:
    out = _out_dir(ns.out)
    predicted = read_snapshots(ns.predicted)
    target = read_snapshots(ns.target)
    if predicted.grid != target.grid or predicted.times != target.times:
        raise ValueError("predicted and target snapshots do not match")
    errors = l2_error_series(predicted.values, target.values)
    path = out / "error_series.csv"
    _write_csv(path, [("index", "value"), *((i, repr(float(v))) for i, v in enumerate(errors))])
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------- wiring

_COMMANDS = (
    ("datagen", _cmd_datagen, _DATAGEN_OPTS, "generate training/target snapshot files"),
    ("compress", _cmd_compress, _COMPRESS_OPTS, "build a ROM database from a manifest"),
    ("predict", _cmd_predict, _PREDICT_OPTS, "interpolate the field at a new parameter"),
    ("optimize", _cmd_optimize, _OPTIMIZE_OPTS, "search for the parameter matching a target"),
    ("report", _cmd_report, _REPORT_OPTS, "write the per-instant error of a prediction"),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by the later ones."""
    parser = argparse.ArgumentParser(
        prog="romga",
        description="reduced-order compression, interpolation and inverse search",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, func, opts, help_text in _COMMANDS:
        sub = subparsers.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, convert, default, help_opt in opts:
            sub.add_argument(
                flag,
                type=convert,
                default=None if default is ... else default,
                required=default is ...,
                help=help_opt,
            )
        sub.set_defaults(_func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args._func(args)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code) if exc.code else 0
    # LinAlgError subclasses ValueError, so it must be caught first
    except (DivergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, RomgaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an array the inputs ask for does not fit
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
