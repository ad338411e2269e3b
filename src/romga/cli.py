"""Command line pipeline: datagen -> compress -> predict / optimize -> report.

Every flag can also be supplied through ``--config FILE`` where the file
holds ``key = value`` lines (``#`` starts a comment, keys are the flag names
without the leading dashes). Precedence is flags, then config file, then
preset, then built-in defaults.

Exit codes: 0 success, 2 usage or validation problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import genetic
from .barycentric import interpolate_reduced
from .dataset import (
    Grid,
    ParamKind,
    SnapshotMatrix,
    TimeAxis,
    _adopt,
    _write_file,
    build_mask,
    read_snapshots,
    write_snapshots,
)
from .errors import (
    CorruptionError,
    DivergenceError,
    EmptyMaskError,
    FormatError,
    PersistenceError,
    StabilityError,
)
from .objective import Target, l2_error_series
from .pod import compress_ensemble, read_rom, reconstruct_field, write_rom
from .surrogate import CavityParams, PlumeParams, analytic_plume, solve_cavity

MANIFEST_NAME = "manifest.txt"

# Named experiment presets: training grids for the two cavity series.
PRESETS = {
    "series1-velocity": {
        "family": "cavity",
        "velocities": "0.51,0.627,0.798",
        "inlet-temp": "15",
    },
    "series2-temperature": {
        "family": "cavity",
        "temperatures": "5,10,15,20,25",
        "velocity": "0.57",
    },
}


def _floats(raw: str) -> tuple[float, ...]:
    parts = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not parts:
        raise ValueError("empty value list")
    return tuple(float(tok) for tok in parts)


def _rect(raw: str) -> tuple[float, float, float, float]:
    values = _floats(raw)
    if len(values) != 4:
        raise ValueError("rectangle needs exactly x_min,x_max,y_min,y_max")
    return values  # type: ignore[return-value]


@dataclass(frozen=True)
class _Opt:
    flag: str
    convert: Callable
    default: object
    help: str = ""

    @property
    def key(self) -> str:
        return self.flag.lstrip("-")

    @property
    def dest(self) -> str:
        return self.key.replace("-", "_")


def _read_config(path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PersistenceError(path, f"cannot read config file ({exc})") from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> SimpleNamespace:
    opts: tuple[_Opt, ...] = args._opts
    known = {o.key for o in opts} | {"preset"}
    file_cfg = _read_config(args.config) if args.config else {}
    unknown = set(file_cfg) - known
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    preset_name = getattr(args, "preset", None) or file_cfg.get("preset")
    preset: dict[str, str] = {}
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ValueError(
                f"unknown preset {preset_name!r}; choose from {', '.join(sorted(PRESETS))}"
            )
        preset = PRESETS[preset_name]
    resolved = {}
    for opt in opts:
        raw = getattr(args, opt.dest, None)
        if raw is None:
            raw = file_cfg.get(opt.key)
        if raw is None:
            raw = preset.get(opt.key)
        resolved[opt.dest] = opt.convert(raw) if raw is not None else opt.default
    return SimpleNamespace(**resolved)


def _require(ns: SimpleNamespace, dest: str):
    value = getattr(ns, dest)
    if value is None:
        raise ValueError(f"--{dest.replace('_', '-')} is required")
    return value


def _out_dir(ns: SimpleNamespace) -> Path:
    out = Path(_require(ns, "out"))
    if not out.is_dir():
        raise ValueError(f"output directory {out} does not exist")
    return out


def _write_csv_pairs(path: Path, rows) -> None:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(("index", "value"))
    for index, value in rows:
        writer.writerow((index, repr(float(value))))
    _write_file(path, "CSV", [text.getvalue().encode("utf-8")])


# ---------------------------------------------------------------- datagen

_DATAGEN_OPTS = (
    _Opt("--family", str, None, "plume or cavity"),
    _Opt("--preset", str, None, "named experiment preset"),
    _Opt("--deltas", _floats, None, "plume training parameters"),
    _Opt("--velocities", _floats, None, "cavity training velocities (m/s)"),
    _Opt("--temperatures", _floats, None, "cavity training inlet temperatures (C)"),
    _Opt("--target", _floats, None, "held-out parameter values to also generate"),
    _Opt("--velocity", float, 0.57, "fixed velocity when temperatures vary"),
    _Opt("--inlet-temp", float, 15.0, "fixed inlet temperature when velocities vary"),
    _Opt("--nx", int, 48, "cells along x"),
    _Opt("--ny", int, 48, "cells along y"),
    _Opt("--lx", float, 1.04, "domain extent along x (m)"),
    _Opt("--ly", float, 1.04, "domain extent along y (m)"),
    _Opt("--snapshots", int, 150, "number of recorded instants"),
    _Opt("--tfinal", float, 60.0, "simulated time span (s)"),
    _Opt("--sigma", float, 0.25, "plume width (m)"),
    _Opt("--theta-cold", float, 15.0, "cold wall temperature (C)"),
    _Opt("--theta-hot", float, 35.0, "floor temperature (C)"),
    _Opt("--theta-init", float, 15.0, "initial temperature (C)"),
    _Opt("--kappa", float, 2.0e-3, "diffusivity (m^2/s)"),
    _Opt("--cfl", float, 0.9, "stability safety factor"),
    _Opt("--out", str, None, "existing output directory"),
)


def _cmd_datagen(ns: SimpleNamespace) -> int:
    out = _out_dir(ns)
    family = _require(ns, "family")
    grid = Grid(ns.nx, ns.ny, ns.lx, ns.ly)
    times = TimeAxis(ns.snapshots, ns.tfinal)

    if family == "plume":
        train_values = _require(ns, "deltas")

        def make(values) -> list[SnapshotMatrix]:
            return [
                analytic_plume(PlumeParams(v, ns.theta_cold, ns.theta_hot, ns.sigma), grid, times)
                for v in values
            ]

        kind = ParamKind.SYNTHETIC
    elif family == "cavity":
        if (ns.velocities is None) == (ns.temperatures is None):
            raise ValueError("cavity runs need exactly one of --velocities/--temperatures")
        if ns.velocities is not None:
            train_values, kind, varied = ns.velocities, ParamKind.VELOCITY, "inlet_velocity"
        else:
            train_values, kind, varied = ns.temperatures, ParamKind.TEMPERATURE, "inlet_temperature"
        inlet = {"inlet_velocity": ns.velocity, "inlet_temperature": ns.inlet_temp}

        def make(values) -> list[SnapshotMatrix]:
            # one solver call advances every run of the group together
            members = [
                CavityParams(
                    **{**inlet, varied: value},
                    theta_hot=ns.theta_hot,
                    theta_cold=ns.theta_cold,
                    theta_initial=ns.theta_init,
                    kappa=ns.kappa,
                )
                for value in values
            ]
            return solve_cavity(members, grid, times, cfl=ns.cfl, vary=kind)

    else:
        raise ValueError(f"unknown family {family!r}")

    train_values = tuple(sorted(train_values))
    if len(set(train_values)) != len(train_values):
        raise ValueError("training parameter values must be pairwise distinct")

    targets = ns.target or ()
    target_names = [f"target_{value:g}.snp1" for value in targets]
    clashes = [v for v, name in zip(targets, target_names) if target_names.count(name) > 1]
    if clashes:
        raise ValueError(f"target values {clashes} would overwrite each other's target file")
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
        for name, matrix in zip(target_names, make(targets) if targets else ()):
            path = out / name
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
        entries.append((kind, float(value), path.parent / rel))
    if not entries:
        raise ValueError(f"{path}: manifest lists no runs")
    return entries


# ---------------------------------------------------------------- compress

_COMPRESS_OPTS = (
    _Opt("--snapshots", str, None, "manifest file listing the training runs"),
    _Opt("--q", int, 60, "per-sample truncation order"),
    _Opt("--r", int, None, "global spatial rank (default: lossless)"),
    _Opt("--s", int, None, "global temporal rank (default: lossless)"),
    _Opt("--out", str, None, "ROM output file"),
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


def _cmd_compress(ns: SimpleNamespace) -> int:
    manifest = Path(_require(ns, "snapshots"))
    out = _require(ns, "out")
    entries = _read_manifest(manifest)
    # the samples stream from disk: compress holds one of them at a time
    db = compress_ensemble(_manifest_samples(entries), q=ns.q, r=ns.r, s=ns.s)
    write_rom(db, out)
    print(
        f"compressed {db.n_params} samples at q={db.q}, r={db.r}, s={db.s} -> {out}"
    )
    return 0


# ---------------------------------------------------------------- predict

_PREDICT_OPTS = (
    _Opt("--rom", str, None, "ROM database file"),
    _Opt("--delta", float, None, "query parameter value"),
    _Opt("--ne-x", int, 2, "spatial neighbor count"),
    _Opt("--ne-t", int, 2, "temporal neighbor count"),
    _Opt("--m", int, None, "block truncation order (default: q)"),
    _Opt("--out", str, None, "predicted snapshot output file"),
)


def _cmd_predict(ns: SimpleNamespace) -> int:
    db = read_rom(_require(ns, "rom"))
    delta = _require(ns, "delta")
    out = _require(ns, "out")
    m = db.q if ns.m is None else ns.m
    result = interpolate_reduced(db, delta, ne_x=ns.ne_x, ne_t=ns.ne_t, m=m)
    field = reconstruct_field(db, result.spatial_factor, result.temporal_factor)
    # the lifted field is this call's own, so the matrix keeps it without a copy
    write_snapshots(_adopt(db.grid, db.times, db.param_kind, delta, field), out)
    print(f"predicted delta={delta!r} ne_x={ns.ne_x} ne_t={ns.ne_t} m={m} -> {out}")
    return 0


# ---------------------------------------------------------------- optimize

_OPTIMIZE_OPTS = (
    _Opt("--rom", str, None, "ROM database file"),
    _Opt("--target", str, None, "target snapshot file"),
    _Opt("--mask", _rect, (0.1, 0.9, 0.15, 0.7), "observation window x_min,x_max,y_min,y_max"),
    _Opt("--pop", int, 20, "population size"),
    _Opt("--gens", int, 30, "number of generations"),
    _Opt("--pc", float, 0.8, "crossover probability"),
    _Opt("--pm", float, 0.1, "mutation probability"),
    _Opt("--elite", int, 1, "elite carry-over count"),
    _Opt("--seed", int, 0, "random seed"),
    _Opt("--delta-min", float, None, "search lower bound (default: hull)"),
    _Opt("--delta-max", float, None, "search upper bound (default: hull)"),
    _Opt("--ne-min", int, 2, "neighbor count lower bound"),
    _Opt("--ne-max", int, None, "neighbor count upper bound (default: sample count)"),
    _Opt("--m-min", int, None, "truncation lower bound (default: min(4, q))"),
    _Opt("--m-max", int, None, "truncation upper bound (default: q)"),
    _Opt("--out", str, None, "history CSV output file"),
)


def _cmd_optimize(ns: SimpleNamespace) -> int:
    db = read_rom(_require(ns, "rom"))
    target_matrix = read_snapshots(_require(ns, "target"))
    out = _require(ns, "out")
    if target_matrix.grid != db.grid or target_matrix.times != db.times:
        raise ValueError("target snapshot grid/time axis does not match the ROM")
    mask = build_mask(db.grid, ns.mask)
    target = Target(target_matrix.values[mask.indices], mask, db.times)
    hull = db.hull
    space = genetic.SearchSpace(
        delta_bounds=(
            hull[0] if ns.delta_min is None else ns.delta_min,
            hull[1] if ns.delta_max is None else ns.delta_max,
        ),
        ne_bounds=(ns.ne_min, db.n_params if ns.ne_max is None else ns.ne_max),
        m_bounds=(
            min(4, db.q) if ns.m_min is None else ns.m_min,
            db.q if ns.m_max is None else ns.m_max,
        ),
    )
    cfg = genetic.GaConfig(
        space=space,
        population_size=ns.pop,
        generations=ns.gens,
        crossover_prob=ns.pc,
        mutation_prob=ns.pm,
        elite_count=ns.elite,
        rng_seed=ns.seed,
    )
    best, history = genetic.run(cfg, db, target)
    history.write_csv(out)
    best_cost = min(rec.best_cost for rec in history.records)
    print(
        f"delta={best.delta!r} ne_t={best.ne_t} ne_x={best.ne_x} m={best.m}"
        f" cost={best_cost!r}"
    )
    return 0


# ---------------------------------------------------------------- report

_REPORT_OPTS = (
    _Opt("--history", str, None, "search history CSV"),
    _Opt("--predicted", str, None, "predicted snapshot file"),
    _Opt("--target", str, None, "target snapshot file"),
    _Opt("--out", str, None, "existing output directory"),
)


def _cmd_report(ns: SimpleNamespace) -> int:
    out = _out_dir(ns)
    wrote = []
    if ns.history is not None:
        history = genetic.read_history_csv(ns.history)
        path = out / "avg_cost.csv"
        _write_csv_pairs(path, ((rec.generation, rec.avg_cost) for rec in history.records))
        wrote.append(path)
    if (ns.predicted is None) != (ns.target is None):
        raise ValueError("--predicted and --target must be given together")
    if ns.predicted is not None:
        predicted = read_snapshots(ns.predicted)
        target = read_snapshots(ns.target)
        if predicted.grid != target.grid or predicted.times != target.times:
            raise ValueError("predicted and target snapshots do not match")
        series = l2_error_series(predicted.values, target.values)
        path = out / "error_series.csv"
        _write_csv_pairs(path, enumerate(series))
        wrote.append(path)
    if not wrote:
        raise ValueError("nothing to report: pass --history and/or --predicted/--target")
    for path in wrote:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------- wiring

_COMMANDS = (
    ("datagen", _cmd_datagen, _DATAGEN_OPTS, "generate training/target snapshot files"),
    ("compress", _cmd_compress, _COMPRESS_OPTS, "build a ROM database from a manifest"),
    ("predict", _cmd_predict, _PREDICT_OPTS, "interpolate the field at a new parameter"),
    ("optimize", _cmd_optimize, _OPTIMIZE_OPTS, "search for the parameter matching a target"),
    ("report", _cmd_report, _REPORT_OPTS, "derive CSV summaries from run artifacts"),
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
        sub = subparsers.add_parser(name, help=help_text)
        for opt in opts:
            sub.add_argument(opt.flag, dest=opt.dest, default=None, help=opt.help)
        sub.add_argument("--config", default=None, help="key = value options file")
        sub.set_defaults(_func=func, _opts=opts)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code) if exc.code else 0
    try:
        return args._func(_resolve(args))
    # LinAlgError subclasses ValueError, so it must be caught first
    except (StabilityError, DivergenceError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (
        ValueError,
        FormatError,
        CorruptionError,
        EmptyMaskError,
        PersistenceError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
