"""The romga functions the traced run wraps, and the per-layer metrics of their spans.

Layers are the modules of ``src/romga``: surrogate, dataset, pod,
barycentric, objective, genetic and cli (``errors`` does no work). A span is
named ``<layer>.<function>`` after the module that does the work; ``via`` in
its attributes names the module whose attribute was wrapped, i.e. the caller.
The cli layer's spans are the benchmark's own calls into ``romga.cli.main``.
"""

from __future__ import annotations

import os

from romga import barycentric, cli, genetic, pod

from spans import self_times
from summary import percentile, tail_per_mille


def _file_size(path_index: int):
    def annotate(attrs, args, kwargs, result):
        attrs["bytes"] = os.path.getsize(args[path_index])

    return annotate


def _interp(attrs, args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs.get("config", barycentric.FixedPointConfig())
    attrs["sweeps"] = result.iterations
    attrs["converged"] = result.converged
    attrs["capped"] = (not result.converged) and result.iterations == config.max_iters


def _lift(attrs, args, kwargs, result):
    # spatial[rows] @ reduced @ temporal[cols].T, evaluated left to right.
    db = args[0]
    rows, cols = result.shape
    attrs["flop"] = 2 * rows * db.r * db.s + 2 * rows * db.s * cols


def _population(args, kwargs):
    """Evaluations and cache hits of one evaluate_population call.

    Counted from the arguments before the call: a chromosome is served from
    the cache when its key is already there or appeared earlier in the same
    population (the first occurrence fills the cache).
    """
    population, cache = args[0], (args[4] if len(args) > 4 else kwargs.get("cache"))
    hits = 0
    if cache is not None:
        seen = set(cache)
        for c in population:
            key = (c.delta, c.ne_t, c.ne_x, c.m)
            hits += key in seen
            seen.add(key)
    return {"evals": len(population), "cache_hits": hits}


# (owner, attribute, span name, annotate, prepare)
TARGETS = (
    (cli, "solve_cavity", "surrogate.solve_cavity", None, None),
    (cli, "analytic_plume", "surrogate.analytic_plume", None, None),
    (cli, "read_snapshots", "dataset.read_snapshots", _file_size(0), None),
    (cli, "write_snapshots", "dataset.write_snapshots", _file_size(1), None),
    (cli, "build_mask", "dataset.build_mask", None, None),
    (cli, "compress_ensemble", "pod.compress_ensemble", None, None),
    (pod, "pod_factorize", "pod.pod_factorize", None, None),
    (pod, "two_level_compress", "pod.two_level_compress", None, None),
    (cli, "read_rom", "pod.read_rom", _file_size(0), None),
    (cli, "write_rom", "pod.write_rom", _file_size(1), None),
    (cli, "interpolate_reduced", "barycentric.interpolate_reduced", _interp, None),
    (genetic, "interpolate_reduced", "barycentric.interpolate_reduced", _interp, None),
    (barycentric, "procrustes_align", "barycentric.procrustes_align", None, None),
    (cli, "reconstruct_field", "barycentric.reconstruct_field", _lift, None),
    (genetic, "reconstruct_field", "barycentric.reconstruct_field", _lift, None),
    (genetic, "cost_of", "objective.cost", None, None),
    (cli, "l2_error_series", "objective.l2_error_series", None, None),
    (genetic, "run", "genetic.run", None, None),
    (genetic, "evaluate_population", "genetic.evaluate_population", None, _population),
    (genetic.GaHistory, "write_csv", "genetic.write_csv", None, None),
)

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
UNITS = {
    "surrogate.solves": "count",
    "surrogate.solve_s": "s",
    "dataset.snp_read_s": "s",
    "dataset.snp_write_s": "s",
    "dataset.snp_bytes": "bytes",
    "pod.factorize_s": "s",
    "pod.level2_s": "s",
    "pod.rom_write_s": "s",
    "pod.rom_read_s": "s",
    "pod.rom_bytes": "bytes",
    "barycentric.interp_calls": "count",
    "barycentric.interp_s": "s",
    "barycentric.interp_ms.p50": "ms",
    "barycentric.interp_ms.p90": "ms",
    "barycentric.sweeps": "count",
    "barycentric.converged_frac": "ratio",
    "barycentric.capped": "count",
    "barycentric.capped_time_frac": "ratio",
    "barycentric.procrustes_calls": "count",
    "barycentric.procrustes_s": "s",
    "barycentric.lift_calls": "count",
    "barycentric.lift_s": "s",
    "barycentric.lift_mflop": "Mflop-computed",
    "objective.cost_calls": "count",
    "objective.cost_s": "s",
    "objective.l2_series_s": "s",
    "genetic.evals": "count",
    "genetic.scored": "count",
    "genetic.cache_hits": "count",
    "genetic.cache_hit_frac": "ratio",
    "genetic.penalized": "count",
    "genetic.self_s": "s",
    "cli.self_s": "s",
    "trace.identify_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def layer_metrics(spans) -> dict[str, tuple[float, int]]:
    """(value, spans it is computed from) of every per-layer metric but trace.*."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in calls(name)), len(calls(name))

    def count(name):
        return len(calls(name)), len(calls(name))

    def attr_sum(names, key, scale=1.0):
        chosen = [s for name in names for s in calls(name)]
        return sum(s.attrs.get(key, 0) for s in chosen) / scale, len(chosen)

    def layer_self(layer):
        owned = [own for span, own in zip(spans, selfs) if span.layer == layer]
        return sum(owned), len(owned)

    interp = calls("barycentric.interpolate_reduced")
    if tail_per_mille(len(interp)) is None:
        raise ValueError(f"{len(interp)} interpolation spans cannot support a p90")
    interp_ms = [1000.0 * s.duration for s in interp]
    returned = [s for s in interp if "raised" not in s.attrs]
    capped = [s for s in returned if s.attrs["capped"]]
    populations = calls("genetic.evaluate_population")
    evals = sum(s.attrs["evals"] for s in populations)
    hits = sum(s.attrs["cache_hits"] for s in populations)
    scored = [s for s in calls("objective.cost") if s.attrs["via"] == "romga.genetic"]
    ga_steps = [
        s
        for name in ("barycentric.interpolate_reduced", "barycentric.reconstruct_field", "objective.cost")
        for s in calls(name)
        if s.attrs["via"] == "romga.genetic"
    ]
    penalized = sum("raised" in s.attrs for s in ga_steps)
    return {
        "surrogate.solves": count("surrogate.solve_cavity"),
        # cavity solves and closed-form plumes together: a time that is zero on
        # every run of a workload would read the same on every run
        "surrogate.solve_s": tuple(
            a + b for a, b in zip(total("surrogate.solve_cavity"), total("surrogate.analytic_plume"))
        ),
        "dataset.snp_read_s": total("dataset.read_snapshots"),
        "dataset.snp_write_s": total("dataset.write_snapshots"),
        "dataset.snp_bytes": attr_sum(("dataset.read_snapshots", "dataset.write_snapshots"), "bytes"),
        "pod.factorize_s": total("pod.pod_factorize"),
        "pod.level2_s": total("pod.two_level_compress"),
        "pod.rom_write_s": total("pod.write_rom"),
        "pod.rom_read_s": total("pod.read_rom"),
        "pod.rom_bytes": attr_sum(("pod.read_rom", "pod.write_rom"), "bytes"),
        "barycentric.interp_calls": count("barycentric.interpolate_reduced"),
        "barycentric.interp_s": total("barycentric.interpolate_reduced"),
        "barycentric.interp_ms.p50": (percentile(interp_ms, 500), len(interp)),
        "barycentric.interp_ms.p90": (percentile(interp_ms, 900), len(interp)),
        "barycentric.sweeps": (sum(s.attrs["sweeps"] for s in returned), len(returned)),
        "barycentric.converged_frac": (
            sum(s.attrs["converged"] for s in returned) / len(returned), len(returned)
        ),
        "barycentric.capped": (len(capped), len(returned)),
        # a share, not seconds: no plume query may hit the cap, and a time that
        # is zero on every run of a workload would read the same on every run
        "barycentric.capped_time_frac": (
            sum(s.duration for s in capped) / sum(s.duration for s in returned), len(capped)
        ),
        "barycentric.procrustes_calls": count("barycentric.procrustes_align"),
        "barycentric.procrustes_s": total("barycentric.procrustes_align"),
        "barycentric.lift_calls": count("barycentric.reconstruct_field"),
        "barycentric.lift_s": total("barycentric.reconstruct_field"),
        "barycentric.lift_mflop": attr_sum(("barycentric.reconstruct_field",), "flop", 1.0e6),
        "objective.cost_calls": count("objective.cost"),
        "objective.cost_s": total("objective.cost"),
        "objective.l2_series_s": total("objective.l2_error_series"),
        "genetic.evals": (evals, len(populations)),
        "genetic.scored": (sum("raised" not in s.attrs for s in scored), len(scored)),
        "genetic.cache_hits": (hits, len(populations)),
        "genetic.cache_hit_frac": (hits / evals if evals else 0.0, evals),
        "genetic.penalized": (penalized, len(ga_steps)),
        "genetic.self_s": layer_self("genetic"),
        "cli.self_s": layer_self("cli"),
    }
