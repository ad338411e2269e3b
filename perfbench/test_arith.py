"""Self-tests of the benchmark's own arithmetic, on synthetic spans, and of
its registration in BENCHMARK.json.

    python3 -m pytest perfbench/test_arith.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402
from summary import percentile, tail_per_mille  # noqa: E402
from workloads import END_TO_END_UNITS, WORKLOADS, _optimize_self_times_add_up  # noqa: E402


def _random_tree(rng: random.Random, n: int) -> list[Span]:
    """Spans whose children may overlap each other and overrun their parent."""
    spans = [Span("cli.optimize", 0.0, 10.0, None, "r")]
    for _ in range(n):
        parent = rng.randrange(len(spans))
        p = spans[parent]
        start = rng.uniform(p.start - 1.0, p.end)
        spans.append(Span("genetic.run", start, start + rng.uniform(0.0, 4.0), parent, "r"))
    return spans


def test_self_times_are_never_negative():
    rng = random.Random(7)
    for _ in range(200):
        spans = _random_tree(rng, rng.randrange(1, 30))
        assert min(self_times(spans)) >= 0.0


def test_self_times_subtract_merged_children():
    spans = [
        Span("cli.predict", 0.0, 10.0, None, "q"),
        Span("pod.read_rom", 1.0, 4.0, 0, "q"),
        Span("dataset.read_snapshots", 3.0, 5.0, 0, "q"),   # overlaps the first child
        Span("barycentric.interpolate_reduced", 9.0, 12.0, 0, "q"),  # overruns the parent
    ]
    assert self_times(spans)[0] == 10.0 - 4.0 - 1.0


def test_self_times_of_a_nested_call_sum_to_its_duration():
    tracer = Tracer(clock=iter(float(t) for t in range(100)).__next__)
    inner = tracer.span("barycentric.procrustes_align", lambda: None)
    middle = tracer.span("barycentric.interpolate_reduced", lambda: (inner(), inner()))
    outer = tracer.span("cli.optimize", lambda: (middle(), inner()))
    outer()
    assert sum(self_times(tracer.spans)) == tracer.spans[0].duration
    assert _optimize_self_times_add_up(tracer.spans)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_per_mille(99) is None
    assert tail_per_mille(100) == 900
    assert tail_per_mille(999) == 900
    assert tail_per_mille(1000) == 990
    assert tail_per_mille(10000) == 999
    for n in (100, 137, 1000, 2500):
        values = list(range(n))
        cut = percentile(values, tail_per_mille(n))
        assert sum(v > cut for v in values) >= 10


def test_percentile_matches_linear_interpolation():
    assert percentile([1.0, 2.0, 3.0, 4.0], 500) == 2.5
    assert percentile(range(101), 900) == 90.0


def _ga_spans(rng: random.Random) -> list[Span]:
    """One synthetic optimize: populations of 20, some cached, some penalized."""
    spans = [Span("cli.optimize", 0.0, 1000.0, None, "t"),
             Span("genetic.run", 1.0, 999.0, 0, "t", {"via": "romga.genetic"})]
    clock = 2.0
    for _ in range(8):
        hits = rng.randrange(0, 6)
        pop = len(spans)
        spans.append(Span("genetic.evaluate_population", clock, clock + 100.0, 1, "t",
                          {"via": "romga.genetic", "evals": 20, "cache_hits": hits}))
        for _ in range(20 - hits):
            clock += 1.0
            raised = rng.random() < 0.1
            attrs = {"via": "romga.genetic"}
            if raised:
                attrs["raised"] = "ValueError"
            else:
                attrs.update(sweeps=rng.randrange(2, 101), converged=True, capped=False)
            spans.append(Span("barycentric.interpolate_reduced", clock, clock + 0.5, pop, "t", attrs))
            if not raised:
                spans.append(Span("barycentric.reconstruct_field", clock + 0.5, clock + 0.7, pop, "t",
                                  {"via": "romga.genetic", "flop": 10}))
                spans.append(Span("objective.cost", clock + 0.7, clock + 0.9, pop, "t",
                                  {"via": "romga.genetic"}))
        clock += 20.0
    return spans


def test_evaluation_counts_add_up():
    rng = random.Random(11)
    for _ in range(20):
        spans = _ga_spans(rng)
        metrics = {name: value for name, (value, _) in layers.layer_metrics(spans).items()}
        assert (
            metrics["genetic.scored"] + metrics["genetic.cache_hits"] + metrics["genetic.penalized"]
            == metrics["genetic.evals"]
        )
        interp = sum(s.name == "barycentric.interpolate_reduced" for s in spans)
        assert metrics["barycentric.interp_calls"] == interp
        assert metrics["genetic.evals"] == 8 * 20


def test_registered_names_match_what_the_runs_report():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
