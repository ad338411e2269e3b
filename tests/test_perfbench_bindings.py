"""The traced benchmark's bindings into romga, read from perfbench/layers.py.

The traced run wraps romga functions by (owner, attribute) and annotates
their spans from the call's arguments and result. A simplification that
renames a wrapped function, or changes a call those annotations read,
breaks the traced run; these tests catch it without running it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from romga import Chromosome, genetic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def layers():
    # layers.py imports its sibling modules (spans, summary) by bare name
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves(layers):
    for owner, attribute, span, _, _ in layers.TARGETS:
        assert callable(getattr(owner, attribute, None)), (owner, attribute, span)


def test_interp_annotates_a_keyword_gene_call(layers, plume_db):
    args, kwargs = (plume_db, 0.375), dict(ne_x=3, ne_t=2, m=8, rotations={})
    result = genetic.interpolate_reduced(*args, **kwargs)
    attrs: dict = {}
    layers._interp(attrs, args, kwargs, result)
    assert attrs == {"sweeps": 1, "converged": True, "capped": False}


def test_population_counts_the_hits_the_cost_cache_serves(
    layers, plume_db, plume_projection, monkeypatch
):
    scored = []
    real = genetic.interpolate_reduced
    monkeypatch.setattr(
        genetic, "interpolate_reduced", lambda *a, **k: scored.append(1) or real(*a, **k)
    )
    cache: dict = {}
    genetic.evaluate_population(
        [Chromosome(0.37, 3, 3, 8)], plume_db, plume_projection, cache=cache
    )
    population = [Chromosome(0.37, 3, 3, 8), Chromosome(0.44, 2, 4, 6), Chromosome(0.44, 2, 4, 6)]
    counts = layers._population((population, plume_db, plume_projection), {"cache": cache})
    scored.clear()
    genetic.evaluate_population(population, plume_db, plume_projection, cache=cache)
    assert counts == {"evals": 3, "cache_hits": 2}
    assert len(scored) == counts["evals"] - counts["cache_hits"]
