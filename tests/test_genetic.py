"""Genetic operators, the evaluation loop and the search driver."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from romga import (
    Chromosome,
    EmptyMaskError,
    GaConfig,
    GaHistory,
    Grid,
    PersistenceError,
    PlumeParams,
    SnapshotMatrix,
    analytic_plume,
    build_mask,
    compress_ensemble,
    interpolate_reduced,
    project_target,
    read_history_csv,
    reconstruct_field,
    reconstruct_sample,
    reduced_cost,
    run,
)
from romga import barycentric, genetic
from romga.genetic import (
    HISTORY_COLUMNS,
    GenerationRecord,
    crossover,
    evaluate_population,
    init_population,
    mutate,
    roulette_select,
    search_bounds,
    step_generation,
)

from masked_cost import cost

# the gene bounds search_bounds derives from plume_db, in Chromosome order
SPACE = ((0.30, 0.50), (2, 5), (2, 5), (4, 10))


def _inside(c: Chromosome) -> bool:
    return all(lo <= g <= hi for g, (lo, hi) in zip(c, SPACE))


class ScriptedRng:
    """Replays queued outputs; raises when a test consumes more than queued."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self, size=None):
        assert size is None
        return self._randoms.pop(0)

    def integers(self, lo, hi):
        value = self._integers.pop(0)
        assert lo <= value < hi
        return value


# ---------------------------------------------------------------- bounds


def test_search_bounds_come_from_the_database(plume_db, plume_matrices):
    assert search_bounds(plume_db) == SPACE
    # below q = MIN_ORDER the truncation order is pinned at q
    low_order = compress_ensemble(plume_matrices[:2], q=3)
    assert search_bounds(low_order) == ((0.30, 0.35), (2, 2), (2, 2), (3, 3))


def test_search_space_contains_and_clamp():
    assert _inside(Chromosome(0.4, 2, 5, 7))
    assert not _inside(Chromosome(0.29, 2, 5, 7))
    assert not _inside(Chromosome(0.4, 6, 5, 7))
    # a blend coefficient outside [0, 1] puts both deltas outside the hull,
    # and crossover clamps them onto it
    a, b = Chromosome(0.3, 2, 5, 7), Chromosome(0.5, 4, 3, 9)
    children = crossover(a, b, ScriptedRng(randoms=[0.0, 2.0], integers=[1]), SPACE)
    assert children == (Chromosome(0.3, 2, 3, 9), Chromosome(0.5, 4, 5, 7))


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population_size=1)
    with pytest.raises(ValueError, match="generations must be at least 1"):
        GaConfig(generations=-1)
    with pytest.raises(ValueError, match="rng_seed must be nonnegative"):
        GaConfig(rng_seed=-1)


# ---------------------------------------------------------------- init


def test_initial_population_respects_bounds_and_seed():
    pop = init_population(SPACE, 40, np.random.default_rng(9))
    assert len(pop) == 40
    assert all(_inside(c) for c in pop)
    assert pop == init_population(SPACE, 40, np.random.default_rng(9))
    assert pop != init_population(SPACE, 40, np.random.default_rng(10))


# ---------------------------------------------------------------- roulette


def test_roulette_frequencies_follow_fitness():
    rng = np.random.default_rng(42)
    picks = roulette_select(np.array([1.0, 3.0]), 100_000, rng)
    freq = float(picks.mean())  # picks are 0/1, the mean is P(index 1)
    assert abs(freq - 0.75) <= 3.0 * np.sqrt(0.75 * 0.25 / 100_000)


def test_roulette_is_scale_invariant():
    f = np.array([1.0, 3.0, 2.5])
    a = roulette_select(f, 500, np.random.default_rng(11))
    b = roulette_select(2.0 * f, 500, np.random.default_rng(11))
    c = roulette_select(3.7 * f, 500, np.random.default_rng(11))
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_roulette_with_one_candidate_always_picks_it():
    rng = np.random.default_rng(4)
    picks = roulette_select(np.array([2.5]), 5, rng)
    assert picks.tolist() == [0, 0, 0, 0, 0]


def test_roulette_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        roulette_select(np.array([]), 3, rng)
    with pytest.raises(ValueError):
        roulette_select(np.array([1.0, 0.0]), 3, rng)
    with pytest.raises(ValueError):
        roulette_select(np.array([1.0, -2.0]), 3, rng)
    with pytest.raises(ValueError):
        roulette_select(np.array([1.0, np.inf]), 3, rng)


# ---------------------------------------------------------------- operators


def test_crossover_passes_parents_through_above_the_gate():
    a, b = Chromosome(0.35, 2, 3, 5), Chromosome(0.45, 4, 5, 9)
    out_a, out_b = crossover(a, b, ScriptedRng(randoms=[0.9]), SPACE)  # above CROSSOVER_PROB
    assert out_a is a and out_b is b


def test_crossover_blends_delta_and_swaps_integer_tails():
    a, b = Chromosome(0.35, 2, 3, 5), Chromosome(0.45, 4, 5, 9)
    # gate 0.5 passes, beta 0.5 puts both children at the midpoint, cut
    # after gene 1 swaps (ne_x, m)
    out_a, out_b = crossover(a, b, ScriptedRng(randoms=[0.5, 0.5], integers=[1]), SPACE)
    assert out_a == Chromosome(0.40, 2, 5, 9)
    assert out_b == Chromosome(0.40, 4, 3, 5)
    # cut after gene 2 swaps only m
    out_a, out_b = crossover(a, b, ScriptedRng(randoms=[0.5, 0.25], integers=[2]), SPACE)
    assert out_a == Chromosome(0.25 * 0.35 + 0.75 * 0.45, 2, 3, 9)
    assert out_b == Chromosome(0.75 * 0.35 + 0.25 * 0.45, 4, 5, 5)


def test_crossover_children_stay_inside_the_space(rng, monkeypatch):
    monkeypatch.setattr(genetic, "CROSSOVER_PROB", 1.0)
    a, b = Chromosome(0.31, 2, 5, 4), Chromosome(0.49, 5, 2, 10)
    for _ in range(200):
        for child in crossover(a, b, rng, SPACE):
            assert _inside(child)


def test_mutation_gate_and_branches():
    # the gate draw mutates below MUTATION_PROB = 0.1 and passes the child through from it up
    c = Chromosome(0.4, 3, 4, 7)
    assert mutate(c, ScriptedRng(randoms=[0.1]), SPACE) is c
    out = mutate(c, ScriptedRng(randoms=[0.05], integers=[1, 5]), SPACE)
    assert out == Chromosome(0.4, 5, 4, 7)
    out = mutate(c, ScriptedRng(randoms=[0.05], integers=[2, 2]), SPACE)
    assert out == Chromosome(0.4, 3, 2, 7)
    out = mutate(c, ScriptedRng(randoms=[0.05], integers=[3, 10]), SPACE)
    assert out == Chromosome(0.4, 3, 4, 10)


def test_mutation_resamples_one_gene_at_a_time(rng, monkeypatch):
    monkeypatch.setattr(genetic, "MUTATION_PROB", 1.0)
    c = Chromosome(0.4, 3, 4, 7)
    delta_changes = 0
    trials = 20_000
    for _ in range(trials):
        out = mutate(c, rng, SPACE)
        assert _inside(out)
        changed = (
            (out.delta != c.delta)
            + (out.ne_t != c.ne_t)
            + (out.ne_x != c.ne_x)
            + (out.m != c.m)
        )
        assert changed <= 1  # a resample may also land on the old value
        delta_changes += out.delta != c.delta
    # the float gene is picked 1/4 of the time and almost surely moves
    assert abs(delta_changes / trials - 0.25) <= 3.0 * np.sqrt(0.25 * 0.75 / trials)


# ---------------------------------------------------------------- stepping


def test_step_preserves_size_and_elites(rng, monkeypatch):
    monkeypatch.setattr(genetic, "ELITE_COUNT", 2)
    pop = init_population(SPACE, 7, rng)
    costs = np.linspace(1.0, 7.0, 7)
    nxt = step_generation(pop, costs, rng, SPACE)
    assert len(nxt) == 7
    assert nxt[0] is pop[0] and nxt[1] is pop[1]
    assert all(_inside(c) for c in nxt)


def test_step_handles_odd_offspring_counts(rng):
    pop = init_population(SPACE, 6, rng)  # one elite leaves five offspring
    costs = np.arange(1.0, 7.0)
    nxt = step_generation(pop, costs, rng, SPACE)
    assert len(nxt) == 6


def test_an_exact_match_breeds_with_a_finite_dominant_weight(rng, monkeypatch):
    # cost 0 is the guarded pole of the roulette weight 1 / (cost + guard):
    # the weight stays finite and outweighs every other member by ~1e12
    monkeypatch.setattr(genetic, "CROSSOVER_PROB", 0.0)
    monkeypatch.setattr(genetic, "MUTATION_PROB", 0.0)
    pop = init_population(SPACE, 6, rng)
    costs = np.array([3.0, 1.0, 0.0, 2.0, 5.0, 4.0])
    nxt = step_generation(pop, costs, rng, SPACE)
    assert len(nxt) == 6
    assert all(c is pop[2] for c in nxt)


# ---------------------------------------------------------------- operator stream

# Outputs of the operators for fixed seeds, recorded as literals: any change
# in which draws an operator takes, or in their order, changes a search's
# history, and fails here first. Each stream ends with the next draw of its generator, so an
# operator that takes one draw too many or too few fails even when its
# outputs happen to agree.
STREAMS = {
    "free": {
        "init": [
            (0.42501909332093335, 4, 5, 8),
            (0.34504143799811837, 5, 2, 6),
            (0.4747106890792524, 5, 2, 7),
            (0.45941388575040926, 5, 2, 7),
            (0.3606064853638627, 3, 3, 9),
        ],
        "crossover": [
            ((0.4001299847607793, 2, 5, 10), (0.3998700152392207, 5, 2, 4)),
            ((0.4633733047760579, 2, 5, 10), (0.33662669522394206, 5, 2, 4)),
            ((0.31, 2, 5, 4), (0.49, 5, 2, 10)),
            ((0.46664068910812634, 2, 5, 10), (0.33335931089187365, 5, 2, 4)),
        ],
        "crossover_next": 2036519846,
        "mutate": [
            (0.31, 2, 5, 10),
            (0.3699778481191915, 2, 5, 4),
            (0.43408914855455694, 2, 5, 4),
            (0.4716260978167818, 2, 5, 4),
            (0.31, 2, 5, 7),
            (0.31, 2, 4, 4),
            (0.31, 3, 5, 4),
            (0.31, 4, 5, 4),
        ],
        "mutate_next": 1991826948,
        "step": [
            (0.3782456380991324, 5, 4, 6),
            (0.3782456380991324, 5, 4, 6),
            (0.3782456380991324, 5, 4, 6),
            (0.3782456380991324, 5, 4, 8),
            (0.41643240721287356, 5, 2, 4),
            (0.3466029481265324, 2, 4, 6),
        ],
        "step_next": 1143358677,
    },
}


def _genes(c):
    return (c.delta, c.ne_t, c.ne_x, c.m)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_operator_stream_is_pinned(name, monkeypatch):
    want = STREAMS[name]
    a, b = Chromosome(0.31, 2, 5, 4), Chromosome(0.49, 5, 2, 10)

    pop = init_population(SPACE, 5, np.random.default_rng(7))
    assert [_genes(c) for c in pop] == want["init"]

    rng = np.random.default_rng(11)
    pairs = [crossover(a, b, rng, SPACE) for _ in range(4)]
    assert [(_genes(x), _genes(y)) for x, y in pairs] == want["crossover"]
    assert int(rng.integers(0, 2**31)) == want["crossover_next"]

    rng = np.random.default_rng(12)
    with monkeypatch.context() as patch:
        patch.setattr(genetic, "MUTATION_PROB", 0.5)  # half the children mutate
        assert [_genes(mutate(a, rng, SPACE)) for _ in range(8)] == want["mutate"]
    assert int(rng.integers(0, 2**31)) == want["mutate_next"]

    costs = np.array([0.5, 0.25, 2.0, 1.0, 0.125, 4.0])
    rng = np.random.default_rng(13)
    nxt = step_generation(init_population(SPACE, 6, np.random.default_rng(3)), costs, rng, SPACE)
    assert [_genes(c) for c in nxt] == want["step"]
    assert int(rng.integers(0, 2**31)) == want["step_next"]


# ---------------------------------------------------------------- evaluation


def _masked_cost(field: np.ndarray, target: SnapshotMatrix, rows: np.ndarray) -> float:
    """The masked cost of ``field`` over ``rows``, each cell weighted by its area."""
    weights = np.full(rows.size, target.grid.cell_area)
    return cost(field[rows], target.values[rows], weights)


def test_node_chromosome_scores_like_the_trained_sample(
    plume_db, plume_target, plume_rows, plume_projection
):
    # delta 0.35 is training sample 1; at full order the prediction is the
    # sample itself, so the cost must agree with scoring it directly.
    costs = evaluate_population([Chromosome(0.35, 2, 2, 10)], plume_db, plume_projection)
    sample = reconstruct_sample(plume_db, 1, m=10)
    direct = _masked_cost(sample.values, plume_target, plume_rows)
    assert costs[0] == pytest.approx(direct, rel=1e-8)


def test_identical_chromosomes_score_identically(plume_db, plume_projection):
    twins = [Chromosome(0.37, 3, 3, 8)] * 3
    costs = evaluate_population(twins, plume_db, plume_projection)
    assert costs[0] == costs[1] == costs[2]


def test_evaluation_cache_short_circuits(plume_db, plume_projection):
    pop = [Chromosome(0.37, 3, 3, 8), Chromosome(0.44, 2, 4, 6)]
    cache: dict = {}
    costs = evaluate_population(pop, plume_db, plume_projection, cache)
    assert len(cache) == 2
    poisoned = {key: 123.5 for key in cache}
    again = evaluate_population(pop, plume_db, plume_projection, poisoned)
    assert again.tolist() == [123.5, 123.5]  # proves values came from the cache
    fresh = evaluate_population(pop, plume_db, plume_projection, {})
    assert np.array_equal(fresh, costs)


def test_shared_rotations_change_no_cost(
    plume_db, plume_target, plume_rows, plume_projection, monkeypatch
):
    populations = []
    real = genetic.evaluate_population

    def record(population, *args, **kwargs):
        populations.append(list(population))
        return real(population, *args, **kwargs)

    monkeypatch.setattr(genetic, "evaluate_population", record)
    cfg = GaConfig(population_size=10, generations=6, rng_seed=3)
    run(cfg, plume_db, plume_target, plume_rows)
    aligned: dict = {}
    for population in populations:
        alone = real(population, plume_db, plume_projection)
        shared = real(population, plume_db, plume_projection, aligned=aligned)
        assert np.array_equal(shared, alone)


def _windows(db, delta, ne_x, ne_t, m):
    """((side, nearest, m), neighbors) per factor a query sums, neighbors the ne nearest, sorted."""
    # nearest by float64 distance first, ties to the smaller value
    order = np.lexsort((db.params, np.abs(db.params - delta)))
    j = int(order[0])
    sides = (("x", ne_x), ("t", ne_t))
    return [((side, j, m), tuple(sorted(order[:ne].tolist()))) for side, ne in sides]


def test_run_computes_each_rotation_once(plume_db, plume_target, plume_rows, monkeypatch):
    rotated = []  # per Procrustes call, the number of blocks it rotates
    real_align = barycentric.procrustes_align

    def align(reference, blocks):
        # the nearest block is the frame: it is summed as it is, never aligned
        assert not any(np.array_equal(block, reference) for block in blocks)
        rotated.append(blocks.shape[0])
        return real_align(reference, blocks)

    monkeypatch.setattr(barycentric, "procrustes_align", align)
    seen = []
    real_interp = genetic.interpolate_reduced

    def interp(db, delta, *, aligned=None, **genes):
        seen.append(((delta, genes), aligned))
        return real_interp(db, delta, **genes, aligned=aligned)

    monkeypatch.setattr(genetic, "interpolate_reduced", interp)
    cfg = GaConfig(population_size=10, generations=6, rng_seed=3)
    # the second search rotates what the first did again: it starts empty
    for _ in range(2):
        seen.clear()
        rotated.clear()
        run(cfg, plume_db, plume_target, plume_rows)
        (aligned,) = {id(d): d for _, d in seen}.values()  # one dict serves the search
        windows = [w for (delta, genes), _ in seen for w in _windows(plume_db, delta, **genes)]
        assert set(aligned) == {key for key, _ in windows}
        # each factor query rotates the neighbors no earlier query rotated,
        # in one batched call, so each (side, nearest, neighbor, m) turns once
        turns: set = set()
        expected = []
        for key, neighbors in windows:
            new = {(key, k) for k in neighbors if k != key[1]} - turns
            turns |= new
            expected += [len(new)] if new else []
        assert rotated == expected
        assert {key: filled for key, (_, filled) in aligned.items()} == {
            key: {key[1]} | {k for other, k in turns if other == key} for key in aligned
        }
        # some queries were served whole, and windows share their rotations
        assert len(rotated) < len(windows)
        assert len(turns) < sum(len(neighbors) - 1 for _, neighbors in set(windows))


def test_rejected_requests_raise_and_name_the_gene(plume_db, plume_projection):
    # run breeds chromosomes inside the bounds it derives from the database,
    # so a request the database rejects is an error, not a poor score
    for bad, named in (
        (Chromosome(0.4, 9, 3, 8), r"\bne_t\b"),       # beyond the sample count
        (Chromosome(0.4, 3, 1, 8), r"\bne_x\b"),       # too few to interpolate
        (Chromosome(0.4, 3, 3, 11), r"\bm\b"),         # beyond the order q
        (Chromosome(0.6, 3, 3, 8), r"query 0\.6 outside the training hull"),
    ):
        cache: dict = {}
        population = [Chromosome(0.4, 3, 3, 8), bad]
        with pytest.raises(ValueError, match=named):
            evaluate_population(population, plume_db, plume_projection, cache)
        assert len(cache) == 1, named


def test_cost_landscape_bottoms_out_at_the_true_parameter(plume_db, plume_projection):
    deltas = np.linspace(0.30, 0.50, 21)
    pop = [Chromosome(d, 3, 3, 10) for d in deltas]
    costs = evaluate_population(pop, plume_db, plume_projection)
    at_truth = costs[10]  # deltas[10] == 0.40
    assert deltas[10] == pytest.approx(0.40, abs=1e-12)
    others = [c for i, c in enumerate(costs) if abs(deltas[i] - 0.40) >= 0.0099]
    assert at_truth < min(others)


def _lifted_cost(db, c: Chromosome, target: SnapshotMatrix, rows: np.ndarray) -> float:
    """The masked cost of a chromosome's prediction, lifted onto the mask."""
    result = interpolate_reduced(db, c.delta, ne_x=c.ne_x, ne_t=c.ne_t, m=c.m)
    lifted = reconstruct_field(db, result.spatial_factor, result.temporal_factor)
    return _masked_cost(lifted, target, rows)


# the default window has more cells than r = 50 basis columns, the small one
# fewer, so both shapes of the reduced QR are scored
@pytest.mark.parametrize("rect", [(0.1, 0.9, 0.15, 0.7), (0.45, 0.55, 0.45, 0.55)])
def test_reduced_cost_matches_the_lifted_cost(plume_db, plume_grid, plume_times, rect, rng):
    rows = build_mask(plume_grid, rect)
    truth = analytic_plume(PlumeParams(0.4, sigma=0.3), plume_grid, plume_times)
    # A smooth plume lies in the span of the bases to ~1e-13 of its cost, so
    # noise supplies the part of the target the residual term must carry.
    values = np.array(truth.values)
    values[rows] += 0.01 * rng.standard_normal((rows.size, plume_times.n_steps))
    target = SnapshotMatrix(plume_grid, plume_times, truth.param_kind, truth.param_value, values)
    projection = project_target(plume_db, target, rows)
    # m from 1, below a search's floor of 4, so the population holds more orders
    population = init_population(((0.30, 0.50), (2, 5), (2, 5), (1, 10)), 30, rng)
    assert len({c.m for c in population}) > 5
    costs = evaluate_population(population, plume_db, projection)
    assert np.all(projection.residual / plume_times.n_steps > 1e-6 * costs)
    for c, value in zip(population, costs):
        assert value == pytest.approx(_lifted_cost(plume_db, c, target, rows), rel=1e-10)


def test_reduced_cost_rejects_mismatched_factors(plume_projection):
    r, s = plume_projection.factor.shape[1], plume_projection.projected.shape[1]
    spatial, temporal = np.zeros((r, 4)), np.zeros((s, 4))
    assert reduced_cost(spatial, temporal, plume_projection) > 0.0
    for bad in ((spatial[:r - 1], temporal), (spatial, temporal[:1]), (spatial, temporal[:, :3])):
        with pytest.raises(ValueError):
            reduced_cost(*bad, plume_projection)


def test_history_costs_are_the_lifted_costs_of_the_leaders(plume_db, plume_target, plume_rows):
    cfg = GaConfig(population_size=8, generations=4, rng_seed=7)
    history = run(cfg, plume_db, plume_target, plume_rows)
    for rec in history.records:
        lifted = _lifted_cost(plume_db, rec.best, plume_target, plume_rows)
        assert rec.best_cost == pytest.approx(lifted, rel=1e-10)


def test_projection_rejects_what_it_cannot_score(plume_db, plume_target, plume_rows, plume_times):
    stretched = plume_db.temporal_basis * (1.0 + 1e-9)
    skewed = dataclasses.replace(plume_db, temporal_basis=stretched)
    with pytest.raises(ValueError, match="orthonormal"):
        project_target(skewed, plume_target, plume_rows)
    cfg = GaConfig(population_size=4, generations=1)
    with pytest.raises(ValueError, match="orthonormal"):
        run(cfg, skewed, plume_target, plume_rows)
    wider_grid = Grid(50, 50, 1.04, 1.04)
    wider = build_mask(wider_grid, (0.1, 0.9, 0.15, 0.7))
    with pytest.raises(ValueError, match="out of range"):
        project_target(plume_db, plume_target, wider)
    off_grid = analytic_plume(PlumeParams(0.4, sigma=0.3), wider_grid, plume_times)
    with pytest.raises(ValueError, match="grid/time axis does not match"):
        project_target(plume_db, off_grid, plume_rows)
    # a basis holding a NaN is refused when the database is built; a finite
    # target whose squares overflow is refused by the projection, with no
    # numpy warning on the way
    broken = np.array(plume_db.spatial_basis)
    broken[plume_rows[0], 0] = np.nan
    with pytest.raises(ValueError, match="spatial_basis holds a non-finite value"):
        dataclasses.replace(plume_db, spatial_basis=broken)
    huge = dataclasses.replace(plume_target, values=plume_target.values * 1e300)
    with pytest.raises(np.linalg.LinAlgError, match="target projection is not finite"):
        project_target(plume_db, huge, plume_rows)
    # rows build_mask cannot return: none would make every prediction cost
    # the same, a repeated row would count its cell twice
    empty = np.array([], dtype=np.int64)
    with pytest.raises(EmptyMaskError):
        project_target(plume_db, plume_target, empty)
    with pytest.raises(EmptyMaskError):
        run(cfg, plume_db, plume_target, empty)
    for bad, message in (
        (plume_rows.astype(float), "1D integer"),
        (plume_rows[None, :], "1D integer"),
        (plume_rows > 0, "1D integer"),
        (np.repeat(plume_rows, 2), "strictly increasing"),
        (plume_rows[::-1], "strictly increasing"),
    ):
        with pytest.raises(ValueError, match=message):
            project_target(plume_db, plume_target, bad)


# ---------------------------------------------------------------- the driver


def test_run_validates_against_the_database(plume_matrices, plume_target, plume_rows):
    # one sample leaves no neighbor count to search, whatever the config
    one_sample = compress_ensemble(plume_matrices[:1], q=3)
    with pytest.raises(ValueError, match="a search needs at least two training samples"):
        run(GaConfig(), one_sample, plume_target, plume_rows)


def test_run_recovers_the_generating_parameter(plume_db, plume_target, plume_rows):
    cfg = GaConfig(population_size=12, generations=8, rng_seed=5)
    history = run(cfg, plume_db, plume_target, plume_rows)
    best = min(history.records, key=lambda rec: rec.best_cost).best
    assert abs(best.delta - 0.40) <= 0.02
    assert len(history) == 8
    assert [r.generation for r in history.records] == list(range(1, 9))


def test_run_is_deterministic(plume_db, plume_target, plume_rows):
    cfg = GaConfig(population_size=8, generations=4, rng_seed=21)
    hist_a = run(cfg, plume_db, plume_target, plume_rows)
    hist_b = run(cfg, plume_db, plume_target, plume_rows)
    assert hist_a.records == hist_b.records


def test_run_with_elitism_never_backslides(plume_db, plume_target, plume_rows):
    cfg = GaConfig(population_size=10, generations=6, rng_seed=3)
    history = run(cfg, plume_db, plume_target, plume_rows)
    series = [r.best_cost for r in history.records]
    assert all(b <= a for a, b in zip(series, series[1:]))
    assert min(series) == series[-1]


def test_run_with_one_generation_scores_the_initial_population(
    plume_db, plume_target, plume_rows
):
    cfg = GaConfig(population_size=6, generations=1, rng_seed=1)
    history = run(cfg, plume_db, plume_target, plume_rows)
    assert len(history) == 1
    assert history.records[0].generation == 1
    assert _inside(history.records[0].best)
    # zero generations would score nothing, so it is refused, not run as one
    with pytest.raises(ValueError, match="generations must be at least 1"):
        GaConfig(population_size=6, generations=0, rng_seed=1)


# ---------------------------------------------------------------- history


def _history():
    records = (
        GenerationRecord(1, Chromosome(0.4, 3, 2, 5), 0.25, 1.5),
        GenerationRecord(2, Chromosome(0.41, 2, 2, 6), 0.125, 0.75),
    )
    return GaHistory(records)


def test_history_round_trips_through_csv(tmp_path):
    path = tmp_path / "history.csv"
    history = _history()
    history.write_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    assert lines[1] == "1,0.4,3,2,5,0.25,1.5"
    back = read_history_csv(path)
    for orig, rec in zip(history.records, back.records):
        assert (rec.generation, rec.best, rec.best_cost, rec.avg_cost) == (
            orig.generation,
            orig.best,
            orig.best_cost,
            orig.avg_cost,
        )


def test_history_rewrites_are_byte_identical(tmp_path):
    history = _history()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    history.write_csv(a)
    history.write_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_history_reader_rejects_foreign_files(tmp_path):
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("alpha,beta\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_history_csv(wrong)
    # Python 3.10's csv module raises on a NUL byte; later ones read it as text
    nul = tmp_path / "nul.csv"
    nul.write_text("gener\0ation" + ",".join(HISTORY_COLUMNS)[10:] + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"nul\.csv: not a search history file"):
        read_history_csv(nul)
    short_row = tmp_path / "short.csv"
    short_row.write_text(",".join(HISTORY_COLUMNS) + "\n1,0.4,3\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_history_csv(short_row)
    garbled = tmp_path / "garbled.csv"
    garbled.write_text(
        ",".join(HISTORY_COLUMNS) + "\n1,zero point four,3,2,5,0.25,1.5\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError):
        read_history_csv(garbled)
    with pytest.raises(PersistenceError):
        read_history_csv(tmp_path / "absent.csv")
    # write_csv records at least one generation, so a bare header is foreign
    header_only = tmp_path / "header_only.csv"
    header_only.write_text(",".join(HISTORY_COLUMNS) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"header_only\.csv: history holds no records"):
        read_history_csv(header_only)
    # a NaN best_delta, then an infinite avg_cost, on the second record
    for row in ("2,nan,3,2,5,0.25,1.5", "2,0.4,3,2,5,0.25,inf"):
        non_finite = tmp_path / "non_finite.csv"
        text = ",".join(HISTORY_COLUMNS) + "\n1,0.4,3,2,5,0.25,1.5\n" + row + "\n"
        non_finite.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=r"non_finite\.csv: .*line 3 holds a non-finite value"):
            read_history_csv(non_finite)
    with pytest.raises(PersistenceError):
        _history().write_csv(tmp_path / "no_dir" / "history.csv")
