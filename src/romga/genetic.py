"""Genetic search for the parameter whose prediction matches a target.

A chromosome carries the physical parameter (a float gene) together with
three integer genes steering the predictor itself: the two neighbor counts
of the barycentric interpolation and the block truncation order. The search
therefore tunes what it predicts and how it predicts at the same time.

All randomness flows through one numpy Generator seeded from the config, and
evaluation consumes none of it, so runs with equal seeds reproduce their
history bit for bit and evaluations could be farmed out without changing the
outcome.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .barycentric import interpolate_reduced
from .dataset import SnapshotMatrix, _write_csv
from .errors import PersistenceError
from .objective import ProjectedTarget, project_target, reduced_cost as cost_of
from .pod import (
    RomDatabase,
    reconstruct_field,  # noqa: F401  unused here; perfbench/layers.py traces it by this name
)

# Additive guard in the roulette weight 1 / (cost + guard) keeps a perfect match finite.
FITNESS_GUARD = 1.0e-12
# Operator rates: the chance a pair crosses over, the chance a child mutates,
# and how many of the best members pass to the next generation unchanged.
CROSSOVER_PROB = 0.8
MUTATION_PROB = 0.1
ELITE_COUNT = 1
# The lowest truncation order a search tries, or q when q is lower.
MIN_ORDER = 4

HISTORY_COLUMNS = (
    "generation",
    "best_delta",
    "best_ne_t",
    "best_ne_x",
    "best_m",
    "best_cost",
    "avg_cost",
)


class Chromosome(NamedTuple):
    """The four genes, in history-column order; producers hand in Python floats and ints."""

    delta: float
    ne_t: int
    ne_x: int
    m: int


def search_bounds(db: RomDatabase) -> tuple:
    """Inclusive (lo, hi) of every gene, in Chromosome order, as ``db`` allows them.

    delta spans the training hull, ne_t and ne_x run from 2 to the sample
    count, and m from MIN_ORDER (or q, when q is lower) to q.
    """
    if db.n_params < 2:
        raise ValueError("a search needs at least two training samples")
    ne = (2, db.n_params)
    return (db.hull, ne, ne, (min(MIN_ORDER, db.q), db.q))


def _draw(bounds, gene: int, rng: np.random.Generator) -> float | int:
    """Uniform draw of the gene at index ``gene`` inside its bounds."""
    lo, hi = bounds[gene]
    if gene == 0:
        return float(rng.uniform(lo, hi))
    return int(rng.integers(lo, hi + 1))


@dataclass(frozen=True)
class GaConfig:
    """The settings a caller chooses; the gene bounds come from the database searched."""

    population_size: int = 20
    generations: int = 30
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be nonnegative")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best: Chromosome
    best_cost: float
    avg_cost: float


@dataclass(frozen=True)
class GaHistory:
    records: tuple

    def write_csv(self, path) -> None:
        rows = (
            (
                rec.generation,
                repr(float(rec.best.delta)),
                rec.best.ne_t,
                rec.best.ne_x,
                rec.best.m,
                repr(float(rec.best_cost)),
                repr(float(rec.avg_cost)),
            )
            for rec in self.records
        )
        _write_csv(path, [HISTORY_COLUMNS, *rows], "history")


def init_population(bounds, size: int, rng: np.random.Generator) -> list[Chromosome]:
    """``size`` chromosomes drawn uniformly inside ``bounds``."""
    return [
        Chromosome._make(_draw(bounds, gene, rng) for gene in range(len(Chromosome._fields)))
        for _ in range(size)
    ]


def evaluate_population(
    population,
    db: RomDatabase,
    projection: ProjectedTarget,
    cache: dict | None = None,
    aligned: dict | None = None,
) -> np.ndarray:
    """Cost per chromosome.

    Each chromosome is scored in the reduced space against ``projection``,
    the target as project_target prepared it for ``db``. A request the
    database rejects raises ValueError naming the offending gene; run
    breeds every chromosome inside the bounds search_bounds derives from
    the database, so none of its requests is rejected. Identical
    chromosomes always score identically, so ``cache`` maps each chromosome
    scored so far to its cost and a repeat, within the population or across
    generations, is served from it; None starts an empty one. ``aligned``
    is handed to interpolate_reduced, so a neighbor block aligned for one
    chromosome serves every later one on the same database with its nearest
    sample and m.
    """
    cache = {} if cache is None else cache
    costs = np.empty(len(population))
    for i, c in enumerate(population):
        if c not in cache:
            result = interpolate_reduced(
                db, c.delta, ne_x=c.ne_x, ne_t=c.ne_t, m=c.m, aligned=aligned
            )
            cache[c] = cost_of(result.spatial_factor, result.temporal_factor, projection)
        costs[i] = cache[c]
    return costs


def roulette_select(fitnesses: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` indices drawn with probability proportional to fitness."""
    fitnesses = np.asarray(fitnesses, dtype=np.float64)
    if fitnesses.ndim != 1 or fitnesses.size == 0:
        raise ValueError("fitnesses must be a nonempty 1D array")
    if np.any(fitnesses <= 0.0) or not np.isfinite(fitnesses).all():
        raise ValueError("all fitness values must be positive and finite")
    cumulative = np.cumsum(fitnesses / fitnesses.sum())
    draws = rng.random(count)
    return np.minimum(
        np.searchsorted(cumulative, draws, side="right"), fitnesses.size - 1
    )


def crossover(
    parent_a: Chromosome, parent_b: Chromosome, rng: np.random.Generator, bounds
) -> tuple[Chromosome, Chromosome]:
    """Blend-and-exchange crossover.

    With probability 1 - CROSSOVER_PROB the parents pass through unchanged.
    Otherwise the float gene is blended arithmetically with a uniform
    coefficient (children stay inside the parents' span) and the integer
    genes (ne_t, ne_x, m) swap their tails at a uniformly chosen boundary.
    The integer genes come from parents inside ``bounds``; only a blended
    delta can round past its bounds, so it alone is clamped.
    """
    if rng.random() > CROSSOVER_PROB:
        return parent_a, parent_b
    beta = rng.random()
    lo, hi = bounds[0]
    delta_a = min(max(beta * parent_a.delta + (1.0 - beta) * parent_b.delta, lo), hi)
    delta_b = min(max((1.0 - beta) * parent_a.delta + beta * parent_b.delta, lo), hi)
    cut = 1 + int(rng.integers(1, 3))  # tails start at ne_x or at m
    child_a = Chromosome(delta_a, *parent_a[1:cut], *parent_b[cut:])
    child_b = Chromosome(delta_b, *parent_b[1:cut], *parent_a[cut:])
    return child_a, child_b


def mutate(c: Chromosome, rng: np.random.Generator, bounds) -> Chromosome:
    """With probability MUTATION_PROB resample one uniformly chosen gene inside ``bounds``."""
    if rng.random() >= MUTATION_PROB:
        return c
    gene = int(rng.integers(0, len(Chromosome._fields)))
    return c._replace(**{Chromosome._fields[gene]: _draw(bounds, gene, rng)})


def step_generation(
    population,
    costs: np.ndarray,
    rng: np.random.Generator,
    bounds,
) -> list[Chromosome]:
    """Produce the next population: ELITE_COUNT elites pass through, the rest is bred.

    Offspring parents come from roulette selection weighted by
    1 / (cost + FITNESS_GUARD), so an exact match (cost 0) keeps a finite
    weight. Selected parents are paired in draw order (the draws are already
    random), crossed over, then each child is mutated. Population size is
    preserved.
    """
    order = np.argsort(costs, kind="stable")
    elites = [population[i] for i in order[:ELITE_COUNT]]
    n_offspring = len(population) - ELITE_COUNT
    n_selected = n_offspring + (n_offspring % 2)
    selected = roulette_select(1.0 / (costs + FITNESS_GUARD), n_selected, rng)
    children: list[Chromosome] = []
    for i in range(0, n_selected, 2):
        a, b = population[selected[i]], population[selected[i + 1]]
        child_a, child_b = crossover(a, b, rng, bounds)
        children.append(mutate(child_a, rng, bounds))
        children.append(mutate(child_b, rng, bounds))
    return elites + children[:n_offspring]


def run(cfg: GaConfig, db: RomDatabase, target: SnapshotMatrix, rows: np.ndarray) -> GaHistory:
    """Full search for the ``rows`` of ``target``: returns each generation's leader in the history.

    The initial random population counts as generation 1; each later
    generation evaluates the population bred from the previous one, so
    with the elite kept the per-generation best cost never increases.
    Every gene is drawn inside search_bounds(db). The target is
    projected onto the database's bases once, before the first generation,
    and every chromosome is scored against that.
    The cost cache and the aligned-block tables live for this call only,
    so nothing carries over from one search or database to the next.
    """
    bounds = search_bounds(db)
    projection = project_target(db, target, rows)

    rng = np.random.default_rng(cfg.rng_seed)
    cache: dict = {}
    aligned: dict = {}
    population = init_population(bounds, cfg.population_size, rng)
    records = []
    for generation in range(1, cfg.generations + 1):
        costs = evaluate_population(population, db, projection, cache=cache, aligned=aligned)
        leader = int(np.argmin(costs))
        records.append(
            GenerationRecord(
                generation, population[leader], float(costs[leader]), float(costs.mean())
            )
        )
        if generation < cfg.generations:
            population = step_generation(population, costs, rng, bounds)
    return GaHistory(tuple(records))


def read_history_csv(path) -> GaHistory:
    """Parse a history CSV written by GaHistory.write_csv."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise PersistenceError(path, f"cannot read history ({exc})") from exc
    except csv.Error as exc:  # before Python 3.11, a NUL byte in the file
        raise ValueError(f"{path}: not a search history file ({exc})") from exc
    if not rows or tuple(rows[0]) != HISTORY_COLUMNS:
        raise ValueError(f"{path}: not a search history file")
    if len(rows) == 1:  # write_csv records at least one generation
        raise ValueError(f"{path}: history holds no records")
    records = []
    try:
        for lineno, row in enumerate(rows[1:], 2):
            generation, delta, ne_t, ne_x, m, best_cost, avg_cost = row
            delta, best_cost, avg_cost = float(delta), float(best_cost), float(avg_cost)
            if not np.isfinite([delta, best_cost, avg_cost]).all():
                raise ValueError(f"line {lineno} holds a non-finite value")
            records.append(
                GenerationRecord(
                    int(generation),
                    Chromosome(delta, int(ne_t), int(ne_x), int(m)),
                    best_cost,
                    avg_cost,
                )
            )
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: malformed history row ({exc})") from exc
    return GaHistory(tuple(records))
