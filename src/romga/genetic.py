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
from functools import cached_property
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


@dataclass(frozen=True)
class SearchSpace:
    """Inclusive per-gene bounds. ne_bounds applies to ne_t and ne_x alike."""

    delta_bounds: tuple[float, float]
    ne_bounds: tuple[int, int]
    m_bounds: tuple[int, int]

    def __post_init__(self) -> None:
        d = (float(self.delta_bounds[0]), float(self.delta_bounds[1]))
        n = (int(self.ne_bounds[0]), int(self.ne_bounds[1]))
        m = (int(self.m_bounds[0]), int(self.m_bounds[1]))
        if not np.isfinite(d).all():
            raise ValueError(f"delta_bounds must be finite, got {self.delta_bounds!r}")
        if d[0] > d[1] or n[0] > n[1] or m[0] > m[1]:
            raise ValueError("each bounds pair must satisfy lo <= hi")
        if n[0] < 2:
            raise ValueError("neighbor counts below 2 cannot interpolate")
        if m[0] < 1:
            raise ValueError("truncation order must be at least 1")
        object.__setattr__(self, "delta_bounds", d)
        object.__setattr__(self, "ne_bounds", n)
        object.__setattr__(self, "m_bounds", m)

    @cached_property
    def bounds(self) -> tuple:
        """(lo, hi) of every gene, in Chromosome order."""
        return (self.delta_bounds, self.ne_bounds, self.ne_bounds, self.m_bounds)

    def draw(self, gene: int, rng: np.random.Generator) -> float | int:
        """Uniform draw of the gene at index ``gene``; a pinned delta takes no draw."""
        lo, hi = self.bounds[gene]
        if gene == 0:
            return float(rng.uniform(lo, hi)) if lo < hi else lo
        return int(rng.integers(lo, hi + 1))

    def contains(self, c: Chromosome) -> bool:
        return all(lo <= g <= hi for g, (lo, hi) in zip(c, self.bounds))

    def clamp(self, c: Chromosome) -> Chromosome:
        return Chromosome._make(min(max(g, lo), hi) for g, (lo, hi) in zip(c, self.bounds))


@dataclass(frozen=True)
class GaConfig:
    space: SearchSpace
    population_size: int = 20
    generations: int = 30
    crossover_prob: float = 0.8
    mutation_prob: float = 0.1
    elite_count: int = 1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.generations < 0:
            raise ValueError("generations must be nonnegative")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0 <= self.elite_count < self.population_size:
            raise ValueError("elite_count must lie in [0, population_size)")


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best: Chromosome
    best_cost: float
    avg_cost: float


@dataclass(frozen=True)
class GaHistory:
    records: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    def __len__(self) -> int:
        return len(self.records)

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


def init_population(cfg: GaConfig, rng: np.random.Generator | None = None) -> list[Chromosome]:
    """Uniform random population inside the search space."""
    rng = np.random.default_rng(cfg.rng_seed) if rng is None else rng
    return [
        Chromosome._make(cfg.space.draw(gene, rng) for gene in range(len(Chromosome._fields)))
        for _ in range(cfg.population_size)
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
    database rejects raises ValueError naming the offending gene; run's
    bound checks keep every chromosome it breeds inside the database's
    limits. Identical chromosomes always score identically, so ``cache``
    maps each chromosome scored so far to its cost and a repeat, within the
    population or across generations, is served from it; None starts an
    empty one. ``aligned`` is handed to interpolate_reduced, so the aligned
    neighbor blocks computed for one chromosome serve every later one on the
    same database that shares its nearest sample, neighbor sets and m.
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
    parent_a: Chromosome, parent_b: Chromosome, rng: np.random.Generator, cfg: GaConfig
) -> tuple[Chromosome, Chromosome]:
    """Blend-and-exchange crossover.

    With probability 1 - crossover_prob the parents pass through unchanged.
    Otherwise the float gene is blended arithmetically with a uniform
    coefficient (children stay inside the parents' span) and the integer
    genes (ne_t, ne_x, m) swap their tails at a uniformly chosen boundary.
    Children are clamped to the search space.
    """
    if rng.random() > cfg.crossover_prob:
        return parent_a, parent_b
    beta = rng.random()
    delta_a = beta * parent_a.delta + (1.0 - beta) * parent_b.delta
    delta_b = (1.0 - beta) * parent_a.delta + beta * parent_b.delta
    cut = 1 + int(rng.integers(1, 3))  # tails start at ne_x or at m
    child_a = Chromosome(delta_a, *parent_a[1:cut], *parent_b[cut:])
    child_b = Chromosome(delta_b, *parent_b[1:cut], *parent_a[cut:])
    return cfg.space.clamp(child_a), cfg.space.clamp(child_b)


def mutate(c: Chromosome, rng: np.random.Generator, cfg: GaConfig) -> Chromosome:
    """With probability mutation_prob resample one uniformly chosen gene."""
    if rng.random() >= cfg.mutation_prob:
        return c
    gene = int(rng.integers(0, len(Chromosome._fields)))
    return c._replace(**{Chromosome._fields[gene]: cfg.space.draw(gene, rng)})


def step_generation(
    population,
    costs: np.ndarray,
    rng: np.random.Generator,
    cfg: GaConfig,
) -> list[Chromosome]:
    """Produce the next population: elites pass through, the rest is bred.

    Offspring parents come from roulette selection weighted by
    1 / (cost + FITNESS_GUARD), so an exact match (cost 0) keeps a finite
    weight. Selected parents are paired in draw order (the draws are already
    random), crossed over, then each child is mutated. Population size is
    preserved.
    """
    order = np.argsort(costs, kind="stable")
    elites = [population[i] for i in order[: cfg.elite_count]]
    n_offspring = cfg.population_size - cfg.elite_count
    n_selected = n_offspring + (n_offspring % 2)
    selected = roulette_select(1.0 / (costs + FITNESS_GUARD), n_selected, rng)
    children: list[Chromosome] = []
    for i in range(0, n_selected, 2):
        a, b = population[selected[i]], population[selected[i + 1]]
        child_a, child_b = crossover(a, b, rng, cfg)
        children.append(mutate(child_a, rng, cfg))
        children.append(mutate(child_b, rng, cfg))
    return elites + children[:n_offspring]


def run(cfg: GaConfig, db: RomDatabase, target: SnapshotMatrix, rows: np.ndarray) -> GaHistory:
    """Full search for the ``rows`` of ``target``: returns each generation's leader in the history.

    The initial random population counts as generation 1; each later
    generation evaluates the population bred from the previous one. With
    elitism enabled the per-generation best cost never increases. A
    ``generations`` of 0 degenerates to evaluating the initial population
    only. The target is projected onto the database's bases once, before
    the first generation, and every chromosome is scored against that.
    The cost cache and the aligned blocks live for this call only, so
    nothing carries over from one search or database to the next.
    """
    d_lo, d_hi = cfg.space.delta_bounds
    hull_lo, hull_hi = db.hull
    if d_lo < hull_lo or d_hi > hull_hi:
        raise ValueError(
            f"delta bounds [{d_lo!r}, {d_hi!r}] leave the training hull"
            f" [{hull_lo!r}, {hull_hi!r}]"
        )
    if cfg.space.ne_bounds[1] > db.n_params:
        raise ValueError("neighbor bound exceeds the number of training samples")
    if cfg.space.m_bounds[1] > db.q:
        raise ValueError("truncation bound exceeds the database order q")
    projection = project_target(db, target, rows)

    rng = np.random.default_rng(cfg.rng_seed)
    cache: dict = {}
    aligned: dict = {}
    population = init_population(cfg, rng)
    records = []
    total = max(cfg.generations, 1)
    for generation in range(1, total + 1):
        costs = evaluate_population(population, db, projection, cache=cache, aligned=aligned)
        leader = int(np.argmin(costs))
        records.append(
            GenerationRecord(
                generation, population[leader], float(costs[leader]), float(costs.mean())
            )
        )
        if generation < total:
            population = step_generation(population, costs, rng, cfg)
    return GaHistory(tuple(records))


def read_history_csv(path) -> GaHistory:
    """Parse a history CSV written by GaHistory.write_csv."""
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise PersistenceError(path, f"cannot read history ({exc})") from exc
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
