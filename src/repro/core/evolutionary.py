"""A seeded, steady-state evolutionary solver for integer genomes.

The paper solves the Channel Planning (CP) problem — a knapsack-variant,
NP-hard — with an evolutionary algorithm on a central server
(section 4.3.1).  This module provides the generic engine: integer
genomes with per-gene bounds, tournament selection, uniform crossover,
reset mutation, elitism, and optional seed individuals (AlphaWAN seeds
the population with greedy constructions and with high-demand traffic
samples).
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs import runtime as _obs
from ..obs.events import EventType

logger = logging.getLogger(__name__)

__all__ = ["GAConfig", "GAResult", "evolve"]

Genome = List[int]
FitnessFn = Callable[[Genome], float]
RepairFn = Callable[[Genome, random.Random], Genome]


@dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the evolutionary search.

    Attributes:
        population: Individuals per generation.
        generations: Evolution steps.
        tournament_k: Tournament size for parent selection.
        crossover_rate: Probability of uniform crossover per mating.
        mutation_rate: Per-gene reset probability.
        elitism: Individuals copied unchanged into the next generation.
        seed: RNG seed (the whole run is deterministic).
        patience: Stop early after this many generations without
            improvement (0 disables early stopping).
    """

    population: int = 60
    generations: int = 120
    tournament_k: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.02
    elitism: int = 2
    seed: int = 0
    patience: int = 30

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must be in [0, population)")


@dataclass
class GAResult:
    """Outcome of one evolutionary run.

    ``gen_wall_s`` and ``gen_evaluations`` are per-generation telemetry
    (wall-clock seconds and fitness evaluations, including the initial
    population's as entry 0); both default empty so pre-telemetry
    callers and serialized results stay valid.
    """

    best_genome: Genome
    best_fitness: float
    generations_run: int
    history: List[float] = field(default_factory=list)
    gen_wall_s: List[float] = field(default_factory=list)
    gen_evaluations: List[int] = field(default_factory=list)

    @property
    def evaluations(self) -> int:
        """Total fitness evaluations across the run."""
        return sum(self.gen_evaluations)


def _random_genome(bounds: Sequence[Tuple[int, int]], rng: random.Random) -> Genome:
    return [rng.randint(lo, hi) for lo, hi in bounds]


def _mutate(
    genome: Genome,
    bounds: Sequence[Tuple[int, int]],
    rate: float,
    rng: random.Random,
) -> Genome:
    out = list(genome)
    for idx, (lo, hi) in enumerate(bounds):
        if rng.random() < rate:
            out[idx] = rng.randint(lo, hi)
    return out


def _crossover(a: Genome, b: Genome, rng: random.Random) -> Genome:
    return [x if rng.random() < 0.5 else y for x, y in zip(a, b)]


def _tournament(
    scored: List[Tuple[float, Genome]], k: int, rng: random.Random
) -> Genome:
    picks = rng.sample(range(len(scored)), min(k, len(scored)))
    best = max(picks, key=lambda i: scored[i][0])
    return scored[best][1]


def evolve(
    bounds: Sequence[Tuple[int, int]],
    fitness: FitnessFn,
    config: GAConfig = GAConfig(),
    seeds: Sequence[Genome] = (),
    repair: Optional[RepairFn] = None,
) -> GAResult:
    """Run the evolutionary search.

    Args:
        bounds: Inclusive (low, high) bounds per gene.
        fitness: Objective to *maximize*.
        config: Hyper-parameters.
        seeds: Optional genomes injected into the initial population
            (e.g. greedy constructions); clipped to bounds.
        repair: Optional constraint-repair hook applied to every new
            individual before evaluation.

    Returns:
        The best genome found and the fitness trajectory.
    """
    for lo, hi in bounds:
        if lo > hi:
            raise ValueError(f"invalid gene bounds ({lo}, {hi})")
    rng = random.Random(config.seed)

    def clip(genome: Genome) -> Genome:
        return [
            min(max(g, lo), hi) for g, (lo, hi) in zip(genome, bounds)
        ]

    def prepare(genome: Genome) -> Genome:
        genome = clip(genome)
        if repair is not None:
            genome = clip(repair(genome, rng))
        return genome

    population: List[Genome] = [prepare(list(s)) for s in seeds]
    while len(population) < config.population:
        population.append(prepare(_random_genome(bounds, rng)))
    population = population[: config.population]

    gen_wall_s: List[float] = []
    gen_evaluations: List[int] = []

    def telemetry(gen: int, evals: int, wall_s: float, scored_gen) -> None:
        gen_wall_s.append(wall_s)
        gen_evaluations.append(evals)
        rec = _obs.TRACE
        if rec is not None:
            fits = [f for f, _ in scored_gen]
            rec.emit(
                EventType.GA_GENERATION,
                gen=gen,
                best=max(fits),
                mean=sum(fits) / len(fits),
                evals=evals,
                gen_wall_s=wall_s,
            )
        metrics = _obs.METRICS
        if metrics is not None:
            metrics.histogram(
                "repro_ga_generation_seconds",
                "wall time per GA generation",
            ).observe(wall_s)
            metrics.counter(
                "repro_ga_evaluations_total",
                "GA fitness evaluations",
            ).inc(evals)

    t0 = time.perf_counter()
    scored = [(fitness(g), g) for g in population]
    scored.sort(key=lambda t: t[0], reverse=True)
    telemetry(0, len(population), time.perf_counter() - t0, scored)
    best_fit, best_genome = scored[0]
    history = [best_fit]
    stall = 0
    gens_run = 0

    for _ in range(config.generations):
        gens_run += 1
        t0 = time.perf_counter()
        next_gen: List[Genome] = [g for _, g in scored[: config.elitism]]
        while len(next_gen) < config.population:
            parent_a = _tournament(scored, config.tournament_k, rng)
            if rng.random() < config.crossover_rate:
                parent_b = _tournament(scored, config.tournament_k, rng)
                child = _crossover(parent_a, parent_b, rng)
            else:
                child = list(parent_a)
            child = _mutate(child, bounds, config.mutation_rate, rng)
            next_gen.append(prepare(child))
        scored = [(fitness(g), g) for g in next_gen]
        scored.sort(key=lambda t: t[0], reverse=True)
        if scored[0][0] > best_fit:
            best_fit, best_genome = scored[0]
            stall = 0
        else:
            stall += 1
        history.append(best_fit)
        telemetry(
            gens_run, len(next_gen), time.perf_counter() - t0, scored
        )
        if config.patience and stall >= config.patience:
            break

    rec = _obs.TRACE
    if rec is not None:
        rec.emit(
            EventType.GA_DONE,
            generations=gens_run,
            best=best_fit,
            evals=sum(gen_evaluations),
        )
    logger.info(
        "GA finished: %d generations, best fitness %.6g, %d evaluations",
        gens_run,
        best_fit,
        sum(gen_evaluations),
    )
    return GAResult(
        best_genome=list(best_genome),
        best_fitness=best_fit,
        generations_run=gens_run,
        history=history,
        gen_wall_s=gen_wall_s,
        gen_evaluations=gen_evaluations,
    )
