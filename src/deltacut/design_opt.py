"""Dimensional synthesis of the delta geometry by a real-coded GA.

A genome is the length vector (f, e, r_f, r_e).  Fitness rewards coverage of
a prescribed point set and charges a size penalty; genomes that cannot be
assembled score a -1.0 sentinel.  All randomness flows from one seed through
a documented stream layout, so runs are reproducible byte for byte:

    SeedSequence(seed).spawn(generations + 1)
        child 0      initial population
        child g      all draws of generation g, consumed in slot order
                     (parent tournaments, crossover, mutation per offspring)

Fitness evaluation consumes no randomness, so evaluation order cannot
perturb results; each generation is scored by one population_fitness call.
The uniform random-search baseline draws all its genomes at once from
SeedSequence([seed, _BASELINE_STREAM]) and scores them in batches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import as_number, read_json
from .geometry import RobotGeometry
# coverage stays importable from here: perfbench/worker.py traces the name.
from .workspace import PAIR_BUDGET, PrescribedWorkspace, coverage, coverage_many  # noqa: F401

INFEASIBLE_FITNESS = -1.0
_BLEND_ALPHA = 0.1
_BASELINE_STREAM = 0xBA5E
_GENE_NAMES = ("f", "e", "rf", "re")


@dataclass(frozen=True, slots=True)
class DesignBounds:
    """Per-gene search interval, mm; order (f, e, r_f, r_e)."""

    f: tuple[float, float]
    e: tuple[float, float]
    r_f: tuple[float, float]
    r_e: tuple[float, float]

    def __post_init__(self):
        for name in ("f", "e", "r_f", "r_e"):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise ValueError(f"{name} bounds must be a (low, high) pair")
            try:
                lo, hi = float(pair[0]), float(pair[1])
            except (TypeError, ValueError):
                raise ValueError(f"{name} bounds must be numbers, got {pair!r}") from None
            if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo < hi):
                raise ValueError(f"{name} bounds must satisfy 0 < low < high, got {pair!r}")
            object.__setattr__(self, name, (lo, hi))

    def lower(self) -> np.ndarray:
        return np.array([self.f[0], self.e[0], self.r_f[0], self.r_e[0]])

    def upper(self) -> np.ndarray:
        return np.array([self.f[1], self.e[1], self.r_f[1], self.r_e[1]])

    def sum_upper(self) -> float:
        return float(self.upper().sum())

    def contains(self, genome) -> bool:
        lo = self.lower()
        hi = self.upper()
        g = np.asarray(genome, dtype=np.float64)
        return bool((g >= lo).all() and (g <= hi).all())

    def to_dict(self) -> dict:
        return {"f": list(self.f), "e": list(self.e),
                "rf": list(self.r_f), "re": list(self.r_e)}


@dataclass(frozen=True, slots=True)
class GaConfig:
    """GA hyperparameters; the defaults are the documented operating point."""

    population_size: int = 50
    generations: int = 100
    tournament_size: int = 3
    crossover_rate: float = 0.9
    mutation_sigma_fraction: float = 0.05
    elitism_count: int = 1
    seed: int = 0
    size_penalty_weight: float = 0.05

    def __post_init__(self):
        if not (isinstance(self.population_size, int) and self.population_size >= 2):
            raise ValueError("population_size must be an integer >= 2")
        if not (isinstance(self.generations, int) and self.generations >= 0):
            raise ValueError("generations must be an integer >= 0")
        if not (isinstance(self.tournament_size, int)
                and 1 <= self.tournament_size <= self.population_size):
            raise ValueError("tournament_size must be in [1, population_size]")
        if not (isinstance(self.elitism_count, int)
                and 0 <= self.elitism_count < self.population_size):
            raise ValueError("elitism_count must be in [0, population_size)")
        if not 0.0 <= as_number("crossover_rate", self.crossover_rate) <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 < as_number("mutation_sigma_fraction", self.mutation_sigma_fraction) <= 1.0:
            raise ValueError("mutation_sigma_fraction must be in (0, 1]")
        if not as_number("size_penalty_weight", self.size_penalty_weight) >= 0.0:
            raise ValueError("size_penalty_weight must be >= 0")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be an unsigned 64-bit integer")

    def to_dict(self) -> dict:
        return {
            "population_size": self.population_size,
            "generations": self.generations,
            "tournament_size": self.tournament_size,
            "crossover_rate": self.crossover_rate,
            "mutation_sigma_fraction": self.mutation_sigma_fraction,
            "elitism_count": self.elitism_count,
            "seed": self.seed,
            "size_penalty_weight": self.size_penalty_weight,
        }


@dataclass(frozen=True, slots=True)
class GaResult:
    """Outcome of a GA run, including the per-generation fitness history."""

    best: RobotGeometry | None
    best_fitness: float
    history: tuple[tuple[float, float], ...]
    evaluations: int
    config: GaConfig
    bounds: DesignBounds

    def to_dict(self) -> dict:
        return {
            "best": None if self.best is None else self.best.to_dict(),
            "best_fitness": self.best_fitness,
            "history": [
                {"generation": g, "best": b, "mean": m}
                for g, (b, m) in enumerate(self.history)
            ],
            "evaluations": self.evaluations,
            "config": self.config.to_dict(),
            "bounds": self.bounds.to_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def population_fitness(
    genomes,
    prescribed: PrescribedWorkspace,
    size_penalty_weight: float,
    bounds: DesignBounds,
) -> np.ndarray:
    """coverage - weight * (f + e + r_f + r_e) / (sum of upper bounds) per
    (f, e, r_f, r_e) row; -1.0 where the geometry cannot be assembled."""
    genomes = np.asarray(genomes, dtype=np.float64)
    fits = np.full(len(genomes), INFEASIBLE_FITNESS)
    feasible = []
    geometries = []
    for i, (f, e, r_f, r_e) in enumerate(genomes.tolist()):
        try:
            geometries.append(RobotGeometry(f=f, e=e, r_f=r_f, r_e=r_e))
        except ValueError:
            continue
        feasible.append(i)
    if feasible:
        f, e, r_f, r_e = genomes[feasible].T
        penalty = size_penalty_weight * (f + e + r_f + r_e) / bounds.sum_upper()
        fits[feasible] = coverage_many(geometries, prescribed) - penalty
    return fits


def candidate_fitness(
    genome,
    prescribed: PrescribedWorkspace,
    size_penalty_weight: float,
    bounds: DesignBounds,
) -> float:
    """population_fitness of one genome."""
    return float(population_fitness([genome], prescribed, size_penalty_weight, bounds)[0])


def fitness(
    geometry: RobotGeometry,
    prescribed: PrescribedWorkspace,
    size_penalty_weight: float,
    bounds: DesignBounds,
) -> float:
    """population_fitness of one geometry."""
    genome = (geometry.f, geometry.e, geometry.r_f, geometry.r_e)
    return candidate_fitness(genome, prescribed, size_penalty_weight, bounds)


def _rank(fits: np.ndarray) -> list[int]:
    # Descending fitness; index breaks ties so ordering is total.
    return sorted(range(len(fits)), key=lambda i: (-fits[i], i))


def run_ga(
    bounds: DesignBounds,
    prescribed: PrescribedWorkspace,
    config: GaConfig | None = None,
) -> GaResult:
    """Evolve geometries against the prescribed workspace; deterministic."""
    cfg = config if config is not None else GaConfig()
    lo = bounds.lower()
    hi = bounds.upper()
    span = hi - lo
    sigma = cfg.mutation_sigma_fraction * span
    pop_size = cfg.population_size

    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.generations + 1)

    init_rng = np.random.default_rng(streams[0])
    population = init_rng.uniform(lo, hi, size=(pop_size, 4))

    fits = population_fitness(population, prescribed, cfg.size_penalty_weight, bounds)
    history = [(float(fits.max()), float(fits.mean()))]
    evaluations = pop_size
    best_idx = _rank(fits)[0]
    best_genome = population[best_idx].copy()
    best_fit = float(fits[best_idx])

    for gen in range(1, cfg.generations + 1):
        rng = np.random.default_rng(streams[gen])
        order = _rank(fits)
        next_pop = np.empty_like(population)
        for k in range(cfg.elitism_count):
            next_pop[k] = population[order[k]]

        for slot in range(cfg.elitism_count, pop_size):
            entrants = rng.integers(0, pop_size, size=cfg.tournament_size)
            p1 = population[min(entrants, key=lambda i: (-fits[i], i))]
            entrants = rng.integers(0, pop_size, size=cfg.tournament_size)
            p2 = population[min(entrants, key=lambda i: (-fits[i], i))]

            if rng.random() < cfg.crossover_rate:
                low = np.minimum(p1, p2)
                high = np.maximum(p1, p2)
                pad = _BLEND_ALPHA * (high - low)
                child = low - pad + rng.random(4) * ((high + pad) - (low - pad))
            else:
                child = p1.copy()

            child = child + rng.standard_normal(4) * sigma
            next_pop[slot] = np.clip(child, lo, hi)

        population = next_pop
        fits = population_fitness(population, prescribed, cfg.size_penalty_weight, bounds)
        evaluations += pop_size
        history.append((float(fits.max()), float(fits.mean())))
        gen_best = _rank(fits)[0]
        if float(fits[gen_best]) > best_fit:
            best_fit = float(fits[gen_best])
            best_genome = population[gen_best].copy()

    try:
        best_geometry = RobotGeometry(*(float(v) for v in best_genome))
    except ValueError:
        best_geometry = None
    return GaResult(
        best=best_geometry,
        best_fitness=best_fit,
        history=tuple(history),
        evaluations=evaluations,
        config=cfg,
        bounds=bounds,
    )


def random_search(
    bounds: DesignBounds,
    prescribed: PrescribedWorkspace,
    evaluations: int,
    size_penalty_weight: float,
    seed: int,
) -> tuple[np.ndarray | None, float]:
    """Equal-budget uniform baseline; returns (best genome, best fitness)."""
    if evaluations < 1:
        raise ValueError("evaluations must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _BASELINE_STREAM]))
    # One draw of all rows gives the same stream as one draw per genome.
    genomes = rng.uniform(bounds.lower(), bounds.upper(), size=(evaluations, 4))
    batch = max(1, PAIR_BUDGET // len(prescribed))
    best_genome = None
    best_fit = -math.inf
    for start in range(0, evaluations, batch):
        fits = population_fitness(genomes[start:start + batch], prescribed,
                                  size_penalty_weight, bounds)
        # The first strict maximum wins, as if genomes were scored one by one.
        i = int(fits.argmax())
        if fits[i] > best_fit:
            best_fit = float(fits[i])
            best_genome = genomes[start + i].copy()
    return best_genome, best_fit


def load_bounds(path: str | Path) -> DesignBounds:
    """Read a bounds JSON file with keys f, e, rf, re -> [low, high] (mm)."""
    raw = read_json(path, "bounds file", expect_object=True)
    missing = [k for k in _GENE_NAMES if k not in raw]
    if missing:
        raise ValueError(f"bounds file {path}: missing key(s) {', '.join(missing)}")
    try:
        return DesignBounds(f=raw["f"], e=raw["e"], r_f=raw["rf"], r_e=raw["re"])
    except ValueError as exc:
        raise ValueError(f"bounds file {path}: {exc}") from exc


def load_ga_config(path: str | Path) -> GaConfig:
    """Read a GA config JSON file; absent keys keep their defaults."""
    raw = read_json(path, "config file", expect_object=True)
    allowed = set(GaConfig().to_dict())
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"config file {path}: unknown key(s) {', '.join(sorted(unknown))}")
    try:
        return GaConfig(**raw)
    except ValueError as exc:
        raise ValueError(f"config file {path}: {exc}") from exc
