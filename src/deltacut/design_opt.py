"""Dimensional synthesis of the delta geometry by a real-coded GA.

A genome is the length vector (f, e, r_f, r_e).  Fitness rewards coverage of
a prescribed point set and charges a size penalty; genomes that cannot be
assembled score a -1.0 sentinel.  All randomness flows from one seed through
a documented stream layout, so runs are reproducible byte for byte:

    SeedSequence(seed).spawn(generations + 1)
        child 0      initial population
        child g      all draws of generation g, consumed in slot order
                     (parent tournaments, crossover, mutation per offspring)

Both tournaments of a slot come from one integers call: numpy draws bounded
integers one at a time from the bit generator, whose 32-bit buffer outlives
the call, so this consumes the stream as one call per tournament did.  Only
the draws run slot by slot; winners, crossover and mutation are computed
once per generation, with the same IEEE operations per gene.

Fitness evaluation consumes no randomness, so evaluation order cannot
perturb results; each generation is scored by one population_fitness call.
The uniform random-search baseline draws all its genomes at once from
SeedSequence([seed, _BASELINE_STREAM]) and scores them in batches.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import as_count, as_list, as_number, fields, json_text, read_json
from .geometry import RobotGeometry, _assembly
# coverage stays importable from here: perfbench/worker.py traces the name.
from .workspace import PAIR_BUDGET, PrescribedWorkspace, coverage, coverage_links  # noqa: F401

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
            pair = as_list(f"{name} bounds", getattr(self, name), 2)
            lo, hi = (as_number(f"{name} bounds", value) for value in pair)
            if not 0.0 < lo < hi:
                raise ValueError(f"{name} bounds must satisfy 0 < low < high, got {pair!r}")
            object.__setattr__(self, name, (lo, hi))

    def lower(self) -> np.ndarray:
        return np.array([self.f[0], self.e[0], self.r_f[0], self.r_e[0]])

    def upper(self) -> np.ndarray:
        return np.array([self.f[1], self.e[1], self.r_f[1], self.r_e[1]])

    def sum_upper(self) -> float:
        return float(self.upper().sum())

    def to_dict(self) -> dict:
        return {"f": list(self.f), "e": list(self.e),
                "rf": list(self.r_f), "re": list(self.r_e)}


def _as_seed(seed) -> int:
    """seed as an unsigned 64-bit int, the seeds SeedSequence takes."""
    if not as_count("seed", seed, 0) < 2 ** 64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


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
        # Values are checked, not converted, so result files echo them as given.
        population_size = as_count("population_size", self.population_size, 2)
        as_count("generations", self.generations, 0)
        if not as_count("tournament_size", self.tournament_size, 1) <= population_size:
            raise ValueError("tournament_size must be in [1, population_size]")
        if not as_count("elitism_count", self.elitism_count, 0) < population_size:
            raise ValueError("elitism_count must be in [0, population_size)")
        if not 0.0 <= as_number("crossover_rate", self.crossover_rate) <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 < as_number("mutation_sigma_fraction", self.mutation_sigma_fraction) <= 1.0:
            raise ValueError("mutation_sigma_fraction must be in (0, 1]")
        if not as_number("size_penalty_weight", self.size_penalty_weight) >= 0.0:
            raise ValueError("size_penalty_weight must be >= 0")
        _as_seed(self.seed)

    def to_dict(self) -> dict:
        return asdict(self)


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
        return json_text(self.to_dict())


def population_fitness(
    genomes,
    prescribed: PrescribedWorkspace,
    size_penalty_weight: float,
    bounds: DesignBounds,
) -> np.ndarray:
    """coverage - weight * (f + e + r_f + r_e) / (sum of upper bounds) per
    (f, e, r_f, r_e) row; -1.0 where RobotGeometry would refuse the row."""
    genomes = np.asarray(genomes, dtype=np.float64)
    # NaN, infinite and overflowing genes fail the mask without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, _, assembles = _assembly(*genomes.T)
        feasible = (assembles & (genomes > 0.0).all(axis=1)
                    & np.isfinite(genomes * genomes).all(axis=1))
    fits = np.full(len(genomes), INFEASIBLE_FITNESS)
    if feasible.any():
        f, e, r_f, r_e = genomes[feasible].T
        links = np.stack((a[feasible], b[feasible], r_f, r_e), axis=1)
        penalty = size_penalty_weight * (f + e + r_f + r_e) / bounds.sum_upper()
        fits[feasible] = coverage_links(links, prescribed) - penalty
    return fits


def candidate_fitness(
    genome,
    prescribed: PrescribedWorkspace,
    size_penalty_weight: float,
    bounds: DesignBounds,
) -> float:
    """population_fitness of one genome."""
    return float(population_fitness([genome], prescribed, size_penalty_weight, bounds)[0])


def _rank(fits: np.ndarray) -> np.ndarray:
    # Descending fitness; index breaks ties so ordering is total.
    return np.argsort(-fits, kind="stable")


def _draw_slots(rng: np.random.Generator, slots: int, cfg: GaConfig):
    """One generation's draws, slot by slot: tournament entrants (slots, 2,
    tournament_size), crossover flags, blend weights (zero where a slot does
    not cross) and mutation noise."""
    integers, random, normal = rng.integers, rng.random, rng.standard_normal
    pop_size = cfg.population_size
    draw = 2 * cfg.tournament_size
    rate = cfg.crossover_rate
    no_blend = np.zeros(4)
    entrants, cross, blend, noise = [], [], [], []
    for _ in range(slots):
        entrants.append(integers(0, pop_size, size=draw))
        coin = random() < rate
        cross.append(coin)
        blend.append(random(4) if coin else no_blend)
        noise.append(normal(4))
    return (np.reshape(entrants, (slots, 2, cfg.tournament_size)), np.array(cross),
            np.array(blend), np.array(noise))


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
    elite = cfg.elitism_count

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
        entrants, cross, blend, noise = _draw_slots(rng, pop_size - elite, cfg)
        order = _rank(fits)
        # A tournament's winner is its entrant with the best place in order.
        place = np.argsort(order)
        winners = order[place[entrants].min(axis=2)]
        p1 = population[winners[:, 0]]
        p2 = population[winners[:, 1]]

        low = np.minimum(p1, p2)
        high = np.maximum(p1, p2)
        pad = _BLEND_ALPHA * (high - low)
        child = np.where(cross[:, None], low - pad + blend * ((high + pad) - (low - pad)), p1)

        population = np.concatenate(
            (population[order[:elite]], np.clip(child + noise * sigma, lo, hi)))
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
    as_count("evaluations", evaluations, 1)
    rng = np.random.default_rng(np.random.SeedSequence([_as_seed(seed), _BASELINE_STREAM]))
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
    with read_json(path, "bounds file") as raw:
        fields(raw, "top level", _GENE_NAMES)
        return DesignBounds(f=raw["f"], e=raw["e"], r_f=raw["rf"], r_e=raw["re"])


def load_ga_config(path: str | Path) -> GaConfig:
    """Read a GA config JSON file; absent keys keep their defaults."""
    with read_json(path, "config file") as raw:
        return GaConfig(**fields(raw, "top level", (), optional=GaConfig().to_dict()))
