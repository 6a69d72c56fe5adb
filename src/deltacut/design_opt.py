"""Dimensional synthesis of the delta geometry by a real-coded GA.

A genome is the length vector (f, e, r_f, r_e).  Fitness rewards coverage of
a prescribed point set and charges a size penalty; genomes that cannot be
assembled score a -1.0 sentinel.  All randomness flows from one seed through
a documented stream layout, so runs are reproducible byte for byte:

    SeedSequence(seed, spawn_key=(g,)), SeedSequence(seed).spawn's child g,
    built when generation g starts:
        g = 0        initial population
        g >= 1       all draws of generation g, consumed in slot order
                     (parent tournaments, crossover, mutation per offspring)

A slot draws its two tournaments' entrants, one crossover coin, four blend
weights if the coin says cross, and four normals of mutation noise.  numpy
draws an entrant below pop from the next 32-bit half u of a 64-bit word,
low half first, by Lemire's rule: (u * pop) >> 32, drawn again while
(u * pop) mod 2**32 < 2**32 mod pop.  Its coin is random() < rate, and
random() is (w >> 11) * 2**-53 of the next word w.  So a slot takes
tournament_size + 1 raw words, then numpy's own random(4) and
standard_normal(4), and array code rebuilds the entrants and coins from the
words.  A generation in which a half falls in the rejection zone is drawn
again from its stream by numpy's integers(), one call per slot; so is every
generation that expects half a rejection or more,
4 * tournament_size * slots * (2**32 mod pop) >= 2**32, at once.  Above
2**32 numpy draws entrants from whole words, so GaConfig stops there.  Only
the draws run slot by slot; winners, crossover and mutation are computed
once per generation, with the same IEEE operations per gene.

Fitness evaluation consumes no randomness, so evaluation order cannot
perturb results; each generation's children are scored by one
population_fitness call, and the elites keep the fitness they had.
The uniform random-search baseline draws POPULATION_BUDGET genomes at a
time from SeedSequence([seed, _BASELINE_STREAM]), its budget in draws, and
scores only those whose bound 1 - penalty beats the best fitness so far.  It
returns what scoring every draw returns, and costs about as much when none
is pruned.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from . import workspace
from .errors import as_count, as_list, as_number, fields, json_text, read_json
from .geometry import _FILE_KEYS, RobotGeometry, _assembly
# coverage stays importable from here: perfbench/worker.py traces the name.
from .workspace import PrescribedWorkspace, coverage, coverage_links  # noqa: F401

# Most genomes run_ga evolves, and random_search draws and scores at once.
# A generation peaks at about 770 bytes per genome (tracemalloc, 2**16 and
# 2**18 genomes), so a run stays under 1 GB.
POPULATION_BUDGET = 2 ** 20

INFEASIBLE_FITNESS = -1.0
_BLEND_ALPHA = 0.1
_BASELINE_STREAM = 0xBA5E


@dataclass(frozen=True, slots=True)
class DesignBounds:
    """Per-gene search interval, mm; order (f, e, r_f, r_e)."""

    f: tuple[float, float]
    e: tuple[float, float]
    r_f: tuple[float, float]
    r_e: tuple[float, float]

    def __post_init__(self):
        for name in self.__dataclass_fields__:
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
        return {key: list(pair) for key, pair in zip(_FILE_KEYS, astuple(self))}


def _as_seed(seed) -> int:
    """seed as an unsigned 64-bit int, the seeds SeedSequence takes."""
    if not as_count("seed", seed, 0) < 2 ** 64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _check_weight(weight) -> None:
    # Below 1 the penalty of a genome within the bounds is below 1, so every
    # assemblable genome scores above the -1.0 sentinel.
    if not 0.0 <= as_number("size_penalty_weight", weight) < 1.0:
        raise ValueError("size_penalty_weight must be in [0, 1)")


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
        # Above 2**32 numpy draws entrants from 64-bit words, not 32-bit halves.
        if population_size > 2 ** 32:
            raise ValueError(f"population_size must be in [2, 2**32], got {population_size}")
        as_count("generations", self.generations, 0)
        if not as_count("tournament_size", self.tournament_size, 1) <= population_size:
            raise ValueError("tournament_size must be in [1, population_size]")
        if not as_count("elitism_count", self.elitism_count, 0) < population_size:
            raise ValueError("elitism_count must be in [0, population_size)")
        if not 0.0 <= as_number("crossover_rate", self.crossover_rate) <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 < as_number("mutation_sigma_fraction", self.mutation_sigma_fraction) <= 1.0:
            raise ValueError("mutation_sigma_fraction must be in (0, 1]")
        _check_weight(self.size_penalty_weight)
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


def _assembled(genomes: np.ndarray, size_penalty_weight: float, bounds: DesignBounds):
    """Which (f, e, r_f, r_e) rows of genomes RobotGeometry would take, and
    for those rows the link fields (a, b, r_f, r_e) and the size penalty
    weight * (f + e + r_f + r_e) / (sum of upper bounds)."""
    # NaN, infinite and overflowing genes fail the mask without warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, _, assembles = _assembly(*genomes.T)
        feasible = (assembles & (genomes > 0.0).all(axis=1)
                    & np.isfinite(genomes * genomes).all(axis=1))
    f, e, r_f, r_e = genomes[feasible].T
    links = np.stack((a[feasible], b[feasible], r_f, r_e), axis=1)
    return feasible, links, size_penalty_weight * (f + e + r_f + r_e) / bounds.sum_upper()


def population_fitness(
    genomes,
    prescribed: PrescribedWorkspace,
    size_penalty_weight: float,
    bounds: DesignBounds,
) -> np.ndarray:
    """coverage - weight * (f + e + r_f + r_e) / (sum of upper bounds) per
    (f, e, r_f, r_e) row; -1.0 where RobotGeometry would refuse the row."""
    genomes = np.asarray(genomes, dtype=np.float64)
    feasible, links, penalty = _assembled(genomes, size_penalty_weight, bounds)
    fits = np.full(len(genomes), INFEASIBLE_FITNESS)
    if feasible.any():
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


def _draw_slots(stream: np.random.SeedSequence, slots: int, cfg: GaConfig):
    """One generation's draws, slot by slot: tournament entrants (slots, 2,
    tournament_size), crossover flags, blend weights (zero where a slot does
    not cross) and mutation noise."""
    pop_size, size = cfg.population_size, cfg.tournament_size
    reject = 2 ** 32 % pop_size
    # Expecting under half a rejection, rebuild the entrants from raw words.
    if 4 * size * slots * reject < 2 ** 32:
        rng = np.random.default_rng(stream)
        raw, random, normal = rng.bit_generator.random_raw, rng.random, rng.standard_normal
        # random() < rate exactly when the word is below this limit.
        limit = math.ceil(cfg.crossover_rate * 2 ** 53) << 11
        no_blend = np.zeros(4)
        heads, cross, blend, noise = [], [], [], []
        for _ in range(slots):
            words = raw(size + 1)
            heads.append(words)
            coin = words.item(size) < limit
            cross.append(coin)
            blend.append(random(4) if coin else no_blend)
            noise.append(normal(4))
        words = np.array(heads)[:, :size]
        halves = np.stack((words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)), axis=2)
        scaled = halves.reshape(slots, 2, size) * np.uint64(pop_size)
        if not ((scaled & np.uint64(0xFFFFFFFF)) < reject).any():
            return ((scaled >> np.uint64(32)).astype(np.intp), np.array(cross),
                    np.array(blend), np.array(noise))
    return _numpy_slots(np.random.default_rng(stream), slots, cfg)


def _numpy_slots(rng: np.random.Generator, slots: int, cfg: GaConfig):
    """_draw_slots with numpy's own integers() call per slot."""
    integers, random, normal = rng.integers, rng.random, rng.standard_normal
    pop_size = cfg.population_size
    draw = 2 * cfg.tournament_size
    rate = cfg.crossover_rate
    no_blend = np.zeros(4)
    entrants, cross, blend, noise = [], [], [], []
    for _ in range(slots):
        entrants.append(integers(pop_size, size=draw))
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
    pop_size = cfg.population_size
    if pop_size > POPULATION_BUDGET:
        raise ValueError(f"population_size is {pop_size}, budget is {POPULATION_BUDGET}")
    lo = bounds.lower()
    hi = bounds.upper()
    span = hi - lo
    sigma = cfg.mutation_sigma_fraction * span
    elite = cfg.elitism_count

    # Generation g draws from SeedSequence(seed).spawn's child g.
    init_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    population = init_rng.uniform(lo, hi, size=(pop_size, 4))

    fits = population_fitness(population, prescribed, cfg.size_penalty_weight, bounds)
    history = [(float(fits.max()), float(fits.mean()))]
    evaluations = pop_size
    best_idx = fits.argmax()
    best_genome = population[best_idx].copy()
    best_fit = float(fits[best_idx])

    for gen in range(1, cfg.generations + 1):
        entrants, cross, blend, noise = _draw_slots(
            np.random.SeedSequence(cfg.seed, spawn_key=(gen,)), pop_size - elite, cfg)
        order = _rank(fits)
        # A tournament's winner is its entrant with the best place in order.
        place = np.empty_like(order)
        place[order] = np.arange(pop_size)
        winners = order[place[entrants].min(axis=2)]
        p1 = population[winners[:, 0]]
        p2 = population[winners[:, 1]]

        low = np.minimum(p1, p2)
        high = np.maximum(p1, p2)
        pad = _BLEND_ALPHA * (high - low)
        child = np.where(cross[:, None], low - pad + blend * ((high + pad) - (low - pad)), p1)

        child = np.clip(child + noise * sigma, lo, hi)
        population = np.concatenate((population[order[:elite]], child))
        # Fitness is row by row, so the elites keep theirs.
        fits = np.concatenate((fits[order[:elite]], population_fitness(
            child, prescribed, cfg.size_penalty_weight, bounds)))
        evaluations += pop_size
        history.append((float(fits.max()), float(fits.mean())))
        gen_best = fits.argmax()
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
) -> tuple[np.ndarray, float]:
    """Equal-budget uniform baseline; returns (best genome, best fitness).

    evaluations counts draws.  Coverage is at most 1, so a genome's fitness
    is at most its bound 1 - penalty, or -1.0 if it cannot be assembled
    (IEEE subtraction is monotone).  A genome whose bound does not beat the
    best fitness so far is drawn but not scored, because it could not
    replace the best.  So the result is that of scoring every genome, and a
    search that prunes nothing costs about as much as scoring every genome.
    """
    as_count("evaluations", evaluations, 1)
    _check_weight(size_penalty_weight)
    rng = np.random.default_rng(np.random.SeedSequence([_as_seed(seed), _BASELINE_STREAM]))
    # At most one coverage_links block of genomes is scored at a time.
    rows = max(1, workspace.PAIR_BUDGET // len(prescribed))
    best, best_fit = None, -math.inf
    # One draw per block of rows gives the same stream as one draw per genome,
    # and the first maximum wins, as if genomes were scored one by one.
    for start in range(0, evaluations, POPULATION_BUDGET):
        size = (min(POPULATION_BUDGET, evaluations - start), 4)
        genomes = rng.uniform(bounds.lower(), bounds.upper(), size=size)
        feasible, links, penalty = _assembled(genomes, size_penalty_weight, bounds)
        bound = np.full(len(genomes), INFEASIBLE_FITNESS)
        bound[feasible] = 1.0 - penalty
        # Each feasible genome's row of links and penalty.
        row = np.cumsum(feasible) - 1
        rest = np.flatnonzero(bound > best_fit)
        while len(rest):
            batch, rest = rest[:rows], rest[rows:]
            # population_fitness of the batch, from the links built above.
            fits = bound[batch]
            live = feasible[batch]
            scored = row[batch[live]]
            fits[live] = coverage_links(links[scored], prescribed) - penalty[scored]
            if (fit := fits.max()) > best_fit:
                best, best_fit = genomes[batch[fits.argmax()]].copy(), float(fit)
                rest = rest[bound[rest] > best_fit]
    return best, best_fit


def load_bounds(path: str | Path) -> DesignBounds:
    """Read a bounds JSON file with keys f, e, rf, re -> [low, high] (mm)."""
    with read_json(path, "bounds file") as raw:
        fields(raw, "top level", _FILE_KEYS)
        return DesignBounds(*(raw[key] for key in _FILE_KEYS))


def load_ga_config(path: str | Path) -> GaConfig:
    """Read a GA config JSON file; absent keys keep their defaults."""
    with read_json(path, "config file") as raw:
        return GaConfig(**fields(raw, "top level", (), optional=GaConfig.__dataclass_fields__))
