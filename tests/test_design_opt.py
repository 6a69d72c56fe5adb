import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_fixture
from deltacut import (
    DesignBounds,
    GaConfig,
    PrescribedWorkspace,
    RobotGeometry,
    candidate_fitness,
    coverage,
    load_bounds,
    load_ga_config,
    random_search,
    run_ga,
)
from deltacut import workspace
from deltacut.design_opt import population_fitness
from oracles import fitness_per_genome, run_ga_slots

INFEASIBLE = -1.0


def small_bounds():
    return DesignBounds(f=(150.0, 600.0), e=(40.0, 300.0),
                        r_f=(60.0, 400.0), r_e=(150.0, 700.0))


def small_points():
    record = load_fixture("recovery_points.json")
    return PrescribedWorkspace(points=np.array(record["points"][:40]))


def within(bounds, genome):
    g = np.asarray(genome, dtype=np.float64)
    return bool((g >= bounds.lower()).all() and (g <= bounds.upper()).all())


def small_config(**overrides):
    base = dict(population_size=10, generations=5, seed=3)
    base.update(overrides)
    return GaConfig(**base)


def test_bounds_validation():
    with pytest.raises(ValueError):
        DesignBounds(f=(0.0, 10.0), e=(1.0, 2.0), r_f=(1.0, 2.0), r_e=(1.0, 2.0))
    with pytest.raises(ValueError):
        DesignBounds(f=(10.0, 10.0), e=(1.0, 2.0), r_f=(1.0, 2.0), r_e=(1.0, 2.0))
    b = small_bounds()
    assert b.sum_upper() == 600.0 + 300.0 + 400.0 + 700.0
    assert within(b, [200.0, 100.0, 150.0, 350.0])
    assert not within(b, [700.0, 100.0, 150.0, 350.0])


@pytest.mark.parametrize("name", ["crossover_rate", "mutation_sigma_fraction",
                                  "size_penalty_weight", "population_size", "generations",
                                  "tournament_size", "elitism_count", "seed"])
@pytest.mark.parametrize("value", [None, True, "0.5"])
def test_config_rejects_non_numbers(name, value):
    with pytest.raises(ValueError, match=name):
        GaConfig(**{name: value})


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population_size=1)
    with pytest.raises(ValueError):
        GaConfig(tournament_size=0)
    with pytest.raises(ValueError):
        GaConfig(crossover_rate=1.5)
    with pytest.raises(ValueError):
        GaConfig(elitism_count=50, population_size=10)
    with pytest.raises(ValueError):
        GaConfig(seed=-1)


def test_default_hyperparameters():
    cfg = GaConfig()
    assert cfg.population_size == 50
    assert cfg.generations == 100
    assert cfg.tournament_size == 3
    assert cfg.crossover_rate == 0.9
    assert cfg.mutation_sigma_fraction == 0.05
    assert cfg.elitism_count == 1
    assert cfg.size_penalty_weight == 0.05


def test_unassemblable_genome_scores_sentinel():
    pts = small_points()
    value = candidate_fitness([400.0, 60.0, 200.0, 100.0], pts, 0.05, small_bounds())
    assert value == INFEASIBLE


def test_fitness_is_coverage_minus_size_penalty(g0):
    pts = small_points()
    cov = coverage(g0, pts)
    size = g0.f + g0.e + g0.r_f + g0.r_e
    expected = cov - 0.05 * size / small_bounds().sum_upper()
    genome = (g0.f, g0.e, g0.r_f, g0.r_e)
    assert candidate_fitness(genome, pts, 0.05, small_bounds()) == expected
    assert cov == 1.0


def test_zero_penalty_weight_returns_pure_coverage(g0):
    pts = small_points()
    genome = (g0.f, g0.e, g0.r_f, g0.r_e)
    assert candidate_fitness(genome, pts, 0.0, small_bounds()) == coverage(g0, pts)


def test_run_ga_is_deterministic():
    bounds = small_bounds()
    pts = small_points()
    first = run_ga(bounds, pts, small_config())
    second = run_ga(bounds, pts, small_config())
    assert first.to_json() == second.to_json()


def test_different_seed_changes_the_run():
    bounds = small_bounds()
    pts = small_points()
    first = run_ga(bounds, pts, small_config(seed=3))
    second = run_ga(bounds, pts, small_config(seed=4))
    assert first.to_json() != second.to_json()


def test_run_ga_result_shape():
    bounds = small_bounds()
    pts = small_points()
    cfg = small_config()
    result = run_ga(bounds, pts, cfg)
    assert len(result.history) == cfg.generations + 1
    assert result.evaluations == cfg.population_size * (cfg.generations + 1)
    assert result.best_fitness == max(h[0] for h in result.history)
    assert result.best is not None
    genome = [result.best.f, result.best.e, result.best.r_f, result.best.r_e]
    assert within(bounds, genome)


def test_elitism_makes_best_history_monotone():
    bounds = small_bounds()
    pts = small_points()
    result = run_ga(bounds, pts, small_config(generations=8, elitism_count=2))
    bests = [h[0] for h in result.history]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))


def test_mean_never_exceeds_best():
    result = run_ga(small_bounds(), small_points(), small_config())
    assert all(mean <= best for best, mean in result.history)


def test_random_search_deterministic_and_bounded():
    bounds = small_bounds()
    pts = small_points()
    g1, f1 = random_search(bounds, pts, 60, 0.05, seed=9)
    g2, f2 = random_search(bounds, pts, 60, 0.05, seed=9)
    assert f1 == f2
    assert np.array_equal(g1, g2)
    assert within(bounds, g1)
    with pytest.raises(ValueError):
        random_search(bounds, pts, 0, 0.05, seed=9)


def test_seed_override_field():
    cfg = dataclasses.replace(small_config(), seed=123)
    assert cfg.seed == 123


def test_load_bounds_fixture(fixtures_dir):
    bounds = load_bounds(fixtures_dir / "bounds.json")
    assert bounds.f == (150.0, 600.0)
    assert bounds.r_e == (150.0, 700.0)


def test_load_bounds_missing_key(tmp_path):
    path = tmp_path / "bounds.json"
    path.write_text('{"f": [1.0, 2.0], "e": [1.0, 2.0], "rf": [1.0, 2.0]}',
                    encoding="utf-8")
    with pytest.raises(ValueError, match="re"):
        load_bounds(path)


def test_load_ga_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"population_size": 10, "mutation_rate": 0.5}', encoding="utf-8")
    with pytest.raises(ValueError, match="mutation_rate"):
        load_ga_config(path)


def test_load_ga_config_fixture(fixtures_dir):
    cfg = load_ga_config(fixtures_dir / "ga_small.json")
    assert cfg.population_size == 12
    assert cfg.generations == 6
    assert cfg.seed == 7
    # Unset keys keep their defaults.
    assert cfg.crossover_rate == 0.9


def test_result_json_embeds_inputs():
    result = run_ga(small_bounds(), small_points(), small_config())
    payload = result.to_dict()
    assert payload["config"]["seed"] == 3
    assert payload["bounds"]["f"] == [150.0, 600.0]
    assert len(payload["history"]) == 6
    assert payload["history"][0]["generation"] == 0


def test_ga_and_random_search_results_are_pinned(fixtures_dir):
    from gen_fixtures import design_results

    for name, text in design_results().items():
        assert text.encode("utf-8") == (fixtures_dir / name).read_bytes(), name


def test_population_fitness_memory_is_bounded():
    # 10 M genome x point pairs; one unbatched float64 temporary alone would
    # take 80 MB.
    rng = np.random.default_rng(5)
    bounds = small_bounds()
    genomes = rng.uniform(bounds.lower(), bounds.upper(), size=(2000, 4))
    points = PrescribedWorkspace(
        points=rng.uniform([-300.0, -300.0, -600.0], [300.0, 300.0, -50.0], size=(5000, 3)))
    tracemalloc.start()
    try:
        fits = population_fitness(genomes, points, 0.05, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fits.shape == (2000,)
    assert peak < 8_000_000


@pytest.mark.parametrize("budget", [2.5, True, "3"])
def test_random_search_budget_must_be_a_count(budget):
    with pytest.raises(ValueError, match="evaluations must be an integer"):
        random_search(small_bounds(), small_points(), budget, 0.05, seed=9)


@pytest.mark.parametrize("seed", [True, "3", 2 ** 64, -1, 2.5])
def test_random_search_seed_is_checked_as_the_ga_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        random_search(small_bounds(), small_points(), 5, 0.05, seed)
    with pytest.raises(ValueError, match="seed"):
        GaConfig(seed=seed)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_random_search_runs_at_the_seed_range_ends(seed):
    genome, _ = random_search(small_bounds(), small_points(), 5, 0.05, seed)
    assert within(small_bounds(), genome)


def test_population_fitness_builds_no_geometry(g0):
    genomes = [[g0.f, g0.e, g0.r_f, g0.r_e], [400.0, 60.0, 200.0, 100.0]]
    with mock.patch.object(RobotGeometry, "__post_init__",
                           side_effect=AssertionError("RobotGeometry built")):
        fits = population_fitness(genomes, small_points(), 0.05, small_bounds())
    assert fits[1] == INFEASIBLE
    assert fits[0] > 0.0


def test_odd_genomes_score_without_numpy_warnings():
    # Infinite, NaN and overflowing genes are masked out; links near 1e154
    # pass the mask, and their overflowing kernel terms count as misses.
    genomes = [[math.inf, 1.0, 1.0, 1.0], [math.nan, 1.0, 1.0, 1.0],
               [1e200, 1.0, 1.0, 1.0], [1.0, 1.0, 1e154, 1.0000000000000002e154]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fits = population_fitness(genomes, small_points(), 0.0, small_bounds())
    assert fits.tolist() == [INFEASIBLE, INFEASIBLE, INFEASIBLE, 0.0]


@st.composite
def ga_configs(draw):
    pop = draw(st.integers(2, 30))
    return GaConfig(
        population_size=pop,
        generations=draw(st.integers(0, 6)),
        tournament_size=draw(st.integers(1, pop)),
        elitism_count=draw(st.integers(0, pop - 1)),
        crossover_rate=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        mutation_sigma_fraction=draw(st.one_of(st.just(0.05), st.floats(1e-6, 1.0))),
        # Weight 0 leaves only coverage, so equal fitness values, and the
        # index tie-break in tournaments and ranking, are common.
        size_penalty_weight=draw(st.sampled_from([0.0, 0.05])),
        seed=draw(st.integers(0, 2 ** 64 - 1)),
    )


@settings(max_examples=100, deadline=None)
@given(config=ga_configs())
def test_run_ga_matches_the_slot_by_slot_oracle(config):
    bounds = small_bounds()
    points = small_points()
    assert run_ga(bounds, points, config).to_json() == run_ga_slots(bounds, points, config).to_json()


_ODD_GENES = [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e154, 1.4e154, 1e200]
genes = st.one_of(st.floats(1.0, 1000.0), st.sampled_from(_ODD_GENES))


@st.composite
def edge_genomes(draw):
    """Genomes on, just inside and just outside the assembly boundary
    r_e == |a + r_f - b|, and genomes with odd genes."""
    f, e, r_f = draw(genes), draw(genes), draw(genes)
    reach = abs(f / (2.0 * math.sqrt(3.0)) + r_f - e / (2.0 * math.sqrt(3.0)))
    r_e = draw(st.one_of(
        st.sampled_from([reach, math.nextafter(reach, math.inf), math.nextafter(reach, -math.inf)]),
        genes))
    return (f, e, r_f, r_e)


in_bounds = st.tuples(*(st.floats(lo, hi) for lo, hi in
                        zip(small_bounds().lower(), small_bounds().upper())))


@settings(max_examples=150, deadline=None)
@given(population=st.lists(st.one_of(edge_genomes(), in_bounds), min_size=1, max_size=12),
       weight=st.sampled_from([0.0, 0.05]),
       budget=st.one_of(st.just(workspace.PAIR_BUDGET), st.integers(1, 100)))
def test_population_fitness_equals_the_per_genome_path(population, weight, budget):
    points = small_points()
    with mock.patch.object(workspace, "PAIR_BUDGET", budget):
        got = population_fitness(population, points, weight, small_bounds())
        want = fitness_per_genome(population, points, weight, small_bounds())
    assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
