import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import load_fixture
from deltacut import (
    DesignBounds,
    GaConfig,
    PrescribedWorkspace,
    candidate_fitness,
    coverage,
    fitness,
    load_bounds,
    load_ga_config,
    random_search,
    run_ga,
)
from deltacut.design_opt import population_fitness

INFEASIBLE = -1.0


def small_bounds():
    return DesignBounds(f=(150.0, 600.0), e=(40.0, 300.0),
                        r_f=(60.0, 400.0), r_e=(150.0, 700.0))


def small_points():
    record = load_fixture("recovery_points.json")
    return PrescribedWorkspace(points=np.array(record["points"][:40]))


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
    assert b.contains([200.0, 100.0, 150.0, 350.0])
    assert not b.contains([700.0, 100.0, 150.0, 350.0])


@pytest.mark.parametrize("name", ["crossover_rate", "mutation_sigma_fraction",
                                  "size_penalty_weight"])
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
    assert fitness(g0, pts, 0.05, small_bounds()) == expected
    assert cov == 1.0


def test_zero_penalty_weight_returns_pure_coverage(g0):
    pts = small_points()
    assert fitness(g0, pts, 0.0, small_bounds()) == coverage(g0, pts)


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
    assert bounds.contains(genome)


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
    assert bounds.contains(g1)
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
