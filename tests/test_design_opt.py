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
    load_prescribed,
    random_search,
    run_ga,
)
from deltacut import design_opt, workspace
from deltacut.design_opt import _draw_slots, population_fitness
from oracles import draw_slots_numpy, fitness_per_genome, random_search_exhaustive, run_ga_slots

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
    # numpy draws entrants from 64-bit words above 2**32.
    assert GaConfig(population_size=2 ** 32).population_size == 2 ** 32
    with pytest.raises(ValueError, match="population_size"):
        GaConfig(population_size=2 ** 32 + 1)


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


class Stop(Exception):
    pass


@pytest.mark.parametrize("generations", [10**5, 10**20])
def test_a_huge_generation_count_builds_no_stream_before_generation_one(generations):
    # population_fitness's second call scores generation 1's children.  Built
    # up front, 10**5 streams peaked at 35.8 MiB, and 10**20 overflowed spawn().
    calls = []

    def fitness(*args):
        calls.append(None)
        if len(calls) == 2:
            raise Stop
        return population_fitness(*args)

    cfg = GaConfig(population_size=4, generations=generations)
    with mock.patch.object(design_opt, "population_fitness", fitness):
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                run_ga(small_bounds(), small_points(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 4 * 2**20


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


# Populations where Lemire's rule rejects a 32-bit half often (3e9, 2**31 + 1)
# or never (2**32, 2), and ordinary ones.
_DRAW_POPULATIONS = [2, 3, 50, 1000, 1_000_003, 3 * 10 ** 9, 2 ** 31 + 1, 2 ** 32]


def same_draws(got, want) -> bool:
    return all(g.shape == w.shape and (g == w).all() for g, w in zip(got, want))


@settings(max_examples=300, deadline=None)
@given(pop=st.one_of(st.sampled_from(_DRAW_POPULATIONS), st.integers(2, 2 ** 32)),
       size=st.integers(1, 3), slots=st.integers(1, 60),
       rate=st.one_of(st.sampled_from([0.0, 1.0, 0.5, 5e-324, math.nextafter(1.0, 0.0)]),
                      st.floats(0.0, 1.0)),
       seed=st.integers(0, 2 ** 64 - 1))
def test_draw_slots_match_numpy_per_tournament_draws(pop, size, slots, rate, seed):
    cfg = GaConfig(population_size=pop, tournament_size=min(size, pop), crossover_rate=rate)
    stream = np.random.SeedSequence(seed)
    assert same_draws(_draw_slots(stream, slots, cfg), draw_slots_numpy(stream, slots, cfg))


@pytest.mark.parametrize("size", [1, 2, 3])
def test_a_rejected_raw_half_redraws_the_generation_with_numpy(size):
    # At 3.5e9 one half in about 5.4 falls in Lemire's rejection zone, and a
    # slot expects 2 * size * 0.185 rejections: below one half for size 1,
    # so the raw words are tried first, and above it for 2 and 3, so numpy
    # draws at once.
    cfg = GaConfig(population_size=3_500_000_000, tournament_size=size)
    streams = np.random.SeedSequence(11).spawn(40)
    with mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as rng:
        for stream in streams:
            assert same_draws(_draw_slots(stream, 1, cfg), draw_slots_numpy(stream, 1, cfg))
    starts = rng.call_count - len(streams)  # less the oracle's one per stream
    if size == 1:
        assert len(streams) < starts < 2 * len(streams)  # some, not all, fell back
    else:
        assert starts == len(streams)


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


@pytest.mark.parametrize("budget", [1, 7, 59])
def test_random_search_in_blocks_equals_one_block(budget):
    bounds, points = small_bounds(), small_points()
    want = random_search(bounds, points, 60, 0.05, seed=9)
    with mock.patch.object(design_opt, "POPULATION_BUDGET", budget):
        got = random_search(bounds, points, 60, 0.05, seed=9)
    assert (got[0].tobytes(), got[1].hex()) == (want[0].tobytes(), want[1].hex())


ALMOST_ONE = math.nextafter(1.0, 0.0)  # the largest weight accepted

# Genomes none of which assembles: reach |a + r_f - b| is about r_f > r_e.
UNASSEMBLABLE = DesignBounds(f=(100.0, 101.0), e=(100.0, 101.0),
                             r_f=(500.0, 600.0), r_e=(1.0, 2.0))
# The far point keeps every genome below full coverage, so weight 0 prunes
# nothing.  Weight 0.001 keeps every penalty below 0.001, so a bound too
# tight by that much would prune a winner.
SEARCH_POINTS = load_fixture("recovery_points.json")["points"][:40] + [[0.0, 0.0, -5000.0]]


@settings(max_examples=80, deadline=None)
@given(evaluations=st.integers(1, 600), seed=st.integers(0, 2 ** 64 - 1),
       points=st.lists(st.sampled_from(SEARCH_POINTS), min_size=1, max_size=12),
       weight=st.one_of(st.sampled_from([0.0, 0.001, 0.05, 0.5, ALMOST_ONE]),
                        st.floats(0.0, 1.0, exclude_max=True)),
       bounds=st.sampled_from([small_bounds(), UNASSEMBLABLE]),
       population_budget=st.sampled_from([1, 7, 59, design_opt.POPULATION_BUDGET]),
       pair_budget=st.sampled_from([3, 17, 100, workspace.PAIR_BUDGET]))
def test_pruned_random_search_equals_scoring_every_genome(
        evaluations, seed, points, weight, bounds, population_budget, pair_budget):
    prescribed = PrescribedWorkspace(points=np.array(points))
    with (mock.patch.object(design_opt, "POPULATION_BUDGET", population_budget),
          mock.patch.object(workspace, "PAIR_BUDGET", pair_budget)):
        got = random_search(bounds, prescribed, evaluations, weight, seed)
        want = random_search_exhaustive(bounds, prescribed, evaluations, weight, seed)
    assert (got[0].tobytes(), got[1].hex()) == (want[0].tobytes(), want[1].hex())


def test_random_search_scores_fewer_genomes_than_it_draws(fixtures_dir):
    bounds = load_bounds(fixtures_dir / "bounds.json")
    points = load_prescribed(fixtures_dir / "recovery_points.json")
    weight = load_ga_config(fixtures_dir / "ga_small.json").size_penalty_weight
    with mock.patch.object(design_opt, "coverage_links",
                           wraps=design_opt.coverage_links) as spy:
        random_search(bounds, points, 257, weight, seed=9)
    scored = sum(len(call.args[0]) for call in spy.call_args_list)
    # 137 of the 257 genomes drawn are scored.  The others cannot beat the
    # best so far or cannot be assembled, and take no coverage.
    assert 0 < scored < 257


@pytest.mark.parametrize("weight", [-0.5, 1.0, 10.0, 1e306, float("nan"), float("inf"),
                                    True, "0.05"])
def test_random_search_weight_is_checked_as_the_ga_weight(weight):
    with pytest.raises(ValueError, match="size_penalty_weight"):
        random_search(small_bounds(), small_points(), 5, weight, seed=9)
    with pytest.raises(ValueError, match="size_penalty_weight"):
        GaConfig(size_penalty_weight=weight)


def assembles(genome) -> bool:
    try:
        RobotGeometry(*genome)
    except ValueError:
        return False
    return True


bound_ends = st.tuples(*(st.sampled_from(pair) for pair in zip(
    small_bounds().lower().tolist(), small_bounds().upper().tolist())))
OUT_OF_REACH = PrescribedWorkspace(points=np.array([[0.0, 0.0, -5000.0]]))


@settings(max_examples=150, deadline=None)
@given(population=st.lists(in_bounds | bound_ends, min_size=1, max_size=12),
       weight=st.sampled_from([0.0, 0.5, ALMOST_ONE]) | st.floats(0.0, 1.0, exclude_max=True),
       points=st.sampled_from([small_points(), OUT_OF_REACH]))
def test_every_assemblable_genome_scores_above_the_sentinel(population, weight, points):
    # Genes at their upper bounds and a point out of reach give coverage 0
    # and the largest penalty.
    GaConfig(size_penalty_weight=weight)
    fits = population_fitness(population, points, weight, small_bounds())
    feasible = np.array([assembles(g) for g in population])
    assert (fits[feasible] > INFEASIBLE).all()
    assert (fits[~feasible] == INFEASIBLE).all()


def test_random_search_memory_stops_growing_past_the_budget():
    bounds, points = small_bounds(), small_points()
    peaks = []
    with mock.patch.object(design_opt, "POPULATION_BUDGET", 64):
        random_search(bounds, points, 64, 0.05, seed=9)  # first-use caches
        for evaluations in (256, 4096):
            tracemalloc.start()
            try:
                random_search(bounds, points, evaluations, 0.05, seed=9)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    # Drawing all 4,096 genomes at once peaked 2.7 MB above 256 of them.
    assert peaks[1] < peaks[0] + 50_000
