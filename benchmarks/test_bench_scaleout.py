"""Scale-out micro-benchmarks: sharded mmap loading and sampled evaluation.

Tracks the two numbers the million-host path lives on:

* how fast a sampled campaign evaluates against a warm sharded ``.rpopd``
  layout (seeded subsample + bootstrap confidence interval), and
* how fast shard files map back in from a cold open: each touched shard is
  hashed once against its manifest record (buffered reads), then mapped
  zero-copy with ``numpy.memmap``.

The population is 4096 hosts cut into 512-host shards under the shared
benchmark cache — the first harness run generates and persists the layout,
every later run mmap-loads it.
"""

from __future__ import annotations

from conftest import BENCH_CACHE_DIR, run_once
from repro.core.sampling import SampleSpec, sample_host_ids
from repro.engine import PopulationEngine
from repro.engine.cache import PopulationCache
from repro.engine.sharded import ShardedPopulation
from repro.sweeps.runner import run_scenario
from repro.sweeps.spec import EvaluationSpec, PopulationSpec, ScenarioSpec

#: Scale-out benchmark population: 8 shards of 512 hosts over two weeks.
SCALE_HOSTS = 4096
SCALE_HOSTS_PER_SHARD = 512
SCALE_SEED = 2009

_POPULATION_SPEC = PopulationSpec(num_hosts=SCALE_HOSTS, num_weeks=2, seed=SCALE_SEED)


def _warm_sharded_population():
    """The benchmark's sharded population with every shard persisted."""
    engine = PopulationEngine(cache_dir=BENCH_CACHE_DIR)
    population = engine.generate_sharded(
        _POPULATION_SPEC.to_config(), hosts_per_shard=SCALE_HOSTS_PER_SHARD
    )
    for _ in population.iter_shards():  # generate + persist on the cold run
        pass
    return population


def test_bench_scaleout_sampled_eval(benchmark):
    """A 256-host sampled campaign (with bootstrap CI) on 4096 sharded hosts."""
    population = _warm_sharded_population()
    spec = ScenarioSpec(
        name="scaleout-sampled",
        population=_POPULATION_SPEC,
        evaluation=EvaluationSpec(sample=SampleSpec(size=256, seed=7)),
    ).validate()

    outcome = run_once(benchmark, run_scenario, spec, population)

    assert outcome.sample_size == 256
    assert outcome.utility_ci_low is not None
    assert outcome.utility_ci_low <= outcome.mean_utility <= outcome.utility_ci_high
    benchmark.extra_info["sampled_hosts"] = outcome.sample_size
    benchmark.extra_info["num_shards"] = population.num_shards


def test_bench_scaleout_shard_load(benchmark):
    """Hash-checked mmap loads: resolve a 256-host sample from a cold open."""
    _warm_sharded_population()
    layout = PopulationCache(BENCH_CACHE_DIR).path_for(_POPULATION_SPEC.to_config())
    chosen = sample_host_ids(range(SCALE_HOSTS), 256, seed=7)

    def open_and_resolve():
        population = ShardedPopulation.open(layout, max_resident_shards=2)
        return population.matrices_for(chosen)

    matrices = benchmark(open_and_resolve)
    assert sorted(matrices) == chosen
