"""Tests for sharded population storage: equality, mapped shards, cache.

The scale-out contract: a population cut into fixed-size host-range shards
(``.rpopd`` directory, one mapped ``.rpsh`` file per shard) must be
indistinguishable — bit for bit — from the same configuration generated
monolithically, and a format-version bump must invalidate every cached
layout rather than silently reading stale bytes.  Building missing shards on
the engine's worker pool must write the very same files as the in-process
build.  The layout is also the engine cache's only format, so whole and
sampled uses of one configuration share it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.core.evaluation import DetectionProtocol, evaluate_policy
from repro.core.policies import PartialDiversityPolicy
import repro.engine.engine as engine_module
from repro.engine import PopulationEngine, population_cache_key
from repro.engine.cache import PopulationCache
from repro.engine.serialization import (
    DEFAULT_HOSTS_PER_SHARD,
    read_manifest,
    write_population_sharded,
)
from repro.engine.sharded import ShardedPopulation
from repro.features.definitions import Feature
from repro.features.timeseries import PopulationFrame
from repro.telemetry import TelemetryRecorder, use_recorder
from repro.utils.validation import ValidationError
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise

CONFIG = EnterpriseConfig(num_hosts=30, num_weeks=2, seed=511)

PROTOCOL = DetectionProtocol(features=(Feature.TCP_CONNECTIONS,))


def assert_matches_monolithic(sharded, population):
    """Bit-exact equality of a sharded population against the monolith."""
    assert tuple(sharded.host_ids) == population.host_ids
    for host_id in population.host_ids:
        assert sharded.profile(host_id) == population.profile(host_id)
        left, right = sharded.matrix(host_id), population.matrix(host_id)
        assert left.features == right.features
        for feature in left.features:
            np.testing.assert_array_equal(
                left.series(feature).values, right.series(feature).values
            )


def _evaluation_payload(evaluation):
    """Repr-precision per-host operating points (bitwise comparable)."""
    return {
        host_id: (
            repr(float(perf.operating_point.false_positive_rate)),
            repr(float(perf.operating_point.false_negative_rate)),
            int(perf.false_alarm_count),
        )
        for host_id, perf in sorted(evaluation.performances.items())
    }


@pytest.fixture(scope="module")
def monolithic():
    return generate_enterprise(CONFIG)


class TestShardedEqualsMonolithic:
    def test_lazy_generation_matches_monolithic(self, monolithic, tmp_path):
        sharded = ShardedPopulation.generate(
            CONFIG, directory=tmp_path / "pop.rpopd", hosts_per_shard=8
        )
        assert sharded.num_shards == 4
        assert_matches_monolithic(sharded, monolithic)

    def test_in_memory_laziness_matches_monolithic(self, monolithic):
        sharded = ShardedPopulation.generate(CONFIG, hosts_per_shard=7)
        assert_matches_monolithic(sharded, monolithic)

    def test_write_then_open_round_trips(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=8
        )
        reopened = ShardedPopulation.open(directory)
        assert_matches_monolithic(reopened, monolithic)

    def test_reopen_resumes_partially_written_population(self, monolithic, tmp_path):
        directory = tmp_path / "pop.rpopd"
        first = ShardedPopulation.generate(CONFIG, directory=directory, hosts_per_shard=8)
        first.matrix(0)  # realises (and persists) only shard 0
        manifest = read_manifest(directory)
        written = [record for record in manifest["shards"] if record is not None]
        assert len(written) == 1
        assert_matches_monolithic(ShardedPopulation.open(directory), monolithic)

    def test_matrices_for_returns_exactly_the_requested_subset(self, monolithic, tmp_path):
        sharded = ShardedPopulation.generate(
            CONFIG, directory=tmp_path / "pop.rpopd", hosts_per_shard=8
        )
        chosen = [1, 9, 10, 29]
        subset = sharded.matrices_for(chosen)
        assert sorted(subset) == chosen
        full = monolithic.matrices()
        for host_id in chosen:
            np.testing.assert_array_equal(
                subset[host_id].series(Feature.TCP_CONNECTIONS).values,
                full[host_id].series(Feature.TCP_CONNECTIONS).values,
            )

    def test_residency_stays_bounded(self, tmp_path):
        sharded = ShardedPopulation.generate(
            CONFIG,
            directory=tmp_path / "pop.rpopd",
            hosts_per_shard=8,
            max_resident_shards=2,
        )
        for host_id in sharded.host_ids:
            sharded.matrix(host_id)
            assert len(sharded.resident_shards) <= 2
        # LRU order: the two most recently touched shards remain.
        assert sharded.resident_shards == (2, 3)

    def test_shard_hashes_verify(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=16
        )
        sharded = ShardedPopulation.open(directory)
        assert all(sharded.verify_shard(index) for index in range(sharded.num_shards))

    def test_corrupt_shard_is_regenerated_identically(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=16
        )
        shard_file = directory / "shard-00000.rpsh"
        shard_file.write_bytes(b"garbage" + shard_file.read_bytes()[7:])
        sharded = ShardedPopulation.open(directory)
        assert not sharded.verify_shard(0)
        assert_matches_monolithic(sharded, monolithic)

    def test_corrupt_value_block_is_regenerated_identically(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=16
        )
        shard_file = directory / "shard-00000.rpsh"
        data = bytearray(shard_file.read_bytes())
        data[-3] ^= 0xFF  # a bin value of the shard's last host: the header still parses
        shard_file.write_bytes(bytes(data))
        sharded = ShardedPopulation.open(directory)
        assert_matches_monolithic(sharded, monolithic)
        assert sharded.verify_shard(0)


class TestMmapBitIdentity:
    def test_shard_values_are_plain_views_of_the_file(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=8
        )
        mapped = ShardedPopulation.open(directory)
        for host_id in monolithic.host_ids:
            for feature in monolithic.matrix(host_id).features:
                values = mapped.matrix(host_id).series(feature).values
                assert type(values) is np.ndarray
                assert not values.flags.owndata

    def test_one_shard_matrices_are_its_frame(self, monolithic, tmp_path):
        """One shard serves its frame whole; a sample and several shards are plain dicts."""
        one = ShardedPopulation.open(write_population_sharded(tmp_path / "one.rpopd", monolithic))
        frame = one.matrices()
        assert isinstance(frame, PopulationFrame) and one.matrices() is frame
        assert list(frame) == list(monolithic.host_ids)
        assert frame[7] is one.matrix(7)
        sample = one.matrices_for([7, 2])
        assert type(sample) is dict and list(sample) == [7, 2] and sample[7] is frame[7]
        several = ShardedPopulation.open(
            write_population_sharded(tmp_path / "several.rpopd", monolithic, hosts_per_shard=8)
        )
        assert type(several.matrices()) is dict
        assert_matches_monolithic(one, monolithic)

    def test_evaluation_on_mmap_matches_monolithic(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=8
        )
        mapped = ShardedPopulation.open(directory)
        policy = PartialDiversityPolicy()
        baseline = evaluate_policy(monolithic.matrices(), policy, PROTOCOL)
        via_mmap = evaluate_policy(mapped.matrices(), policy, PROTOCOL)
        assert _evaluation_payload(via_mmap) == _evaluation_payload(baseline)


class TestCacheInvalidation:
    def test_cache_key_depends_on_format_version(self, monkeypatch):
        before = population_cache_key(CONFIG)
        monkeypatch.setattr(
            "repro.engine.cache.POPULATION_FORMAT_VERSION", 99_999_999
        )
        assert population_cache_key(CONFIG) != before

    def test_cache_path_moves_on_version_bump(self, tmp_path, monkeypatch):
        cache = PopulationCache(tmp_path)
        before = cache.path_for(CONFIG)
        monkeypatch.setattr(
            "repro.engine.cache.POPULATION_FORMAT_VERSION", 99_999_999
        )
        after = cache.path_for(CONFIG)
        assert before != after  # a bump never reuses the old layout's path

    def test_stale_manifest_format_is_rejected(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=16
        )
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = manifest["format"] - 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="unsupported sharded population format"):
            ShardedPopulation.open(directory)

    def test_generate_over_stale_layout_rebuilds_it(self, monolithic, tmp_path):
        directory = tmp_path / "pop.rpopd"
        write_population_sharded(directory, monolithic, hosts_per_shard=16)
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = manifest["format"] - 1
        manifest_path.write_text(json.dumps(manifest))
        # generate() treats the unreadable manifest as "no population here"
        # and starts a fresh layout at the current version.
        sharded = ShardedPopulation.generate(CONFIG, directory=directory, hosts_per_shard=16)
        assert json.loads(manifest_path.read_text())["format"] != manifest["format"]
        assert_matches_monolithic(sharded, monolithic)

    @pytest.mark.parametrize(
        "manifest",
        [[], None, {"shards": []}, {"shards": "none"}, {"shards": [None, None, "x", None]}],
        ids=["list", "null", "too-few-shards", "shards-not-a-list", "bad-record"],
    )
    def test_malformed_manifest_is_a_miss(self, manifest, monolithic, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        layout = engine.generate_sharded(CONFIG, hosts_per_shard=8).directory
        manifest_path = layout / "manifest.json"
        if isinstance(manifest, dict):
            manifest = dict(read_manifest(layout), **manifest)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError):
            read_manifest(layout)
        assert engine.cache.load(CONFIG) is None
        # generate() starts a fresh layout over the malformed one.
        sharded = ShardedPopulation.generate(CONFIG, directory=layout, hosts_per_shard=8)
        assert len(read_manifest(layout)["shards"]) == 4
        assert_matches_monolithic(sharded, monolithic)

    def test_engine_generate_sharded_uses_cache_directory(self, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        sharded = engine.generate_sharded(CONFIG, hosts_per_shard=8)
        sharded.matrix(0)
        layout = PopulationCache(tmp_path).path_for(CONFIG)
        assert layout.is_dir()
        assert (layout / "shard-00000.rpsh").is_file()

    def test_config_mismatch_on_existing_layout_is_rejected(self, monolithic, tmp_path):
        directory = write_population_sharded(
            tmp_path / "pop.rpopd", monolithic, hosts_per_shard=16
        )
        other = EnterpriseConfig(num_hosts=30, num_weeks=2, seed=512)
        with pytest.raises(ValidationError, match="does not match"):
            ShardedPopulation.generate(other, directory=directory, hosts_per_shard=16)


def _hosts_generated(action):
    """``action()`` and the number of hosts it generated."""
    recorder = TelemetryRecorder()
    with use_recorder(recorder):
        result = action()
    return result, recorder.counters.get("engine.hosts_generated", 0)


class TestOneLayoutPerPopulation:
    """``generate`` and ``generate_sharded`` share the cache's one layout."""

    def test_generate_then_sharded_generates_no_host(self, monolithic, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        engine.generate(CONFIG)
        materialized, generated = _hosts_generated(
            lambda: engine.generate_sharded(CONFIG).materialize()
        )
        assert generated == 0
        assert_matches_monolithic(materialized, monolithic)

    def test_sharded_then_generate_is_a_cache_hit(self, monolithic, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        engine.generate_sharded(CONFIG).materialize()
        whole, generated = _hosts_generated(lambda: engine.generate(CONFIG))
        assert engine.last_report.cache_hit is True
        assert generated == 0
        assert_matches_monolithic(whole, monolithic)
        assert engine.cache.entry_count() == 1
        assert engine.cache.clear() == 1

    def test_generate_completes_a_partial_layout(self, monolithic, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        engine.generate_sharded(CONFIG, hosts_per_shard=8).matrix(0)  # shard 0 only
        whole = engine.generate(CONFIG)
        assert engine.last_report.cache_hit is False
        assert_matches_monolithic(whole, monolithic)
        # store() kept the layout's geometry and recorded every shard.
        assert None not in _manifest_hashes(engine.cache.path_for(CONFIG))
        sharded, generated = _hosts_generated(
            lambda: engine.generate_sharded(CONFIG, hosts_per_shard=8).materialize()
        )
        assert generated == 0
        assert_matches_monolithic(sharded, monolithic)


class _PoolStarted(Exception):
    """Raised by the patched executor: a process pool was asked for."""


def _no_pool(*args, **kwargs):
    raise _PoolStarted


def _manifest_hashes(directory):
    return [record and record["sha256"] for record in read_manifest(directory)["shards"]]


class TestParallelShardBuild:
    """Missing shards built on the engine's pool, one shard file per worker."""

    ALL_HOSTS = list(range(CONFIG.num_hosts))

    @staticmethod
    def _parallel(tmp_path):
        engine = PopulationEngine(workers=2, min_parallel_hosts=1, cache_dir=tmp_path / "cache")
        return engine.generate_sharded(CONFIG, hosts_per_shard=8)

    @staticmethod
    def _in_process(tmp_path):
        return ShardedPopulation.generate(
            CONFIG, directory=tmp_path / "in-process.rpopd", hosts_per_shard=8
        )

    def test_shard_files_match_in_process_build(self, tmp_path):
        parallel = self._parallel(tmp_path)
        parallel.matrices_for(self.ALL_HOSTS)
        in_process = self._in_process(tmp_path)
        in_process.matrices_for(self.ALL_HOSTS)
        hashes = _manifest_hashes(parallel.directory)
        assert None not in hashes
        assert hashes == _manifest_hashes(in_process.directory)
        assert all(parallel.verify_shard(index) for index in range(parallel.num_shards))

    def test_matrices_for_matches_monolithic(self, monolithic, tmp_path):
        chosen = [1, 9, 10, 17, 29]  # hosts in every shard
        subset = self._parallel(tmp_path).matrices_for(chosen)
        assert sorted(subset) == chosen
        for host_id in chosen:
            expected = monolithic.matrix(host_id)
            for feature in expected.features:
                np.testing.assert_array_equal(
                    subset[host_id].series(feature).values, expected.series(feature).values
                )

    @pytest.mark.parametrize("request_all", ["matrices", "materialize"])
    def test_whole_population_requests_build_on_the_pool(
        self, request_all, monolithic, tmp_path
    ):
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            result = getattr(self._parallel(tmp_path), request_all)()
        matrices = result.matrices() if request_all == "materialize" else result
        assert sorted(matrices) == self.ALL_HOSTS
        for host_id in self.ALL_HOSTS:
            expected = monolithic.matrix(host_id)
            for feature in expected.features:
                np.testing.assert_array_equal(
                    matrices[host_id].series(feature).values, expected.series(feature).values
                )
        generated_in = {
            span.process for span in recorder.spans if span.name == "engine.shard.generate"
        }
        assert generated_in and "main" not in generated_in

    def test_unavailable_pool_builds_the_same_files_in_process(self, tmp_path, monkeypatch):
        def unavailable(*args, **kwargs):
            raise OSError("no process spawning here")

        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", unavailable)
        parallel = self._parallel(tmp_path)
        parallel.matrices_for(self.ALL_HOSTS)
        in_process = self._in_process(tmp_path)
        in_process.matrices_for(self.ALL_HOSTS)
        assert _manifest_hashes(parallel.directory) == _manifest_hashes(in_process.directory)

    def test_telemetry_counts_match_in_process_build(self, tmp_path):
        parallel, in_process = TelemetryRecorder(), TelemetryRecorder()
        for recorder, build in ((parallel, self._parallel), (in_process, self._in_process)):
            with use_recorder(recorder):
                build(tmp_path).matrices_for(self.ALL_HOSTS)
        for counter in ("engine.hosts_generated", "engine.shards_loaded"):
            assert parallel.counters[counter] == in_process.counters[counter], counter
        # The shards were generated in the pool workers, whose spans merged in.
        generated_in = {
            span.process for span in parallel.spans if span.name == "engine.shard.generate"
        }
        assert generated_in and "main" not in generated_in

    def test_failed_task_keeps_every_finished_shard(self, monolithic, tmp_path):
        # An unknown role makes generating host 20 (shard 2) raise in its worker.
        population = ShardedPopulation.generate(
            CONFIG,
            directory=tmp_path / "pop.rpopd",
            hosts_per_shard=8,
            roles={20: "not-a-role"},
            engine=PopulationEngine(workers=2, min_parallel_hosts=1),
        )
        with pytest.raises(KeyError):
            population.matrices_for(self.ALL_HOSTS)
        hashes = _manifest_hashes(population.directory)
        assert [index for index, digest in enumerate(hashes) if digest is None] == [2]
        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            reopened = ShardedPopulation.open(population.directory)
            assert_matches_monolithic(reopened, monolithic)
        assert recorder.counters["engine.hosts_generated"] == 8

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(
                lambda tmp_path: PopulationEngine(workers=2, min_parallel_hosts=1)
                .generate_sharded(CONFIG, hosts_per_shard=8),
                id="no-directory",
            ),
            pytest.param(
                lambda tmp_path: PopulationEngine(workers=2, cache_dir=tmp_path)
                .generate_sharded(CONFIG, hosts_per_shard=8),
                id="below-serial-floor",
            ),
            pytest.param(
                lambda tmp_path: ShardedPopulation.generate(
                    CONFIG, directory=tmp_path / "direct.rpopd", hosts_per_shard=8
                ),
                id="constructed-directly",
            ),
        ],
    )
    def test_never_starts_a_pool(self, build, monolithic, tmp_path, monkeypatch):
        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", _no_pool)
        population = build(tmp_path)
        assert population.matrices_for(self.ALL_HOSTS).keys() == set(self.ALL_HOSTS)
        assert_matches_monolithic(population, monolithic)

    def test_lone_missing_shard_builds_in_process(self, monolithic, tmp_path, monkeypatch):
        population = self._parallel(tmp_path)
        for host_id in (0, 8, 16):
            population.matrix(host_id)  # shards 0-2, one at a time
        monkeypatch.setattr(engine_module, "ProcessPoolExecutor", _no_pool)
        population.matrices_for(self.ALL_HOSTS)  # only shard 3 is missing
        assert_matches_monolithic(population, monolithic)


#: Child process for the kill-and-resume test: builds a 32-host layout on a
#: two-worker pool and SIGKILLs itself right after the second finished shard
#: is entered in the manifest, first writing its pool workers' pids to argv[2].
_KILLED_MID_POOL_BUILD = """
import multiprocessing, os, signal, sys
import repro.engine.sharded as sharded
from repro.engine import PopulationEngine
from repro.workload.enterprise import EnterpriseConfig

record_shard = sharded.ShardedPopulation._record_shard
recorded = []

def record_then_kill(self, index, record):
    record_shard(self, index, record)
    recorded.append(index)
    if len(recorded) == 2:
        workers = " ".join(str(child.pid) for child in multiprocessing.active_children())
        with open(sys.argv[2], "w") as handle:
            handle.write(workers)
        os.kill(os.getpid(), signal.SIGKILL)

sharded.ShardedPopulation._record_shard = record_then_kill
num_hosts, num_weeks, seed = map(int, sys.argv[3:])
config = EnterpriseConfig(num_hosts=num_hosts, num_weeks=num_weeks, seed=seed)
engine = PopulationEngine(workers=2, min_parallel_hosts=1, cache_dir=sys.argv[1])
engine.generate_sharded(config, hosts_per_shard=8).materialize()
raise SystemExit("the shard build was not interrupted")
"""


def _process_exited(pid: int) -> bool:
    """True once ``pid`` has exited (an unreaped zombie counts as exited)."""
    stat = Path(f"/proc/{pid}/stat")
    if stat.parent.parent.is_dir():
        try:
            state = stat.read_text().rsplit(")", 1)[1].split()[0]
        except (FileNotFoundError, ProcessLookupError):
            return True
        return state in ("Z", "X")
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestKilledPoolBuild:
    """A process SIGKILLed in the middle of a pool shard build, then resumed."""

    CONFIG = EnterpriseConfig(num_hosts=32, num_weeks=2, seed=511)

    def test_kill_mid_build_then_resume(self, tmp_path):
        cache_dir, pid_file = tmp_path / "cache", tmp_path / "workers.txt"
        paths = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
        fields = (self.CONFIG.num_hosts, self.CONFIG.num_weeks, self.CONFIG.seed)
        child = subprocess.run(
            [sys.executable, "-c", _KILLED_MID_POOL_BUILD, str(cache_dir), str(pid_file)]
            + [str(field) for field in fields],
            env=env,
            timeout=120,
        )
        assert child.returncode == -signal.SIGKILL

        # The killed build's pool workers notice their parent is gone and exit.
        workers = [int(pid) for pid in pid_file.read_text().split()]
        assert len(workers) == 2
        deadline = time.monotonic() + 30.0
        while not all(_process_exited(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        lingering = [pid for pid in workers if not _process_exited(pid)]
        for pid in lingering:  # leave no orphan behind when the check fails
            os.kill(pid, signal.SIGKILL)
        assert not lingering, "orphaned pool workers outlived 30 s"

        layout = PopulationCache(cache_dir).path_for(self.CONFIG)
        recorded = [index for index, digest in enumerate(_manifest_hashes(layout)) if digest]
        assert len(recorded) == 2

        recorder = TelemetryRecorder()
        with use_recorder(recorder):
            engine = PopulationEngine(workers=2, min_parallel_hosts=1, cache_dir=cache_dir)
            resumed = engine.generate_sharded(self.CONFIG, hosts_per_shard=8).materialize()
        # Only the two shards the manifest does not record are generated again.
        assert recorder.counters["engine.hosts_generated"] == 16
        expected = generate_enterprise(self.CONFIG)
        assert resumed.host_ids == expected.host_ids
        for host_id in expected.host_ids:
            assert resumed.profile(host_id) == expected.profile(host_id)
            for feature in expected.matrix(host_id).features:
                assert (
                    resumed.matrix(host_id).series(feature).values.tobytes()
                    == expected.matrix(host_id).series(feature).values.tobytes()
                )


def test_default_shard_size_is_power_of_two():
    assert DEFAULT_HOSTS_PER_SHARD & (DEFAULT_HOSTS_PER_SHARD - 1) == 0
