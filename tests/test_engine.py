"""Tests for the population engine: determinism, caching, serialization."""

from __future__ import annotations

import gc
import json
import os
import signal
import struct
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import repro
from repro.engine import (
    PopulationCache,
    PopulationEngine,
    ShardedPopulation,
    population_cache_key,
)
from repro.engine.engine import _chunk_host_ids
from repro.engine.serialization import (
    _HEADER_STRUCT,
    _HOST_STRUCT,
    _INTENSITY_RECORD_SIZE,
    _file_sha256,
    write_population_sharded,
)
from repro.features.definitions import PAPER_FEATURES
from repro.features.timeseries import FeatureMatrix, PopulationFrame
from repro.utils.timeutils import BinSpec
from repro.utils.validation import ValidationError
from repro.workload.drift import DriftModel
from repro.workload.enterprise import EnterpriseConfig, generate_enterprise
from repro.workload.profiles import HostProfile, UserRole

from helpers import count_hashes

CONFIG = EnterpriseConfig(num_hosts=70, num_weeks=2, seed=424)


def assert_populations_identical(left, right):
    """Bit-exact equality of two populations (profiles and matrices)."""
    assert left.host_ids == right.host_ids
    assert left.config == right.config
    for host_id in left.host_ids:
        assert left.profile(host_id) == right.profile(host_id)
        left_matrix, right_matrix = left.matrix(host_id), right.matrix(host_id)
        assert left_matrix.features == right_matrix.features
        for feature in left_matrix.features:
            np.testing.assert_array_equal(
                left_matrix.series(feature).values, right_matrix.series(feature).values
            )


class TestParallelDeterminism:
    def test_parallel_output_bit_identical_to_serial(self):
        serial = PopulationEngine(workers=1).generate(CONFIG)
        parallel = PopulationEngine(workers=3, min_parallel_hosts=1).generate(CONFIG)
        assert_populations_identical(serial, parallel)

    def test_worker_count_does_not_change_output(self):
        two = PopulationEngine(workers=2, min_parallel_hosts=1).generate(CONFIG)
        five = PopulationEngine(workers=5, min_parallel_hosts=1).generate(CONFIG)
        assert_populations_identical(two, five)

    def test_engine_matches_generate_enterprise(self):
        via_engine = PopulationEngine(workers=1).generate(CONFIG)
        via_function = generate_enterprise(CONFIG)
        assert_populations_identical(via_engine, via_function)

    def test_small_population_stays_serial(self):
        engine = PopulationEngine(workers=4)
        engine.generate(EnterpriseConfig(num_hosts=8, num_weeks=2, seed=1))
        assert engine.last_report.workers == 1

    def test_role_overrides_apply_in_parallel(self):
        roles = {0: UserRole.SYSTEM_ADMINISTRATOR, 5: UserRole.SALES_MOBILE}
        population = PopulationEngine(workers=2, min_parallel_hosts=1).generate(
            CONFIG, roles=roles
        )
        assert population.profile(0).role == UserRole.SYSTEM_ADMINISTRATOR
        assert population.profile(5).role == UserRole.SALES_MOBILE

    def test_chunking_covers_every_host_once(self):
        for num_hosts, workers in [(1, 4), (7, 2), (350, 8), (64, 64)]:
            chunks = _chunk_host_ids(num_hosts, workers)
            flattened = [host for chunk in chunks for host in chunk]
            assert sorted(flattened) == list(range(num_hosts))


class TestCache:
    def test_cache_round_trip_is_exact(self, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        cold = engine.generate(CONFIG)
        assert engine.last_report.cache_hit is False
        warm = engine.generate(CONFIG)
        assert engine.last_report.cache_hit is True
        assert_populations_identical(cold, warm)

    def test_warm_cache_skips_generation(self, tmp_path, monkeypatch):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        engine.generate(CONFIG)

        def fail(*args, **kwargs):  # pragma: no cover - must never run
            raise AssertionError("generation ran despite a warm cache")

        import repro.engine.engine as engine_module

        monkeypatch.setattr(engine_module, "_generate_host_chunk", fail)
        warm = engine.generate(CONFIG)
        assert engine.last_report.cache_hit is True
        assert len(warm) == CONFIG.num_hosts

    def test_cache_key_distinguishes_configs(self):
        base = population_cache_key(CONFIG)
        assert population_cache_key(EnterpriseConfig(num_hosts=70, num_weeks=2, seed=425)) != base
        assert population_cache_key(EnterpriseConfig(num_hosts=71, num_weeks=2, seed=424)) != base
        assert population_cache_key(CONFIG, roles={0: UserRole.RESEARCHER}) != base
        assert population_cache_key(EnterpriseConfig(num_hosts=70, num_weeks=2, seed=424)) == base

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        cache = PopulationCache(tmp_path)
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        population = engine.generate(CONFIG)
        flip_value_byte(cache.path_for(CONFIG) / "shard-00000.rpsh")
        assert cache.load(CONFIG) is None
        regenerated = engine.generate(CONFIG)
        assert engine.last_report.cache_hit is False
        assert_populations_identical(population, regenerated)
        layout = ShardedPopulation.open(cache.path_for(CONFIG))
        assert all(layout.verify_shard(index) for index in range(layout.num_shards))

    def test_uncached_engine_has_no_cache(self):
        assert PopulationEngine(workers=1).cache is None

    def test_cache_dir_tilde_is_expanded(self, tmp_path, monkeypatch):
        # The README's cache_dir="~/.cache/repro/populations" example must
        # land in the home directory, not create a literal "~" directory.
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        engine = PopulationEngine(workers=1, cache_dir="~/population-cache")
        engine.generate(EnterpriseConfig(num_hosts=3, num_weeks=2, seed=5))
        assert (tmp_path / "population-cache").is_dir()
        assert not (tmp_path / "~").exists()
        assert engine.cache.directory == tmp_path / "population-cache"

    def test_cache_dir_env_tilde_is_expanded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", "~/env-cache")
        from repro.engine import resolve_cache_dir

        assert resolve_cache_dir() == tmp_path / "env-cache"
        assert resolve_cache_dir("~/arg-cache") == tmp_path / "arg-cache"

    def test_from_flags_matches_cli_semantics(self, tmp_path):
        # The shared --workers/--cache-dir/--no-cache construction rule.
        explicit = PopulationEngine.from_flags(workers=3, cache_dir=tmp_path)
        assert explicit.workers == 3
        assert explicit.cache is not None
        # --workers overrides the small-population serial heuristic.
        assert explicit._effective_workers(2) == 2
        no_cache = PopulationEngine.from_flags(cache_dir=tmp_path, no_cache=True)
        assert no_cache.cache is None
        # Without --workers the serial heuristic stays in force.
        assert PopulationEngine.from_flags()._effective_workers(2) == 1

    def test_each_generate_outside_a_runner_hashes_the_layout(self, tmp_path, monkeypatch):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        engine.generate(CONFIG)
        hashed = count_hashes(monkeypatch)
        engine.generate(CONFIG)
        engine.generate(CONFIG)
        shard = engine.cache.path_for(CONFIG) / "shard-00000.rpsh"
        assert hashed == [shard, shard]

    def test_engine_stats_accounting(self, tmp_path):
        from repro.engine import EngineStats

        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        assert engine.stats == EngineStats()
        config = EnterpriseConfig(num_hosts=4, num_weeks=2, seed=6)
        engine.generate(config)
        engine.generate(config)
        engine.generate(EnterpriseConfig(num_hosts=5, num_weeks=2, seed=6))
        assert engine.stats.generations == 2
        assert engine.stats.cache_hits == 1


class TestSerialization:
    CONFIG = EnterpriseConfig(num_hosts=12, num_weeks=2, seed=77)

    def test_store_load_round_trip(self, tmp_path):
        population = PopulationEngine(workers=1).generate(self.CONFIG)
        cache = PopulationCache(tmp_path)
        assert cache.store(population) == cache.path_for(self.CONFIG)
        loaded = cache.load(self.CONFIG)
        assert_populations_identical(population, loaded)
        for host_id in population.host_ids:
            for feature in PAPER_FEATURES:
                original = population.matrix(host_id).series(feature).values
                restored = loaded.matrix(host_id).series(feature).values
                assert original.dtype == restored.dtype

    def _store_and_rewrite_shard(self, tmp_path, rewrite):
        """Store a population, rewrite its shard's bytes and record their hash.

        With the new hash in the manifest, only the shard reader can reject them.
        """
        cache = PopulationCache(tmp_path)
        cache.store(PopulationEngine(workers=1).generate(self.CONFIG))
        layout = cache.path_for(self.CONFIG)
        shard = layout / "shard-00000.rpsh"
        shard.write_bytes(rewrite(shard.read_bytes()))
        manifest = json.loads((layout / "manifest.json").read_text())
        manifest["shards"][0]["sha256"] = _file_sha256(shard)
        (layout / "manifest.json").write_text(json.dumps(manifest))
        return cache

    def test_bad_magic_is_a_miss(self, tmp_path):
        cache = self._store_and_rewrite_shard(tmp_path, lambda data: b"NOPE" + data[4:])
        assert cache.load(self.CONFIG) is None

    def test_other_format_version_is_a_miss(self, tmp_path):
        def bump_version(data):
            (version,) = struct.unpack("<H", data[4:6])
            return data[:4] + struct.pack("<H", version + 1) + data[6:]

        cache = self._store_and_rewrite_shard(tmp_path, bump_version)
        assert cache.load(self.CONFIG) is None

    def test_truncated_shard_is_a_miss(self, tmp_path):
        # Cut inside the host records, after a valid header.
        cache = self._store_and_rewrite_shard(tmp_path, lambda data: data[:40])
        assert cache.load(self.CONFIG) is None

    @pytest.mark.parametrize(
        "field, offset, value",
        [
            ("role index", 4, len(UserRole)),
            ("feature index", _HOST_STRUCT.size + 1, len(PAPER_FEATURES)),
            ("intensity burst probability", _HOST_STRUCT.size + 1 + 1 + 16, 0.5),
            ("master intensity", 6, 0.0),
        ],
    )
    def test_a_host_record_no_profile_accepts_is_a_miss(self, tmp_path, field, offset, value):
        """Checked at load for every host, although profiles are built on first lookup."""
        record = _HOST_STRUCT.size + 1 + len(PAPER_FEATURES) * _INTENSITY_RECORD_SIZE
        at = _HEADER_STRUCT.size + 7 * record + offset
        packed = struct.pack("<B", value) if isinstance(value, int) else struct.pack("<d", value)

        def rewrite(data):
            return data[:at] + packed + data[at + len(packed) :]

        cache = self._store_and_rewrite_shard(tmp_path, rewrite)
        assert cache.load(self.CONFIG) is None, field

    def test_drift_component_without_kind_is_a_miss(self, tmp_path):
        """The manifest's config is read by the record codec: a malformed one is a ValidationError."""
        config = EnterpriseConfig(
            num_hosts=4, num_weeks=2, seed=77, drift=DriftModel.from_kinds("seasonal")
        )
        cache = PopulationCache(tmp_path)
        cache.store(PopulationEngine(workers=1).generate(config))
        layout = cache.path_for(config)
        assert ShardedPopulation.open(layout).config == config
        manifest = json.loads((layout / "manifest.json").read_text())
        del manifest["config"]["drift"]["components"][0]["kind"]
        (layout / "manifest.json").write_text(json.dumps(manifest))
        assert cache.load(config) is None
        missing = r"drift\.components\[0\]: missing required field\(s\) \['kind'\]"
        with pytest.raises(ValidationError, match=missing):
            ShardedPopulation.open(layout)


class TestPopulationFrame:
    """A population loaded from a one-shard layout is a read-only frame over the mapped shard."""

    CONFIG = EnterpriseConfig(num_hosts=12, num_weeks=2, seed=77)

    @staticmethod
    def _frame(tmp_path):
        population = PopulationEngine(workers=1).generate(TestPopulationFrame.CONFIG)
        cache = PopulationCache(tmp_path)
        cache.store(population)
        return population, cache.load(TestPopulationFrame.CONFIG)

    def test_loaded_matrices_are_the_frame(self, tmp_path):
        generated, loaded = self._frame(tmp_path)
        frame = loaded.matrices()
        assert isinstance(frame, PopulationFrame) and loaded.matrices() is frame
        assert not isinstance(generated.matrices(), PopulationFrame)
        assert len(frame) == 12 and list(frame) == list(frame.host_ids) == list(range(12))
        assert frame.features == PAPER_FEATURES
        assert frame.array.shape == (12, len(PAPER_FEATURES), generated.matrix(0).num_bins)
        for row, host_id in enumerate(frame):
            assert frame[host_id] is loaded.matrix(host_id)
            for column, feature in enumerate(frame.features):
                values = frame[host_id].series(feature).values
                assert np.shares_memory(values, frame.array)
                np.testing.assert_array_equal(values, frame.array[row, column])
                np.testing.assert_array_equal(values, generated.matrix(host_id)[feature].values)
        block = frame.block(PAPER_FEATURES[1], 3, 9)
        np.testing.assert_array_equal(block, frame.array[:, 1, 3:9])
        assert np.shares_memory(block, frame.array)
        assert 12 not in frame and 0 in frame

    def test_host_objects_are_built_on_first_use(self, tmp_path, monkeypatch):
        generated = PopulationEngine(workers=1).generate(self.CONFIG)
        cache = PopulationCache(tmp_path)
        cache.store(generated)
        built = []
        for cls, method in ((FeatureMatrix, "__init__"), (HostProfile, "__post_init__")):
            original = getattr(cls, method)

            def counted(self, *args, _original=original, _name=cls.__name__, **kwargs):
                built.append(_name)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, counted)
        loaded = cache.load(self.CONFIG)
        assert built == []
        frame = loaded.matrices()
        assert frame[5] is frame[5] is loaded.matrix(5)
        assert loaded.profile(5) is loaded.profile(5)
        assert built == ["FeatureMatrix", "HostProfile"]
        assert_populations_identical(generated, loaded)
        assert all(frame[h] is loaded.matrix(h) for h in frame)
        assert built.count("FeatureMatrix") == built.count("HostProfile") == len(frame)

    def test_writes_raise(self, tmp_path):
        _, loaded = self._frame(tmp_path)
        frame = loaded.matrices()
        with pytest.raises(ValueError, match="read-only"):
            frame.array[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            frame.array[3, 2][:] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            frame.block(PAPER_FEATURES[0], 0, 4)[0, 0] = 1.0
        with pytest.raises(TypeError):
            frame[0] = frame[1]

    def test_constructor_rejects_writeable_misshapen_or_non_float64_blocks(self):
        features = PAPER_FEATURES[:2]
        spec = BinSpec(900.0)
        writeable = np.zeros((3, 2, 8))
        with pytest.raises(ValidationError, match="read-only"):
            PopulationFrame(range(3), features, spec, writeable)
        misfits = (np.zeros((3, 3, 8)), np.zeros((2, 2, 8)), np.zeros((3, 2)))
        for bad in (*misfits, np.zeros((3, 2, 8), np.float32)):
            bad.flags.writeable = False
            with pytest.raises(ValidationError, match="frame array"):
                PopulationFrame(range(3), features, spec, bad)
        block = np.zeros((3, 2, 8))
        block.flags.writeable = False
        with pytest.raises(ValidationError, match="distinct"):
            PopulationFrame([0, 1, 1], features, spec, block)
        frame = PopulationFrame([5, 3, 4], features, spec, block)
        assert list(frame) == [5, 3, 4] and frame.bin_spec == spec

    def test_frame_keeps_its_mapping_alive(self, tmp_path):
        """The population may go; its frame still reads the file (no leaked handle)."""
        generated, loaded = self._frame(tmp_path)
        frame = loaded.matrices()
        del loaded
        gc.collect()
        expected = generated.matrix(11)[PAPER_FEATURES[0]].values.sum()
        assert frame[11][PAPER_FEATURES[0]].values.sum() == expected

    def test_multi_shard_layout_loads_as_a_plain_mapping(self, tmp_path):
        generated = PopulationEngine(workers=1).generate(self.CONFIG)
        cache = PopulationCache(tmp_path)
        write_population_sharded(cache.path_for(self.CONFIG), generated, hosts_per_shard=5)
        loaded = cache.load(self.CONFIG)
        # One read-only view of a plain dict, the same on every call.
        matrices = loaded.matrices()
        assert type(matrices) is MappingProxyType and loaded.matrices() is matrices
        assert_populations_identical(generated, loaded)


def flip_value_byte(shard: Path) -> None:
    """Flip a bin value of a shard's last host: the header still parses."""
    data = bytearray(shard.read_bytes())
    data[-3] ^= 0xFF
    shard.write_bytes(bytes(data))


#: Child process for the kill tests: SIGKILLs itself inside
#: ``PopulationCache.store`` once the shard files are written, just before
#: the manifest is replaced.
_KILLED_IN_STORE = """
import os, signal, sys
import repro.engine.serialization as serialization
from repro.engine import PopulationEngine
from repro.workload.enterprise import EnterpriseConfig

def killed(directory, manifest):
    os.kill(os.getpid(), signal.SIGKILL)

serialization._write_manifest = killed
num_hosts, num_weeks, seed = map(int, sys.argv[2:])
config = EnterpriseConfig(num_hosts=num_hosts, num_weeks=num_weeks, seed=seed)
PopulationEngine(workers=1, cache_dir=sys.argv[1]).generate(config)
raise SystemExit("the cache write was not interrupted")
"""


def _killed_in_store(cache_dir: Path) -> None:
    """Run ``_KILLED_IN_STORE`` on ``CONFIG`` against ``cache_dir``."""
    paths = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
    fields = (CONFIG.num_hosts, CONFIG.num_weeks, CONFIG.seed)
    arguments = [str(cache_dir), *map(str, fields)]
    child = subprocess.run(
        [sys.executable, "-c", _KILLED_IN_STORE, *arguments], env=env, timeout=120
    )
    assert child.returncode == -signal.SIGKILL


class TestInterruptedCacheWrite:
    """A process killed inside ``store`` leaves a cache the next run recovers from."""

    def test_kill_before_first_manifest_is_a_miss(self, tmp_path):
        _killed_in_store(tmp_path)
        layout = PopulationCache(tmp_path).path_for(CONFIG)
        # Shards are written before the manifest: the kill left a shard
        # file that no manifest records.
        assert (layout / "shard-00000.rpsh").is_file()
        assert not (layout / "manifest.json").exists()
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        resumed = engine.generate(CONFIG)
        assert engine.last_report.cache_hit is False
        assert_populations_identical(resumed, PopulationEngine(workers=1).generate(CONFIG))
        engine.generate(CONFIG)
        assert engine.last_report.cache_hit is True

    def test_kill_while_rewriting_a_corrupt_shard(self, tmp_path):
        PopulationEngine(workers=1, cache_dir=tmp_path).generate(CONFIG)
        layout = PopulationCache(tmp_path).path_for(CONFIG)
        flip_value_byte(layout / "shard-00000.rpsh")
        _killed_in_store(tmp_path)
        engine = PopulationEngine(workers=1, cache_dir=tmp_path)
        resumed = engine.generate(CONFIG)
        # The rewritten shard is the bytes the old manifest recorded.
        assert engine.last_report.cache_hit is True
        assert_populations_identical(resumed, PopulationEngine(workers=1).generate(CONFIG))
