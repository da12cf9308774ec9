"""Tests for the sweep runner and the JSONL result store."""

from __future__ import annotations

import errno
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
import repro.sweeps.runner as runner_module
from repro.engine import PopulationEngine
from repro.sweeps import (
    RESULT_SCHEMA_VERSION,
    ResultStore,
    ScenarioRecord,
    SweepRunner,
    SweepSpec,
    aggregate,
    comparison_table,
    pivot,
    run_scenario,
)
from repro.sweeps.catalog import builtin_sweeps
from repro.sweeps.spec import scenario_spec_hash
from repro.telemetry import TelemetryRecorder, use_recorder
from repro.utils.validation import ValidationError

from helpers import count_hashes, process_exited


def _sweep(axes, num_hosts=8, mode="grid", name="test-sweep"):
    return SweepSpec.from_dict(
        {
            "sweep": {"name": name, "mode": mode},
            "scenario": {
                "name": "base",
                "population": {"num_hosts": num_hosts, "num_weeks": 2, "seed": 77},
                "attack": {"kind": "naive", "size": 50.0},
            },
            "axes": axes,
        }
    )


@pytest.fixture()
def counting_generation(monkeypatch):
    """Count real population generations (cache hits don't call this)."""
    import repro.engine.engine as engine_module

    calls = []
    original = engine_module._generate_host_chunk

    def counted(config, host_ids, roles):
        calls.append(config)
        return original(config, host_ids, roles)

    monkeypatch.setattr(engine_module, "_generate_host_chunk", counted)
    return calls


class TestRunner:
    def test_shared_population_generated_exactly_once(self, tmp_path, counting_generation):
        sweep = _sweep(
            {
                "policy.kind": ["homogeneous", "full-diversity", "partial-diversity"],
                "attack.size": [25.0, 100.0],
            }
        )
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        runner = SweepRunner(engine=engine, workers=1)
        run = runner.run(sweep)

        assert len(run.results) == 6
        assert run.distinct_populations == 1
        assert run.populations_generated == 1
        assert run.populations_from_cache == 0
        # Engine-level accounting and the raw generation call count agree.
        assert engine.stats.generations == 1
        assert len(counting_generation) == 1
        assert [r.population_reused for r in run.results] == [False] + [True] * 5

    def test_rerun_serves_population_from_cache(self, tmp_path, counting_generation):
        sweep = _sweep({"policy.kind": ["homogeneous", "full-diversity"]})
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        runner = SweepRunner(engine=engine, workers=1)
        runner.run(sweep)
        second = runner.run(sweep)
        assert second.populations_generated == 0
        assert second.populations_from_cache == 1
        assert len(counting_generation) == 1

    def test_distinct_population_configs_each_generated(self, tmp_path, counting_generation):
        sweep = _sweep(
            {
                "population.num_hosts": [6, 9],
                "policy.kind": ["homogeneous", "full-diversity"],
            }
        )
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        run = SweepRunner(engine=engine, workers=1).run(sweep)
        assert len(run.results) == 4
        assert run.distinct_populations == 2
        assert run.populations_generated == 2
        assert len(counting_generation) == 2

    def test_population_key_computed_once_per_scenario(self, tmp_path, monkeypatch):
        """Deduplication, reuse flags and serial evaluation share one key per scenario."""
        keyed = []
        original = runner_module.population_cache_key

        def counted(config, roles=None):
            keyed.append(config.num_hosts)
            return original(config, roles)

        monkeypatch.setattr(runner_module, "population_cache_key", counted)
        sweep = _sweep(
            {
                "population.num_hosts": [6, 9],
                "policy.kind": ["homogeneous", "full-diversity"],
            }
        )
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        run = SweepRunner(engine=engine, workers=1).run(sweep)
        assert sorted(keyed) == [6, 6, 9, 9]
        assert run.distinct_populations == 2
        assert sum(result.population_reused for result in run.results) == 2
        assert {result.outcome.num_hosts for result in run.results} == {6, 9}
        for result in run.results:
            assert result.outcome.num_hosts == result.scenario.population.num_hosts

    def test_uncached_engine_still_deduplicates_in_memory(self, counting_generation):
        sweep = _sweep({"policy.kind": ["homogeneous", "full-diversity"]})
        engine = PopulationEngine(workers=1, use_cache=False)
        run = SweepRunner(engine=engine, workers=1).run(sweep)
        assert len(run.results) == 2
        assert run.populations_generated == 1
        assert len(counting_generation) == 1

    def test_results_follow_sweep_order_and_metrics_are_sane(self, tmp_path):
        sweep = _sweep({"attack.size": [10.0, 400.0]})
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        run = SweepRunner(engine=engine, workers=1).run(sweep)
        names = [result.scenario.name for result in run.results]
        assert names == ["test-sweep/size=10", "test-sweep/size=400"]
        for result in run.results:
            outcome = result.outcome
            assert 0.0 <= outcome.mean_utility <= 1.0
            assert 0.0 <= outcome.mean_f_measure <= 1.0
            assert outcome.num_hosts == 8
        # Bigger attacks are easier to detect.
        small, big = run.results
        assert big.outcome.mean_detection_rate >= small.outcome.mean_detection_rate

    def test_progress_callback_streams_every_scenario(self, tmp_path):
        sweep = _sweep({"policy.kind": ["homogeneous", "full-diversity"]})
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        seen = []
        SweepRunner(engine=engine, workers=1).run(
            sweep, progress=lambda done, total, result: seen.append((done, total))
        )
        assert seen == [(1, 2), (2, 2)]

    def test_parallel_evaluation_matches_serial(self, tmp_path):
        sweep = _sweep({"policy.kind": ["homogeneous", "full-diversity"]})
        serial_engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        serial = SweepRunner(engine=serial_engine, workers=1).run(sweep)
        parallel_engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        parallel = SweepRunner(engine=parallel_engine, workers=2).run(sweep)
        assert [r.outcome for r in parallel.results] == [r.outcome for r in serial.results]

    def test_parallel_run_streams_every_scenario_once(self, tmp_path):
        sweep = _sweep({"attack.size": [10.0, 50.0, 400.0]})
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        seen = []
        run = SweepRunner(engine=engine, workers=2).run(
            sweep, store=store, progress=lambda done, total, result: seen.append(
                (done, total, result.scenario.name)
            )
        )
        names = [scenario.name for scenario in sweep.expand()]
        assert [result.scenario.name for result in run.results] == names
        assert run.workers == 2
        assert [(done, total) for done, total, _ in seen] == [(1, 3), (2, 3), (3, 3)]
        assert sorted(name for _, _, name in seen) == sorted(names)
        # Each record is appended before its progress call, so the store holds
        # the scenarios in the order they finished.
        assert [record.scenario for record in store.records()] == [name for _, _, name in seen]

    def test_run_scenario_equals_runner_outcome(self, tmp_path):
        sweep = _sweep({"attack.size": [60.0]})
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        run = SweepRunner(engine=engine, workers=1).run(sweep)
        scenario = run.results[0].scenario
        population = engine.generate(scenario.population.to_config())
        assert run_scenario(scenario, population) == run.results[0].outcome

    def test_store_appends_stream_per_scenario(self, tmp_path):
        # An interrupted campaign must keep every completed scenario: the
        # record lands in the store before the progress callback fires.
        sweep = _sweep({"policy.kind": ["homogeneous", "full-diversity"]})
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")

        def interrupt_after_first(done, total, result):
            if done == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SweepRunner(engine=engine, workers=1).run(
                sweep, store=store, progress=interrupt_after_first
            )
        assert len(store.records()) == 1

    def test_store_receives_one_record_per_scenario(self, tmp_path):
        sweep = _sweep({"policy.kind": ["homogeneous", "full-diversity"]})
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        SweepRunner(engine=engine, workers=1).run(sweep, store=store, run_id="run-1")
        records = store.records()
        assert len(records) == 2
        assert all(record.run_id == "run-1" for record in records)
        assert all(record.sweep == "test-sweep" for record in records)
        assert all(record.schema == RESULT_SCHEMA_VERSION for record in records)
        # Records are self-describing: the stored spec reloads and re-runs.
        reloaded = records[0]
        from repro.sweeps import ScenarioSpec

        spec = ScenarioSpec.from_dict(reloaded.spec)
        assert spec.name == reloaded.scenario


    def test_pool_failure_runs_only_unfinished_scenarios_in_process(self, tmp_path, monkeypatch):
        sweep = _sweep({"attack.size": [10.0, 50.0, 400.0]})
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        serial = SweepRunner(engine=engine, workers=1).run(sweep)

        def pool_that_breaks_after_one_result(task, arguments, workers, on_result):
            on_result(task(*arguments[1])[0])
            return False

        monkeypatch.setattr(runner_module, "_run_pool", pool_that_breaks_after_one_result)
        store = ResultStore(tmp_path / "results.jsonl")
        seen = []
        run = SweepRunner(engine=engine, workers=2).run(
            sweep, store=store, progress=lambda done, total, result: seen.append(
                (done, result.scenario.name)
            )
        )
        names = [result.scenario.name for result in serial.results]
        assert [result.scenario.name for result in run.results] == names
        assert [r.outcome for r in run.results] == [r.outcome for r in serial.results]
        assert run.workers == 1
        # The pool's one result lands first; only the other two run in-process.
        assert seen == [(1, names[1]), (2, names[0]), (3, names[2])]
        assert [record.scenario for record in store.records()] == [name for _, name in seen]

    @pytest.mark.parametrize("where", ["store", "progress"])
    def test_parallel_callback_error_is_not_a_pool_failure(self, tmp_path, where):
        # A full disk under the store or a failing progress check raises one of
        # the errors a broken pool raises.  Only the first call fails, as a
        # transient error would: it must still propagate, not send the rest of
        # the sweep to the in-process fallback with the first record lost.
        sweep = _sweep({"attack.size": [10.0, 50.0, 400.0]})
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        error = OSError(errno.ENOSPC, "No space left on device")
        calls = []

        class FullDiskOnceStore(ResultStore):
            def append(self, record):
                calls.append(record.scenario)
                if len(calls) == 1:
                    raise error
                super().append(record)

        def failing_once_progress(done, total, result):
            if done == 1:
                raise AssertionError("progress check")

        store_class = FullDiskOnceStore if where == "store" else ResultStore
        progress = failing_once_progress if where == "progress" else None
        with pytest.raises((OSError, AssertionError)) as raised:
            SweepRunner(engine=engine, workers=2).run(
                sweep, store=store_class(tmp_path / "results.jsonl"), progress=progress
            )
        if where == "store":
            assert raised.value is error
            assert len(calls) == 1
        else:
            assert str(raised.value) == "progress check"
            # The record landed before the progress call that failed.
            assert len(ResultStore(tmp_path / "results.jsonl").records()) == 1


class TestSweepResultCache:
    def test_second_run_skips_scenarios_already_in_store(self, tmp_path, counting_generation):
        sweep = _sweep({"policy.kind": ["homogeneous", "full-diversity"]})
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        runner = SweepRunner(engine=engine, workers=1)
        first = runner.run(sweep, store=store)
        assert len(first.results) == 2
        assert first.skipped_count == 0

        second = runner.run(sweep, store=store)
        assert len(second.results) == 0
        assert second.skipped_count == 2
        assert set(second.skipped_scenarios) == {
            "test-sweep/kind=homogeneous",
            "test-sweep/kind=full-diversity",
        }
        assert "2 skipped (already in store)" in second.summary()
        # No duplicate records were appended.
        assert len(store.records()) == 2

    def test_rerun_flag_forces_reevaluation(self, tmp_path):
        sweep = _sweep({"policy.kind": ["homogeneous"]})
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        runner = SweepRunner(engine=engine, workers=1)
        runner.run(sweep, store=store)
        forced = runner.run(sweep, store=store, skip_existing=False)
        assert len(forced.results) == 1
        assert forced.skipped_count == 0
        assert len(store.records()) == 2

    def test_changed_scenario_not_skipped(self, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        runner = SweepRunner(engine=engine, workers=1)
        runner.run(_sweep({"attack.size": [25.0]}), store=store)
        # A different attack size hashes differently and is evaluated.
        second = runner.run(_sweep({"attack.size": [75.0]}), store=store)
        assert len(second.results) == 1
        assert second.skipped_count == 0

    def test_no_store_means_no_skipping(self, tmp_path):
        sweep = _sweep({"policy.kind": ["homogeneous"]})
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        runner = SweepRunner(engine=engine, workers=1)
        runner.run(sweep)
        second = runner.run(sweep)
        assert len(second.results) == 1
        assert second.skipped_count == 0

    def test_flipping_optimizer_forces_reevaluation(self, tmp_path):
        """The spec hash covers the optimizer config: changing only
        ``evaluation.optimizer`` must never reuse a stale stored outcome."""
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        runner = SweepRunner(engine=engine, workers=1)
        independent = _sweep({"evaluation.optimizer.kind": ["independent"]})
        first = runner.run(independent, store=store)
        assert len(first.results) == 1
        assert first.skipped_count == 0
        # The identical spec is served from the result cache...
        again = runner.run(independent, store=store)
        assert again.skipped_count == 1
        # ...but a different optimizer hashes differently and re-evaluates.
        ascent = _sweep({"evaluation.optimizer.kind": ["coordinate-ascent"]})
        third = runner.run(ascent, store=store)
        assert third.skipped_count == 0
        assert len(third.results) == 1
        records = store.records()
        assert len(records) == 2
        assert {record.metrics["optimizer"] for record in records} == {
            "independent",
            "coordinate-ascent",
        }
        # Tuning an optimizer parameter is a different configuration too.
        tuned = _sweep({"evaluation.optimizer.num_candidates": [24]})
        tuned = SweepSpec.from_dict(
            {
                **tuned.to_dict(),
                "axes": {
                    "evaluation.optimizer.kind": ["coordinate-ascent"],
                    "evaluation.optimizer.num_candidates": [24],
                },
            }
        )
        fourth = runner.run(tuned, store=store)
        assert fourth.skipped_count == 0
        assert len(fourth.results) == 1

    def test_optimizer_plans_for_the_attacked_feature(self):
        """The fused objective must target the feature the attack perturbs,
        not blindly the primary feature."""
        from repro.core.evaluation import DetectionProtocol
        from repro.features.definitions import Feature
        from repro.sweeps import ScenarioSpec
        from repro.sweeps.runner import planned_attack_feature

        def scenario(attack):
            return ScenarioSpec.from_dict(
                {
                    "name": "s",
                    "population": {"num_hosts": 4, "num_weeks": 2},
                    "attack": attack,
                    "evaluation": {
                        "features": ["num_tcp_connections", "num_dns_connections"],
                        "optimizer": {"kind": "coordinate-ascent"},
                    },
                }
            )

        def protocol(spec):
            return DetectionProtocol(features=spec.evaluation.features_enum())

        dns_attack = scenario({"kind": "mimicry", "feature": "num_dns_connections"})
        assert planned_attack_feature(dns_attack, protocol(dns_attack)) == (
            Feature.DNS_CONNECTIONS
        )
        optimizer = dns_attack.evaluation.optimizer.build(
            weight=0.4,
            attack_sizes=(10.0,),
            attack_feature=planned_attack_feature(dns_attack, protocol(dns_attack)),
        )
        objective = optimizer.objective()
        assert objective.attack_feature == Feature.DNS_CONNECTIONS
        assert objective.target_index(protocol(dns_attack).features) == 1

        # No attack, or an attack outside the evaluated set, plans for the
        # primary feature.
        no_attack = scenario({"kind": "none"})
        assert planned_attack_feature(no_attack, protocol(no_attack)) is None
        outside = scenario({"kind": "botnet", "feature": "num_udp_connections"})
        assert planned_attack_feature(outside, protocol(outside)) is None

    def test_v2_record_without_optimizer_fields_still_readable(self, tmp_path):
        """Pre-optimizer (schema 2) stores load fine: missing fields read as
        heuristic-only selection."""
        from repro.core.experiment import ScenarioOutcome
        from repro.sweeps import ScenarioSpec

        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        SweepRunner(engine=engine, workers=1).run(
            _sweep({"policy.kind": ["homogeneous"]}), store=store
        )
        record = store.records()[0]
        payload = record.to_dict()
        payload["schema"] = 2
        del payload["spec"]["evaluation"]["optimizer"]
        for key in ("optimizer", "objective_value", "optimizer_iterations"):
            del payload["metrics"][key]
        (tmp_path / "v2.jsonl").write_text(json.dumps(payload) + "\n", encoding="utf-8")

        v2_record = ResultStore(tmp_path / "v2.jsonl").records()[0]
        assert v2_record.schema == 2
        spec = ScenarioSpec.from_dict(v2_record.spec)
        assert spec.evaluation.optimizer.kind == "none"
        outcome = ScenarioOutcome.from_dict(v2_record.metrics)
        assert outcome.optimizer == "none"
        assert outcome.objective_value is None
        assert outcome.optimizer_iterations == 0


def _reuse_counts(sweep, engine):
    """(reused trainings, reused assignments, assignments) of one serial run of ``sweep``."""
    recorder = TelemetryRecorder()
    with use_recorder(recorder):
        SweepRunner(engine=engine, workers=1).run(sweep)
    counters = recorder.counters
    return (
        counters.get("core.trainings_reused", 0),
        counters.get("core.assignments_reused", 0),
        counters["optimize.assignments"],
    )


def _memo_sweep(axes, **scenario):
    """A two-feature sweep over ``axes``; ``scenario`` tables replace the base's."""
    base = {
        "name": "base",
        "population": {"num_hosts": 8, "num_weeks": 3, "seed": 77},
        "attack": {"kind": "naive", "size": 50.0},
        "evaluation": {"features": ["num_tcp_connections", "num_dns_connections"]},
    }
    base.update(scenario)
    return SweepSpec.from_dict(
        {"sweep": {"name": "memo-sweep", "mode": "grid"}, "scenario": base, "axes": axes}
    )


class TestEvaluationMemo:
    """One memo per run shares trainings and assignments, bit for bit."""

    @staticmethod
    def _at_16_hosts(spec):
        data = spec.to_dict()
        data["scenario"]["population"]["num_hosts"] = 16
        if "population.num_hosts" in data["axes"]:
            data["axes"]["population.num_hosts"] = [16]
        return SweepSpec.from_dict(data)

    def test_every_packaged_sweep_matches_its_scenarios_run_alone(self, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        recorder = TelemetryRecorder()
        for spec in builtin_sweeps().values():
            with use_recorder(recorder):
                run = SweepRunner(engine=engine, workers=1).run(self._at_16_hosts(spec))
            for result in run.results:
                population = engine.generate(result.scenario.population.to_config())
                alone = run_scenario(result.scenario, population).to_dict()
                shared = result.outcome.to_dict()
                for outcome in (alone, shared):
                    outcome.pop("training_cost_seconds")
                assert shared == alone, result.scenario.name
        assert recorder.counters["core.trainings_reused"] > 0
        assert recorder.counters["core.assignments_reused"] > 0

    @pytest.mark.parametrize(
        "axes, scenario",
        [
            (
                {"evaluation.fusion.rule": ["any", "all"]},
                {"evaluation": {
                    "features": ["num_tcp_connections", "num_dns_connections"],
                    "optimizer": {"kind": "independent"},
                }},
            ),
            (
                {"policy.attack_sizes": [[10.0, 50.0], [20.0, 100.0]]},
                {"policy": {"kind": "partial-diversity", "heuristic": "utility"}},
            ),
            ({"policy.percentile": [95.0, 99.0]}, {}),
            ({"evaluation.train_week": [0, 2]}, {}),
            (
                {"evaluation.features": [
                    ["num_tcp_connections"], ["num_tcp_connections", "num_dns_connections"]
                ]},
                {},
            ),
            ({"policy.kind": ["homogeneous", "full-diversity"]}, {}),
            ({"population.seed": [77, 78]}, {}),
        ],
        ids=[
            "fusion",
            "attack-sizes",
            "percentile",
            "train-week",
            "features",
            "policy-kind",
            "population",
        ],
    )
    def test_scenarios_differing_in_an_assign_input_do_not_share(self, tmp_path, axes, scenario):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        _, reused, assignments = _reuse_counts(_memo_sweep(axes, **scenario), engine)
        assert (reused, assignments) == (0, 2)

    @pytest.mark.parametrize(
        "axes",
        [{"attack.size": [10.0, 50.0, 400.0]}, {"attack.kind": ["naive", "mimicry", "none"]}],
        ids=["attack-size", "attack-kind"],
    )
    def test_scenarios_differing_only_in_the_attack_share(self, tmp_path, axes):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        assert _reuse_counts(_memo_sweep(axes), engine) == (4, 2, 3)

    def test_uncached_populations_reuse_as_much_as_a_warm_cache(self, tmp_path):
        sweep = _memo_sweep({"attack.size": [10.0, 50.0, 400.0]})
        warm = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        warm.generate(sweep.scenario.population.to_config())
        uncached = PopulationEngine(workers=1, use_cache=False)
        assert _reuse_counts(sweep, uncached) == _reuse_counts(sweep, warm) == (4, 2, 3)


def _outcomes(run):
    """A run's outcomes by scenario name, without their wall-clock training cost."""
    outcomes = {}
    for result in run.results:
        outcome = result.outcome.to_dict()
        outcome.pop("training_cost_seconds")
        outcomes[result.scenario.name] = outcome
    return outcomes


def _rewrite_in_place(path: Path, data: bytes) -> None:
    """Write ``data`` over ``path`` (same inode) and move its mtime on by a second.

    A second is coarser than any file system's timestamp granularity, so the
    rewrite shows in the mtime even when it lands in the tick of the last
    write, as it would on a later clock.
    """
    status = path.stat()
    with open(path, "r+b") as handle:
        handle.write(data)
        handle.truncate()
    os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns + 1_000_000_000))


class TestVerifiedLayouts:
    """A runner hashes a cached layout once, until its file or manifest record changes."""

    FIRST = _sweep({"policy.kind": ["homogeneous", "full-diversity"]}, name="first")
    SECOND = _sweep({"attack.size": [25.0, 75.0]}, name="second")

    def _warm(self, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        config = self.FIRST.scenario.population.to_config()
        engine.generate(config)
        layout = engine.cache.path_for(config)
        return engine, layout / "shard-00000.rpsh", layout / "manifest.json"

    def test_two_runs_on_one_unchanged_layout_hash_its_shard_once(self, tmp_path, monkeypatch):
        engine, shard, _ = self._warm(tmp_path)
        hashed = count_hashes(monkeypatch)
        runner = SweepRunner(engine=engine, workers=1)
        runner.run(self.FIRST)
        runner.run(self.SECOND)
        assert hashed == [shard]
        # Another runner on the same engine has checked nothing yet.
        SweepRunner(engine=engine, workers=1).run(self.SECOND)
        assert hashed == [shard, shard]

    @pytest.mark.parametrize(
        "change", ["rewritten-in-place", "replaced-by-rename", "manifest-hash", "corrupt"]
    )
    def test_a_changed_layout_is_hashed_again(self, tmp_path, monkeypatch, change):
        engine, shard, manifest_path = self._warm(tmp_path)
        hashed = count_hashes(monkeypatch)
        runner = SweepRunner(engine=engine, workers=1)
        runner.run(self.FIRST)
        data = shard.read_bytes()
        if change == "rewritten-in-place":
            _rewrite_in_place(shard, data)
        elif change == "replaced-by-rename":
            # A copy that keeps the size and mtime (as cp -p would): only the inode moves.
            status = shard.stat()
            replacement = shard.with_suffix(".new")
            replacement.write_bytes(data)
            os.utime(replacement, ns=(status.st_atime_ns, status.st_mtime_ns))
            os.replace(replacement, shard)
        elif change == "manifest-hash":
            manifest = json.loads(manifest_path.read_text())
            manifest["shards"][0]["sha256"] = "0" * 64
            manifest_path.write_text(json.dumps(manifest))
        else:
            corrupt = bytearray(data)
            corrupt[-3] ^= 0xFF
            _rewrite_in_place(shard, bytes(corrupt))
        second = runner.run(self.SECOND)
        assert hashed == [shard, shard]
        # A shard that no longer matches its record is a miss: regenerated and rewritten.
        assert second.populations_generated == (change in ("manifest-hash", "corrupt"))
        fresh_engine = PopulationEngine(workers=1, cache_dir=tmp_path / "fresh")
        assert _outcomes(second) == _outcomes(SweepRunner(engine=fresh_engine).run(self.SECOND))


class TestMultiFeatureScenarios:
    def _fusion_sweep(self, tmp_path):
        return SweepSpec.from_dict(
            {
                "sweep": {"name": "fusion-sweep", "mode": "grid"},
                "scenario": {
                    "name": "base",
                    "population": {"num_hosts": 8, "num_weeks": 2, "seed": 77},
                    "attack": {"kind": "mimicry", "feature": "num_tcp_connections"},
                    "evaluation": {
                        "features": ["num_tcp_connections", "num_dns_connections"],
                        "fusion": {"rule": "k_of_n", "k": 2},
                    },
                },
                "axes": {"evaluation.fusion.rule": ["any", "all"]},
            }
        )

    def test_fusion_sweep_stores_per_feature_and_fused_metrics(self, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        run = SweepRunner(engine=engine, workers=1).run(self._fusion_sweep(tmp_path), store=store)
        assert len(run.results) == 2
        for record in store.records():
            metrics = record.metrics
            assert metrics["num_features"] == 2
            assert set(metrics["per_feature"]) == {
                "num_tcp_connections",
                "num_dns_connections",
            }
            for per_feature in metrics["per_feature"].values():
                assert 0.0 <= per_feature["mean_false_positive_rate"] <= 1.0
        by_fusion = {record.metrics["fusion"]: record.metrics for record in store.records()}
        assert set(by_fusion) == {"any", "all"}
        # any-fusion can only raise more benign alarms than all-fusion.
        assert by_fusion["any"]["total_false_alarms"] >= by_fusion["all"]["total_false_alarms"]

    def test_parallel_matches_serial_for_multi_feature(self, tmp_path):
        sweep = self._fusion_sweep(tmp_path)
        serial_engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        serial = SweepRunner(engine=serial_engine, workers=1).run(sweep)
        parallel_engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        parallel = SweepRunner(engine=parallel_engine, workers=2).run(sweep)
        assert [r.outcome for r in parallel.results] == [r.outcome for r in serial.results]


class TestTimelineScenarios:
    def _cadence_sweep(self):
        return SweepSpec.from_dict(
            {
                "sweep": {"name": "cadence-sweep", "mode": "grid"},
                "scenario": {
                    "name": "base",
                    "population": {
                        "num_hosts": 8,
                        "num_weeks": 4,
                        "seed": 77,
                        "drift": {"kind": "flash-crowd", "weeks": [2]},
                    },
                    "attack": {"kind": "none"},
                    "evaluation": {"schedule": {"kind": "never"}},
                },
                "axes": {
                    "evaluation.schedule.kind": ["never", "every-k-weeks"],
                },
            }
        )

    def test_timeline_records_carry_schedule_and_staleness_fields(self, tmp_path):
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        SweepRunner(engine=engine, workers=1).run(self._cadence_sweep(), store=store)
        records = store.records()
        assert len(records) == 2
        for record in records:
            assert record.schema == RESULT_SCHEMA_VERSION == 5
            metrics = record.metrics
            assert metrics["schedule"] in ("never", "every-1-weeks")
            assert metrics["num_timeline_weeks"] == 3
            assert set(metrics["timeline"]) == {"1", "2", "3"}
            assert "training_cost_seconds" in metrics
            assert record.value("timeline.2.mean_utility") == pytest.approx(
                metrics["timeline"]["2"]["mean_utility"]
            )
        by_schedule = {record.metrics["schedule"]: record.metrics for record in records}
        assert by_schedule["never"]["retrain_count"] == 0
        assert by_schedule["every-1-weeks"]["retrain_count"] == 2

    def test_never_timeline_week1_matches_one_shot_scenario(self, tmp_path):
        """The sweep-level golden regression: a never-schedule timeline's first
        week reproduces the one-shot scenario's metrics bit for bit."""
        from repro.sweeps import ScenarioSpec

        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        base = {
            "name": "base",
            "population": {"num_hosts": 8, "num_weeks": 4, "seed": 77},
            "attack": {"kind": "naive", "size": 50.0},
        }
        population = engine.generate(
            ScenarioSpec.from_dict(base).population.to_config()
        )
        oneshot = run_scenario(ScenarioSpec.from_dict(base), population)
        timeline = run_scenario(
            ScenarioSpec.from_dict(
                {**base, "evaluation": {"schedule": {"kind": "never"}}}
            ),
            population,
        )
        week1 = timeline.timeline["1"]
        for key in (
            "mean_utility",
            "median_utility",
            "mean_false_positive_rate",
            "mean_false_negative_rate",
            "mean_detection_rate",
            "mean_f_measure",
            "total_false_alarms",
            "fraction_raising_alarm",
        ):
            assert week1[key] == getattr(oneshot, key), key

    def test_parallel_matches_serial_for_timelines(self, tmp_path):
        sweep = self._cadence_sweep()
        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        serial = SweepRunner(engine=engine, workers=1).run(sweep)
        parallel = SweepRunner(engine=engine, workers=2).run(sweep)

        def metrics(outcome):
            payload = outcome.to_dict()
            payload.pop("training_cost_seconds")  # wall-clock, run-dependent
            return payload

        for left, right in zip(serial.results, parallel.results, strict=True):
            assert metrics(left.outcome) == metrics(right.outcome)

    def test_v3_record_without_temporal_fields_still_readable(self, tmp_path):
        """Pre-temporal (schema 3) stores load fine: missing fields read as
        the classic one-shot evaluation."""
        from repro.core.experiment import ScenarioOutcome
        from repro.sweeps import ScenarioSpec

        engine = PopulationEngine(workers=1, cache_dir=tmp_path / "cache")
        store = ResultStore(tmp_path / "results.jsonl")
        SweepRunner(engine=engine, workers=1).run(
            _sweep({"policy.kind": ["homogeneous"]}), store=store
        )
        record = store.records()[0]
        payload = record.to_dict()
        payload["schema"] = 3
        del payload["spec"]["evaluation"]["schedule"]
        del payload["spec"]["population"]["drift"]
        for key in (
            "schedule",
            "num_timeline_weeks",
            "retrain_count",
            "retrain_weeks",
            "utility_decay_slope",
            "timeline",
            "training_cost_seconds",
        ):
            del payload["metrics"][key]
        (tmp_path / "v3.jsonl").write_text(json.dumps(payload) + "\n", encoding="utf-8")

        v3_record = ResultStore(tmp_path / "v3.jsonl").records()[0]
        assert v3_record.schema == 3
        spec = ScenarioSpec.from_dict(v3_record.spec)
        assert spec.evaluation.schedule.kind == "one-shot"
        assert spec.population.drift.kind == "none"
        outcome = ScenarioOutcome.from_dict(v3_record.metrics)
        assert outcome.schedule == "one-shot"
        assert outcome.timeline == {}
        assert outcome.retrain_count == 0


class TestResultStore:
    def _record(self, scenario="s1", kind="homogeneous", size=10.0, utility=0.5):
        return ScenarioRecord(
            sweep="sw",
            scenario=scenario,
            spec={"policy": {"kind": kind}, "attack": {"size": size}},
            metrics={"mean_utility": utility, "total_false_alarms": 3},
        )

    def test_append_read_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "nested" / "store.jsonl")
        record = self._record()
        store.append(record)
        store.append(self._record(scenario="s2"))
        loaded = store.records()
        assert len(loaded) == len(store) == 2
        assert loaded[0] == record

    def test_future_schema_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        payload = self._record().to_dict()
        payload["schema"] = RESULT_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(ValidationError, match="newer than supported"):
            ResultStore(path).records()

    def test_corrupt_line_rejected_with_location(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps(self._record().to_dict()) + "\nnot json\n")
        with pytest.raises(ValidationError, match="2: not valid JSON"):
            ResultStore(path).records()

    def _torn_store(self, tmp_path, count=12):
        """A store of ``count`` records whose last append was cut off mid-record."""
        store = ResultStore(tmp_path / "store.jsonl")
        for index in range(count):
            store.append(self._record(scenario=f"s{index}", size=float(index)))
        text = store.path.read_text()
        store.path.write_text(text[: text.rindex("\n", 0, -1) + 40])
        return store

    def test_torn_final_line_skipped_with_warning(self, tmp_path, jsonl_warnings):
        store = self._torn_store(tmp_path)
        assert [record.scenario for record in store.records()] == [f"s{i}" for i in range(11)]
        assert jsonl_warnings == [
            f"{store.path}:12: skipping torn final line (interrupted append)"
        ]

    def test_append_after_torn_line_keeps_every_record_readable(self, tmp_path, jsonl_warnings):
        store = self._torn_store(tmp_path)
        store.append(self._record(scenario="s11"))
        assert [record.scenario for record in store.records()] == [f"s{i}" for i in range(12)]
        assert store.path.read_text().count("\n") == 12
        assert jsonl_warnings == [f"{store.path}:12: dropping torn final line (interrupted append)"]

    def test_append_after_complete_line_missing_its_newline(self, tmp_path, jsonl_warnings):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps(self._record().to_dict()))
        store = ResultStore(path)
        store.append(self._record(scenario="s2"))
        assert [record.scenario for record in store.records()] == ["s1", "s2"]
        assert jsonl_warnings == []

    @staticmethod
    def _stored_hashes(store):
        return {scenario_spec_hash(record.spec) for record in store.records()}

    def test_spec_hashes_follow_appends_through_another_store(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        assert store.spec_hashes() == frozenset()
        writer = ResultStore(store.path)
        for index in range(3):
            writer.append(self._record(scenario=f"s{index}", size=float(index)))
            assert store.spec_hashes() == self._stored_hashes(store)
        assert len(store.spec_hashes()) == 3

    def test_spec_hashes_read_only_the_new_records(self, tmp_path, monkeypatch):
        import repro.sweeps.results as results_module

        hashed = []
        monkeypatch.setattr(
            results_module,
            "scenario_spec_hash",
            lambda spec: hashed.append(spec) or scenario_spec_hash(spec),
        )
        store = ResultStore(tmp_path / "store.jsonl")
        for index in range(5):
            store.append(self._record(scenario=f"s{index}", size=float(index)))
        assert len(store.spec_hashes()) == 5 and len(hashed) == 5
        assert len(store.spec_hashes()) == 5 and len(hashed) == 5
        store.append(self._record(scenario="s5", size=5.0))
        assert len(store.spec_hashes()) == 6 and len(hashed) == 6

    def test_spec_hashes_skip_a_torn_final_line_until_an_append_cuts_it(
        self, tmp_path, jsonl_warnings
    ):
        store = self._torn_store(tmp_path)
        reader = ResultStore(store.path)
        stored = self._stored_hashes(store)
        assert len(stored) == 11
        jsonl_warnings.clear()
        # Each call reads the torn line again and warns as read_jsonl does.
        assert reader.spec_hashes() == reader.spec_hashes() == stored
        torn = f"{store.path}:12: skipping torn final line (interrupted append)"
        assert jsonl_warnings == [torn, torn]
        store.append(self._record(scenario="s11", size=11.0))
        assert jsonl_warnings[-1] == f"{store.path}:12: dropping torn final line (interrupted append)"
        assert reader.spec_hashes() == self._stored_hashes(store)
        assert len(reader.spec_hashes()) == 12

    def test_spec_hashes_count_a_complete_final_line_without_its_newline(self, tmp_path):
        path = tmp_path / "store.jsonl"
        first, second = (self._record(scenario=f"s{i}", size=float(i)) for i in range(2))
        path.write_text(json.dumps(first.to_dict()) + "\n" + json.dumps(second.to_dict()))
        store = ResultStore(path)
        assert store.spec_hashes() == self._stored_hashes(store)
        assert len(store.spec_hashes()) == 2
        store.append(self._record(scenario="s2", size=2.0))
        assert store.spec_hashes() == self._stored_hashes(store)
        assert len(store.spec_hashes()) == 3

    @pytest.mark.parametrize("change", ["truncated", "truncated-and-regrown", "replaced"])
    def test_spec_hashes_reread_a_file_cut_or_replaced(self, tmp_path, change):
        store = ResultStore(tmp_path / "store.jsonl")
        for index in range(6):
            store.append(self._record(scenario=f"s{index}", size=float(index)))
        reader = ResultStore(store.path)
        assert len(reader.spec_hashes()) == 6
        lines = store.path.read_text().splitlines(keepends=True)
        if change == "replaced":
            # Other records of the same lengths, then the same last line at the same offset.
            others = [self._record(scenario=f"t{i}", size=i + 0.5).to_dict() for i in range(5)]
            replacement = store.path.with_suffix(".new")
            replacement.write_text("".join(json.dumps(o, sort_keys=True) + "\n" for o in others))
            with replacement.open("a") as handle:
                handle.write(lines[5])
            assert replacement.stat().st_size == store.path.stat().st_size
            os.replace(replacement, store.path)
        else:
            store.path.write_text("".join(lines[:2]))
            if change == "truncated-and-regrown":
                for index in range(10, 15):
                    store.append(self._record(scenario=f"s{index}", size=float(index)))
        assert reader.spec_hashes() == self._stored_hashes(store)
        assert len(reader.spec_hashes()) == {"truncated": 2, "replaced": 6}.get(change, 7)

    def test_spec_hashes_reject_a_bad_middle_line_and_a_newer_schema(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        for index in range(3):
            store.append(self._record(scenario=f"s{index}", size=float(index)))
        assert len(store.spec_hashes()) == 3
        with store.path.open("a") as handle:
            handle.write("not json\n")
        store.append(self._record(scenario="s4", size=4.0))
        with pytest.raises(ValidationError, match=f"{store.path}:4: not valid JSON"):
            store.spec_hashes()
        newer = self._record(scenario="s5").to_dict()
        newer["schema"] = RESULT_SCHEMA_VERSION + 1
        store.path.write_text(json.dumps(newer) + "\n")
        with pytest.raises(ValidationError, match="newer than supported"):
            store.spec_hashes()

    def test_value_lookup(self):
        record = self._record()
        assert record.value("mean_utility") == 0.5
        assert record.value("scenario") == "s1"
        assert record.value("spec.policy.kind") == "homogeneous"
        with pytest.raises(ValidationError, match="no field"):
            record.value("spec.policy.missing")

    def test_aggregate_and_pivot(self):
        records = [
            self._record(scenario="a", kind="homogeneous", size=10.0, utility=0.4),
            self._record(scenario="b", kind="homogeneous", size=20.0, utility=0.6),
            self._record(scenario="c", kind="full-diversity", size=10.0, utility=0.8),
            self._record(scenario="d", kind="full-diversity", size=20.0, utility=1.0),
        ]
        grouped = aggregate(records, group_by=["spec.policy.kind"], metric="mean_utility")
        assert grouped == [(("homogeneous",), 0.5), (("full-diversity",), 0.9)]
        headers, rows = pivot(
            records, rows="spec.policy.kind", columns="spec.attack.size", metric="mean_utility"
        )
        assert headers == ["spec.policy.kind", "10.0", "20.0"]
        assert rows == [["homogeneous", 0.4, 0.6], ["full-diversity", 0.8, 1.0]]

    def test_comparison_table_renders_every_scenario(self):
        records = [self._record(scenario="a"), self._record(scenario="b")]
        text = comparison_table(records, metrics=["mean_utility", "total_false_alarms"])
        assert "a" in text and "b" in text
        assert "mean_utility" in text


_KILLED_MID_SWEEP = """
import json, multiprocessing, os, signal, sys
from repro.engine import PopulationEngine
from repro.sweeps import ResultStore, SweepRunner, SweepSpec

append = ResultStore.append

def append_then_kill(self, record):
    append(self, record)
    workers = " ".join(str(child.pid) for child in multiprocessing.active_children())
    with open(sys.argv[3], "w") as handle:
        handle.write(workers)
    os.kill(os.getpid(), signal.SIGKILL)

ResultStore.append = append_then_kill
cache_dir, store_path = sys.argv[1:3]
sweep = SweepSpec.from_dict(json.loads(sys.argv[4]))
engine = PopulationEngine(workers=1, cache_dir=cache_dir)
SweepRunner(engine=engine, workers=2).run(sweep, store=ResultStore(store_path))
raise SystemExit("the sweep was not interrupted")
"""


class TestKilledSweep:
    """A sweep SIGKILLed after its first stored result, then run again on the same store."""

    SWEEP = _sweep({"attack.size": [10.0, 25.0, 50.0, 100.0, 200.0, 400.0]})

    @staticmethod
    def _records(store):
        return sorted(
            (record.scenario, json.dumps(record.metrics, sort_keys=True))
            for record in store.records()
        )

    def test_kill_mid_sweep_then_resume(self, tmp_path):
        cache_dir, pid_file = tmp_path / "cache", tmp_path / "workers.txt"
        store = ResultStore(tmp_path / "results.jsonl")
        paths = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
        child = subprocess.run(
            [sys.executable, "-c", _KILLED_MID_SWEEP, str(cache_dir), str(store.path)]
            + [str(pid_file), json.dumps(self.SWEEP.to_dict())],
            env=env,
            timeout=120,
        )
        assert child.returncode == -signal.SIGKILL
        assert len(store.records()) == 1

        # The killed sweep's pool workers notice their parent is gone and exit.
        workers = [int(pid) for pid in pid_file.read_text().split()]
        assert len(workers) == 2
        deadline = time.monotonic() + 30.0
        while not all(process_exited(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        lingering = [pid for pid in workers if not process_exited(pid)]
        for pid in lingering:  # leave no orphan behind when the check fails
            os.kill(pid, signal.SIGKILL)
        assert not lingering, "orphaned pool workers outlived 30 s"

        # Running the sweep again evaluates only what the store lacks.
        engine = PopulationEngine(workers=1, cache_dir=cache_dir)
        resumed = SweepRunner(engine=engine, workers=2).run(self.SWEEP, store=store)
        assert resumed.skipped_count == 1
        assert len(resumed.results) == 5
        uninterrupted = ResultStore(tmp_path / "uninterrupted.jsonl")
        SweepRunner(engine=engine, workers=1).run(self.SWEEP, store=uninterrupted)
        assert self._records(store) == self._records(uninterrupted)
