"""Tests for the sweep runner and the JSONL result store."""

from __future__ import annotations

import json

import pytest

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
from repro.utils.validation import ValidationError


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
            store.append(self._record(scenario=f"s{index}"))
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
