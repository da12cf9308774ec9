"""Tests for sweep/scenario specs: expansion, round trips, TOML I/O."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweeps import (
    ScenarioSpec,
    SweepSpec,
    builtin_sweeps,
    derive_scenario_seed,
    load_builtin,
    scenario_spec_hash,
)
from repro.sweeps import toml_io
from repro.sweeps.spec import PopulationSpec
from repro.utils.validation import ValidationError

# ---------------------------------------------------------------- strategies

_AXIS_POOLS = {
    "population.num_hosts": st.integers(1, 60),
    "population.seed": st.integers(0, 2**20),
    "attack.size": st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False),
    "evaluation.utility_weight": st.floats(0.0, 1.0, allow_nan=False),
    "policy.percentile": st.floats(1.0, 99.0, allow_nan=False),
    "policy.kind": st.sampled_from(
        ["homogeneous", "full-diversity", "partial-diversity"]
    ),
    "attack.kind": st.sampled_from(["none", "naive", "storm", "mimicry", "botnet"]),
    "attack.compromise_probability": st.floats(0.0, 1.0, allow_nan=False),
    "evaluation.fusion.rule": st.sampled_from(["any", "all", "k_of_n"]),
    "evaluation.fusion.k": st.integers(1, 4),
}


@st.composite
def axes_mappings(draw):
    paths = draw(
        st.lists(st.sampled_from(sorted(_AXIS_POOLS)), unique=True, min_size=1, max_size=3)
    )
    axes = {}
    for path in paths:
        axes[path] = draw(
            st.lists(_AXIS_POOLS[path], unique=True, min_size=1, max_size=4)
        )
    return axes


@st.composite
def sweep_specs(draw):
    axes = draw(axes_mappings())
    description = draw(
        st.text(
            alphabet=st.sampled_from('abz019 _-."\\[]#=\t'),
            max_size=20,
        )
    )
    return SweepSpec.from_dict(
        {
            "sweep": {
                "name": draw(st.sampled_from(["sweep-a", "s1", "x_y"])),
                "description": description,
                "mode": "grid",
                "seed": draw(st.integers(0, 2**20)),
                "seed_mode": draw(st.sampled_from(["fixed", "derived"])),
            },
            "scenario": {"name": "base", "population": {"num_hosts": 10, "num_weeks": 2}},
            "axes": axes,
        }
    )


# ------------------------------------------------------------ property tests


class TestExpansionProperties:
    @settings(max_examples=60, deadline=None)
    @given(sweep_specs())
    def test_grid_expansion_count_is_axis_size_product(self, sweep):
        expected = math.prod(len(values) for _, values in sweep.axes)
        assert len(sweep.expand()) == expected

    @settings(max_examples=60, deadline=None)
    @given(sweep_specs())
    def test_expanded_scenarios_unique_and_deterministic(self, sweep):
        first = sweep.expand()
        second = sweep.expand()
        assert first == second
        names = [scenario.name for scenario in first]
        assert len(set(names)) == len(names)
        assert len(set(first)) == len(first)

    @settings(max_examples=60, deadline=None)
    @given(sweep_specs())
    def test_dict_round_trip_is_exact(self, sweep):
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep
        assert SweepSpec.from_dict(sweep.to_dict()).to_dict() == sweep.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(sweep_specs())
    def test_toml_round_trip_is_exact(self, sweep):
        assert SweepSpec.from_toml(sweep.to_toml()) == sweep

    @settings(max_examples=60, deadline=None)
    @given(sweep_specs())
    def test_emitted_toml_parses_back_to_the_spec_dict(self, sweep):
        # The emitter alone, below from_dict's normalisation: quoting of dotted
        # axis keys and escaping of the generated descriptions included.
        assert toml_io.loads(sweep.to_toml()) == sweep.to_dict()


class TestExpansionSemantics:
    def test_zip_mode_pairs_axes(self):
        sweep = SweepSpec.from_dict(
            {
                "sweep": {"name": "z", "mode": "zip"},
                "scenario": {"population": {"num_hosts": 8, "num_weeks": 2}},
                "axes": {
                    "attack.size": [10.0, 20.0, 30.0],
                    "policy.kind": ["homogeneous", "full-diversity", "partial-diversity"],
                },
            }
        )
        scenarios = sweep.expand()
        assert len(scenarios) == 3
        assert [s.attack.size for s in scenarios] == [10.0, 20.0, 30.0]
        assert [s.policy.kind for s in scenarios] == [
            "homogeneous",
            "full-diversity",
            "partial-diversity",
        ]

    def test_zip_mode_rejects_unequal_axes(self):
        with pytest.raises(ValidationError, match="equal-length"):
            SweepSpec.from_dict(
                {
                    "sweep": {"name": "z", "mode": "zip"},
                    "scenario": {},
                    "axes": {"attack.size": [1.0, 2.0], "policy.kind": ["homogeneous"]},
                }
            )

    def test_unknown_axis_path_rejected_at_load(self):
        with pytest.raises(ValidationError, match="unknown axis path"):
            SweepSpec.from_dict(
                {"sweep": {"name": "s"}, "scenario": {}, "axes": {"policy.nope": [1]}}
            )

    def test_unknown_scenario_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown field"):
            ScenarioSpec.from_dict({"policy": {"kindd": "homogeneous"}})

    def test_bad_feature_rejected(self):
        with pytest.raises(ValidationError, match="evaluation.feature"):
            ScenarioSpec.from_dict({"evaluation": {"feature": "num_quic_connections"}})

    def test_test_week_must_fit_population(self):
        with pytest.raises(ValidationError, match="train/test weeks"):
            ScenarioSpec.from_dict(
                {"population": {"num_weeks": 1}, "evaluation": {"train_week": 0, "test_week": 1}}
            )

    def test_axis_values_survive_into_scenarios(self):
        sweep = SweepSpec.from_dict(
            {
                "sweep": {"name": "g"},
                "scenario": {"population": {"num_hosts": 8, "num_weeks": 2}},
                "axes": {"population.num_hosts": [4, 6], "attack.size": [7.0]},
            }
        )
        scenarios = sweep.expand()
        assert [(s.population.num_hosts, s.attack.size) for s in scenarios] == [
            (4, 7.0),
            (6, 7.0),
        ]


class TestFeatureSetSpecs:
    def _scenario(self, **evaluation):
        return ScenarioSpec.from_dict(
            {
                "name": "s",
                "population": {"num_hosts": 4, "num_weeks": 2},
                "evaluation": evaluation,
            }
        )

    def test_empty_features_falls_back_to_scalar_feature(self):
        from repro.features.definitions import Feature

        scenario = self._scenario(feature="num_dns_connections")
        assert scenario.evaluation.features_enum() == (Feature.DNS_CONNECTIONS,)

    def test_features_list_resolves_in_order(self):
        from repro.features.definitions import Feature

        scenario = self._scenario(
            features=["num_udp_connections", "num_tcp_connections"]
        )
        assert scenario.evaluation.features_enum() == (
            Feature.UDP_CONNECTIONS,
            Feature.TCP_CONNECTIONS,
        )

    def test_duplicate_features_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            self._scenario(features=["num_tcp_connections", "num_tcp_connections"])

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValidationError, match="features"):
            self._scenario(features=["num_quic_connections"])

    def test_bad_fusion_rule_rejected(self):
        with pytest.raises(ValidationError, match="fusion.rule"):
            self._scenario(fusion={"rule": "majority"})
        with pytest.raises(ValidationError, match="fusion.k"):
            self._scenario(fusion={"rule": "k_of_n", "k": 0})

    def test_fusion_round_trips_through_toml(self):
        sweep = SweepSpec.from_dict(
            {
                "sweep": {"name": "f"},
                "scenario": {
                    "population": {"num_hosts": 4, "num_weeks": 2},
                    "evaluation": {
                        "features": ["num_tcp_connections", "num_dns_connections"],
                        "fusion": {"rule": "k_of_n", "k": 2},
                    },
                },
                "axes": {},
            }
        )
        assert SweepSpec.from_toml(sweep.to_toml()) == sweep


class TestOptimizerSpecs:
    def _scenario(self, **evaluation):
        return ScenarioSpec.from_dict(
            {
                "name": "s",
                "population": {"num_hosts": 4, "num_weeks": 2},
                "evaluation": evaluation,
            }
        )

    def test_default_is_heuristic_only(self):
        scenario = self._scenario()
        assert scenario.evaluation.optimizer.kind == "none"
        assert scenario.evaluation.optimizer.build(weight=0.4, attack_sizes=(10.0,)) is None

    def test_kinds_build_the_right_optimizers(self):
        from repro.optimize import (
            CoordinateAscentOptimizer,
            GridJointOptimizer,
            IndependentOptimizer,
        )

        built = {
            kind: self._scenario(optimizer={"kind": kind}).evaluation.optimizer.build(
                weight=0.3, attack_sizes=(5.0, 25.0)
            )
            for kind in ("independent", "coordinate-ascent", "grid-joint")
        }
        assert isinstance(built["independent"], IndependentOptimizer)
        assert isinstance(built["coordinate-ascent"], CoordinateAscentOptimizer)
        assert isinstance(built["grid-joint"], GridJointOptimizer)
        for optimizer in built.values():
            assert optimizer.weight == 0.3
            assert optimizer.attack_sizes == (5.0, 25.0)

    def test_num_candidates_zero_keeps_optimizer_default(self):
        from repro.optimize import CoordinateAscentOptimizer

        default = self._scenario(
            optimizer={"kind": "coordinate-ascent"}
        ).evaluation.optimizer.build(weight=0.4, attack_sizes=())
        tuned = self._scenario(
            optimizer={"kind": "coordinate-ascent", "num_candidates": 24}
        ).evaluation.optimizer.build(weight=0.4, attack_sizes=())
        assert default.num_candidates == CoordinateAscentOptimizer.num_candidates
        assert tuned.num_candidates == 24

    def test_bad_optimizer_config_rejected(self):
        with pytest.raises(ValidationError, match="optimizer.kind"):
            self._scenario(optimizer={"kind": "annealing"})
        with pytest.raises(ValidationError, match="num_candidates"):
            self._scenario(optimizer={"kind": "grid-joint", "num_candidates": 1})
        with pytest.raises(ValidationError, match="max_sweeps"):
            self._scenario(optimizer={"kind": "coordinate-ascent", "max_sweeps": 0})

    def test_grid_joint_feature_count_capped_at_load(self):
        with pytest.raises(ValidationError, match="grid-joint"):
            self._scenario(
                features=[
                    "num_tcp_connections",
                    "num_dns_connections",
                    "num_udp_connections",
                    "num_http_connections",
                ],
                optimizer={"kind": "grid-joint"},
            )

    def test_optimizer_kind_is_a_sweepable_axis(self):
        sweep = SweepSpec.from_dict(
            {
                "sweep": {"name": "opt"},
                "scenario": {
                    "population": {"num_hosts": 4, "num_weeks": 2},
                    "evaluation": {
                        "features": ["num_tcp_connections", "num_dns_connections"],
                    },
                },
                "axes": {
                    "evaluation.optimizer.kind": ["independent", "coordinate-ascent"],
                    "evaluation.optimizer.num_candidates": [16, 32],
                },
            }
        )
        scenarios = sweep.expand()
        assert len(scenarios) == 4
        kinds = {
            (s.evaluation.optimizer.kind, s.evaluation.optimizer.num_candidates)
            for s in scenarios
        }
        # num_candidates is inert for independent selection and normalises
        # away; it only distinguishes the joint scenarios.
        assert kinds == {
            ("independent", 0),
            ("coordinate-ascent", 16),
            ("coordinate-ascent", 32),
        }
        assert SweepSpec.from_toml(sweep.to_toml()) == sweep

    def test_optimizer_config_changes_spec_hash(self):
        from repro.sweeps import scenario_spec_hash

        base = self._scenario(optimizer={"kind": "independent"})
        flipped = self._scenario(optimizer={"kind": "coordinate-ascent"})
        tuned = self._scenario(optimizer={"kind": "coordinate-ascent", "num_candidates": 24})
        hashes = {scenario_spec_hash(s) for s in (base, flipped, tuned)}
        assert len(hashes) == 3

    def test_inert_optimizer_params_normalise_to_identical_hashes(self):
        """Parameters the selected kind ignores must not produce "different"
        scenarios: equivalent configurations hash identically, so the sweep
        result cache can dedupe them."""
        from repro.sweeps import scenario_spec_hash

        plain = self._scenario(optimizer={"kind": "independent"})
        with_inert = self._scenario(
            optimizer={"kind": "independent", "max_sweeps": 4, "num_candidates": 24}
        )
        assert plain == with_inert
        assert scenario_spec_hash(plain) == scenario_spec_hash(with_inert)
        grid = self._scenario(optimizer={"kind": "grid-joint", "num_candidates": 8})
        grid_inert = self._scenario(
            optimizer={"kind": "grid-joint", "num_candidates": 8, "tolerance": 0.5}
        )
        assert scenario_spec_hash(grid) == scenario_spec_hash(grid_inert)
        # coordinate-ascent uses every field, so nothing is dropped.
        ascent = self._scenario(
            optimizer={"kind": "coordinate-ascent", "max_sweeps": 4, "tolerance": 0.5}
        )
        assert ascent.evaluation.optimizer.max_sweeps == 4
        assert ascent.evaluation.optimizer.tolerance == 0.5

    def test_features_axis_sweeps_feature_set_size(self):
        sweep = SweepSpec.from_dict(
            {
                "sweep": {"name": "sizes"},
                "scenario": {"population": {"num_hosts": 4, "num_weeks": 2}},
                "axes": {
                    "evaluation.features": [
                        ["num_tcp_connections"],
                        ["num_tcp_connections", "num_dns_connections"],
                    ]
                },
            }
        )
        scenarios = sweep.expand()
        assert [len(s.evaluation.features) for s in scenarios] == [1, 2]
        names = [s.name for s in scenarios]
        assert len(set(names)) == 2
        assert SweepSpec.from_toml(sweep.to_toml()) == sweep

    def test_fusion_k_axis(self):
        sweep = SweepSpec.from_dict(
            {
                "sweep": {"name": "k-sweep"},
                "scenario": {
                    "population": {"num_hosts": 4, "num_weeks": 2},
                    "evaluation": {
                        "features": [
                            "num_tcp_connections",
                            "num_dns_connections",
                            "num_udp_connections",
                        ],
                        "fusion": {"rule": "k_of_n", "k": 1},
                    },
                },
                "axes": {"evaluation.fusion.k": [1, 2, 3]},
            }
        )
        assert [s.evaluation.fusion.k for s in sweep.expand()] == [1, 2, 3]

    def test_mimicry_target_must_be_evaluated(self):
        with pytest.raises(ValidationError, match="mimicry"):
            ScenarioSpec.from_dict(
                {
                    "population": {"num_hosts": 4, "num_weeks": 2},
                    "attack": {"kind": "mimicry", "feature": "num_http_connections"},
                    "evaluation": {"features": ["num_tcp_connections"]},
                }
            )

    def test_attack_kind_axis_covers_all_families(self):
        sweep = SweepSpec.from_dict(
            {
                "sweep": {"name": "families"},
                "scenario": {"population": {"num_hosts": 4, "num_weeks": 2}},
                "axes": {"attack.kind": ["none", "naive", "storm", "mimicry", "botnet"]},
            }
        )
        kinds = [s.attack.kind for s in sweep.expand()]
        assert kinds == ["none", "naive", "storm", "mimicry", "botnet"]

    def test_attack_spec_validation(self):
        from repro.sweeps import AttackSpec

        with pytest.raises(ValidationError, match="evasion_probability"):
            AttackSpec.from_dict({"kind": "mimicry", "evasion_probability": 1.5})
        with pytest.raises(ValidationError, match="command_and_control"):
            AttackSpec.from_dict({"kind": "botnet", "command_and_control": "dns"})
        with pytest.raises(ValidationError, match="compromise_probability"):
            AttackSpec.from_dict({"kind": "botnet", "compromise_probability": -0.1})
        with pytest.raises(ValidationError, match="attack.feature"):
            AttackSpec.from_dict({"kind": "naive", "feature": "nope"})

    def test_float_slug_collisions_resolved(self):
        # format(value, "g") rounds to 6 significant digits; axis values that
        # collide in the short form must still produce distinct scenario names.
        sweep = SweepSpec.from_dict(
            {
                "sweep": {"name": "precise"},
                "scenario": {"population": {"num_hosts": 4, "num_weeks": 2}},
                "axes": {"attack.size": [1.0, 0.9999999999999999]},
            }
        )
        names = [s.name for s in sweep.expand()]
        assert len(set(names)) == 2


class TestTemporalSpecs:
    def _scenario(self, population=None, evaluation=None, attack=None):
        data = {
            "name": "t",
            "population": {"num_hosts": 4, "num_weeks": 4, **(population or {})},
        }
        if evaluation is not None:
            data["evaluation"] = evaluation
        if attack is not None:
            data["attack"] = attack
        return ScenarioSpec.from_dict(data)

    def test_defaults_are_one_shot_and_driftless(self):
        scenario = self._scenario()
        assert scenario.evaluation.schedule.kind == "one-shot"
        assert scenario.evaluation.schedule.build() is None
        assert scenario.population.drift.kind == "none"
        assert not scenario.population.to_config().drift

    def test_schedule_builds_retrain_schedule(self):
        from repro.temporal import RetrainSchedule

        schedule = self._scenario(
            evaluation={
                "schedule": {"kind": "every-k-weeks", "period": 2, "window_weeks": 2}
            }
        ).evaluation.schedule.build()
        assert schedule == RetrainSchedule.every_k_weeks(2, window_weeks=2)

    def test_drift_spec_builds_composed_model(self):
        config = self._scenario(
            population={"drift": {"kind": "seasonal+flash-crowd", "scale": 2.0}}
        ).population.to_config()
        assert config.drift.name == "seasonal+flash-crowd"
        assert all(component.scale == 2.0 for component in config.drift.components)

    def test_bad_schedule_and_drift_rejected(self):
        with pytest.raises(ValidationError, match="schedule.kind"):
            self._scenario(evaluation={"schedule": {"kind": "fortnightly"}})
        with pytest.raises(ValidationError, match="drift.kind"):
            self._scenario(population={"drift": {"kind": "entropy"}})
        with pytest.raises(ValidationError, match="schedule window"):
            self._scenario(
                population={"num_weeks": 2},
                evaluation={"schedule": {"kind": "never", "window_weeks": 3}},
            )

    def test_mimicry_vs_schedule_validates_target_like_mimicry(self):
        scenario = self._scenario(attack={"kind": "mimicry-vs-schedule"})
        builder = scenario.attack.build_builder(scenario.evaluation.feature_enum())
        assert builder.tracks_schedule is True
        plain = self._scenario(attack={"kind": "mimicry"})
        assert (
            plain.attack.build_builder(plain.evaluation.feature_enum()).tracks_schedule
            is False
        )
        with pytest.raises(ValidationError, match="mimicry-vs-schedule targets"):
            self._scenario(
                attack={"kind": "mimicry-vs-schedule", "feature": "num_dns_connections"}
            )

    def test_inert_schedule_params_normalise_to_identical_hashes(self):
        from repro.sweeps import scenario_spec_hash

        plain = self._scenario(evaluation={"schedule": {"kind": "never"}})
        with_inert = self._scenario(
            evaluation={"schedule": {"kind": "never", "period": 3, "threshold": 0.9}}
        )
        assert plain == with_inert
        assert scenario_spec_hash(plain) == scenario_spec_hash(with_inert)
        flipped = self._scenario(evaluation={"schedule": {"kind": "every-k-weeks"}})
        assert scenario_spec_hash(flipped) != scenario_spec_hash(plain)

    def test_inert_drift_params_normalise_to_identical_hashes(self):
        from repro.sweeps import scenario_spec_hash

        # seasonal never reads probability/weeks/magnitude, so sweeping them
        # must not fork the spec hash (and with it the engine cache key).
        plain = self._scenario(population={"drift": {"kind": "seasonal"}})
        with_inert = self._scenario(
            population={
                "drift": {"kind": "seasonal", "probability": 0.4, "magnitude": 5.0}
            }
        )
        assert plain == with_inert
        assert scenario_spec_hash(plain) == scenario_spec_hash(with_inert)
        # ...while live fields still distinguish scenarios.
        retuned = self._scenario(
            population={"drift": {"kind": "seasonal", "period_weeks": 6}}
        )
        assert scenario_spec_hash(retuned) != scenario_spec_hash(plain)
        # flash-crowd keeps its weeks/magnitude, drops period_weeks.
        crowd = self._scenario(
            population={"drift": {"kind": "flash-crowd", "period_weeks": 9}}
        )
        assert crowd.population.drift.period_weeks == 4
        assert crowd == self._scenario(population={"drift": {"kind": "flash-crowd"}})

    def test_schedule_and_drift_are_sweepable_axes(self):
        sweep = SweepSpec.from_dict(
            {
                "sweep": {"name": "cadence"},
                "scenario": {"population": {"num_hosts": 4, "num_weeks": 4}},
                "axes": {
                    "evaluation.schedule.kind": ["never", "every-k-weeks"],
                    "population.drift.kind": ["seasonal", "role-churn"],
                    "population.drift.scale": [0.5, 1.5],
                },
            }
        )
        scenarios = sweep.expand()
        assert len(scenarios) == 8
        assert {s.evaluation.schedule.kind for s in scenarios} == {
            "never",
            "every-k-weeks",
        }
        assert {s.population.drift.scale for s in scenarios} == {0.5, 1.5}
        assert SweepSpec.from_toml(sweep.to_toml()) == sweep

    def test_drift_changes_derived_seed_but_not_fixed_seed(self):
        base = PopulationSpec()
        drifted = PopulationSpec.from_dict({"drift": {"kind": "seasonal"}})
        assert derive_scenario_seed(7, base) != derive_scenario_seed(7, drifted)


#: The scenario every hashed-field case starts from (every optional section off).
_HASH_BASE = ScenarioSpec.from_dict(
    {"name": "base", "population": {"num_hosts": 8, "num_weeks": 4}}
)

#: Every leaf field of a scenario spec: a valid value other than the base's,
#: and the overrides under which the field is live (not normalised away).
_HASHED_FIELDS = {
    "name": ("renamed", {}),
    "population.num_hosts": (9, {}),
    "population.num_weeks": (5, {}),
    "population.seed": (7, {}),
    "population.laptop_fraction": (0.5, {}),
    "population.with_mobility": (False, {}),
    "population.with_maintenance": (False, {}),
    "population.week_drift_scale": (0.5, {}),
    "population.drift.kind": ("seasonal", {}),
    "population.drift.scale": (2.0, {"population.drift.kind": "seasonal"}),
    "population.drift.period_weeks": (6, {"population.drift.kind": "seasonal"}),
    "population.drift.probability": (0.3, {"population.drift.kind": "role-churn"}),
    "population.drift.weeks": ([2], {"population.drift.kind": "flash-crowd"}),
    "population.drift.magnitude": (5.0, {"population.drift.kind": "flash-crowd"}),
    "policy.kind": ("full-diversity", {}),
    "policy.heuristic": ("utility", {}),
    "policy.percentile": (95.0, {}),
    "policy.num_std": (2.0, {}),
    "policy.utility_weight": (0.6, {}),
    "policy.attack_sizes": ([20.0], {}),
    "policy.attack_prevalence": (0.05, {}),
    "policy.num_groups": (4, {}),
    "attack.kind": ("storm", {}),
    "attack.size": (10.0, {}),
    "attack.active_fraction": (0.5, {}),
    "attack.seed": (9, {}),
    "attack.feature": ("num_udp_connections", {}),
    "attack.evasion_probability": (0.5, {}),
    "attack.compromise_probability": (0.5, {}),
    "attack.command_and_control": ("irc", {}),
    "attack.control_size": (2.0, {}),
    "evaluation.feature": ("num_dns_connections", {}),
    "evaluation.features": (["num_tcp_connections", "num_udp_connections"], {}),
    "evaluation.fusion.rule": ("all", {}),
    "evaluation.fusion.k": (2, {}),
    "evaluation.optimizer.kind": ("coordinate-ascent", {}),
    "evaluation.optimizer.num_candidates": (
        16,
        {"evaluation.optimizer.kind": "coordinate-ascent"},
    ),
    "evaluation.optimizer.max_sweeps": (3, {"evaluation.optimizer.kind": "coordinate-ascent"}),
    "evaluation.optimizer.tolerance": (1e-6, {"evaluation.optimizer.kind": "coordinate-ascent"}),
    "evaluation.schedule.kind": ("never", {}),
    "evaluation.schedule.period": (3, {"evaluation.schedule.kind": "every-k-weeks"}),
    "evaluation.schedule.threshold": (0.2, {"evaluation.schedule.kind": "drift-triggered"}),
    "evaluation.schedule.window_weeks": (2, {"evaluation.schedule.kind": "never"}),
    "evaluation.sample.size": (4, {}),
    "evaluation.sample.seed": (3, {"evaluation.sample.size": 4}),
    "evaluation.sample.bootstrap": (50, {"evaluation.sample.size": 4}),
    "evaluation.sample.confidence": (0.9, {"evaluation.sample.size": 4}),
    "evaluation.train_week": (2, {}),
    "evaluation.test_week": (2, {}),
    "evaluation.utility_weight": (0.6, {}),
    "evaluation.attack_prevalence": (0.05, {}),
}

#: Sections whose other fields parsing normalises back to their defaults,
#: and the overrides under which they are inert (none: the base's defaults).
_INERT_SECTIONS = {
    "population.drift.": ({},),
    "evaluation.optimizer.": ({}, {"evaluation.optimizer.kind": "independent"}),
    "evaluation.schedule.": ({},),
    "evaluation.sample.": ({},),
}

_INERT_CASES = [
    (path, inert)
    for path in _HASHED_FIELDS
    for prefix, bases in _INERT_SECTIONS.items()
    if path.startswith(prefix) and path.rsplit(".", 1)[1] not in ("kind", "size")
    for inert in bases
]


def _leaf_paths(record, prefix=""):
    for spec_field in dataclasses.fields(record):
        value = getattr(record, spec_field.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_paths(value, f"{prefix}{spec_field.name}.")
        else:
            yield prefix + spec_field.name


class TestEveryFieldReachesTheHash:
    """The result cache keys a stored record by its spec hash, so every field
    that changes what a scenario computes must change the hash, and every
    field parsing normalises away must not."""

    def test_the_table_names_every_leaf_field(self):
        assert sorted(_leaf_paths(_HASH_BASE)) == sorted(_HASHED_FIELDS)

    @pytest.mark.parametrize("path", sorted(_HASHED_FIELDS))
    def test_a_live_field_moves_the_hash(self, path):
        value, live = _HASHED_FIELDS[path]
        base = _HASH_BASE.with_overrides(live)
        changed = base.with_overrides({path: value})
        assert changed.to_dict() != base.to_dict()
        assert scenario_spec_hash(changed) != scenario_spec_hash(base)

    @pytest.mark.parametrize(
        ("path", "inert"), _INERT_CASES, ids=[f"{path}-{inert}" for path, inert in _INERT_CASES]
    )
    def test_a_normalised_field_keeps_the_hash(self, path, inert):
        value, _ = _HASHED_FIELDS[path]
        base = _HASH_BASE.with_overrides(inert)
        changed = base.with_overrides({path: value})
        assert changed == base
        assert scenario_spec_hash(changed) == scenario_spec_hash(base)

    def test_every_normalised_section_is_covered(self):
        assert len(_INERT_CASES) == 5 + 2 * 3 + 3 + 3


class TestSeedDerivation:
    def test_derived_seeds_shared_by_identical_populations(self):
        sweep = SweepSpec.from_dict(
            {
                "sweep": {"name": "d", "seed": 7, "seed_mode": "derived"},
                "scenario": {"population": {"num_hosts": 8, "num_weeks": 2}},
                "axes": {
                    "policy.kind": ["homogeneous", "full-diversity"],
                    "population.num_hosts": [8, 16],
                },
            }
        )
        scenarios = sweep.expand()
        seeds = {}
        for scenario in scenarios:
            seeds.setdefault(scenario.population.num_hosts, set()).add(
                scenario.population.seed
            )
        # One seed per population size, shared across the policy axis.
        assert all(len(values) == 1 for values in seeds.values())
        assert seeds[8] != seeds[16]

    def test_derivation_is_deterministic_and_sweep_seed_sensitive(self):
        population = PopulationSpec(num_hosts=8, num_weeks=2)
        assert derive_scenario_seed(1, population) == derive_scenario_seed(1, population)
        assert derive_scenario_seed(1, population) != derive_scenario_seed(2, population)
        # The population's own seed does not feed the derivation.
        assert derive_scenario_seed(1, replace(population, seed=123)) == derive_scenario_seed(
            1, population
        )

    def test_explicit_seed_axis_wins_over_derivation(self):
        sweep = SweepSpec.from_dict(
            {
                "sweep": {"name": "d", "seed_mode": "derived"},
                "scenario": {"population": {"num_hosts": 8, "num_weeks": 2}},
                "axes": {"population.seed": [41, 42]},
            }
        )
        assert [s.population.seed for s in sweep.expand()] == [41, 42]


class TestBuiltinCatalog:
    def test_catalog_names(self):
        assert sorted(builtin_sweeps()) == [
            "attack-intensity",
            "co-optimization",
            "enterprise-scaling",
            "feature-fusion",
            "policy-grid",
            "retrain-cadence",
            "storm-replay",
        ]

    def test_every_builtin_expands_and_round_trips(self):
        for name, sweep in builtin_sweeps().items():
            scenarios = sweep.expand()
            assert len(scenarios) >= 12, name
            assert SweepSpec.from_toml(sweep.to_toml()) == sweep

    def test_load_builtin_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown built-in sweep"):
            load_builtin("no-such-sweep")

    def test_packaged_files_re_emit_to_the_same_document(self):
        from importlib import resources

        root = resources.files("repro.sweeps") / "library"
        checked = 0
        for entry in root.iterdir():
            if entry.name.endswith(".toml"):
                parsed = toml_io.loads(entry.read_text(encoding="utf-8"))
                assert toml_io.loads(toml_io.dumps(parsed)) == parsed, entry.name
                checked += 1
        assert checked >= 4


class TestTomlIO:
    def test_writer_quotes_dotted_keys(self):
        text = toml_io.dumps({"axes": {"policy.kind": ["a"]}})
        assert '"policy.kind"' in text
        assert toml_io.loads(text) == {"axes": {"policy.kind": ["a"]}}

    def test_parser_rejects_garbage_with_validation_error(self):
        for bad in ["just text", "[unclosed", 'key = "unterminated', "a = [1, 2"]:
            with pytest.raises(ValidationError, match="invalid TOML"):
                toml_io.loads(bad)

    def test_loads_handles_comments_and_multiline_arrays(self):
        text = '# header\nvalues = [1,  # inline\n  2, 3]\nname = "a#b"  # trailing\n'
        assert toml_io.loads(text) == {"values": [1, 2, 3], "name": "a#b"}

    def test_dotted_keys_nest_under_the_current_section(self):
        text = "[scenario]\npopulation.num_hosts = 50\n"
        assert toml_io.loads(text) == {"scenario": {"population": {"num_hosts": 50}}}
        sweep = SweepSpec.from_toml(
            '[sweep]\nname = "dotted"\n\n[scenario]\nname = "base"\n'
            "population.num_hosts = 50\npopulation.num_weeks = 2\n\n"
            '[axes]\n"policy.kind" = ["homogeneous"]\n'
        )
        assert sweep.scenario.population.num_hosts == 50

    def test_writer_emits_headers_only_for_tables_with_values(self):
        data = {"top": 1, "a": {"b": {"c": 2}}, "empty": {}}
        text = toml_io.dumps(data)
        assert text.splitlines() == ["top = 1", "", "[a.b]", "c = 2", "", "[empty]"]
        assert toml_io.loads(text) == data

    def test_writer_rejects_what_toml_cannot_hold(self):
        with pytest.raises(ValidationError, match="cannot represent NoneType"):
            toml_io.dumps({"a": None})
        with pytest.raises(ValidationError, match="non-empty strings"):
            toml_io.dumps({"": 1})

    def test_floats_survive_as_floats(self):
        data = {"x": {"a": 1.0, "b": 2, "c": [0.5, 1e-12]}}
        assert toml_io.loads(toml_io.dumps(data)) == data
        parsed = toml_io.loads(toml_io.dumps(data))
        assert isinstance(parsed["x"]["a"], float)
        assert isinstance(parsed["x"]["b"], int)
