"""Declarative scenario and sweep specifications.

A :class:`ScenarioSpec` names everything one detection campaign needs —
the population to generate, the configuration policy, the attack overlaid on
the test week and the evaluation protocol — as plain data.  A
:class:`SweepSpec` is a base scenario plus named *axes* (lists of values for
any scenario field, addressed by dotted path such as ``"policy.kind"`` or
``"population.num_hosts"``) which expands into a list of concrete scenarios
via grid (cartesian product) or zip (parallel iteration) semantics.

Both specs are loadable from TOML or plain dicts and round-trip exactly:
``SweepSpec.from_toml(spec.to_toml()) == spec``.  Expansion is deterministic,
including per-scenario seed derivation (``seed_mode = "derived"`` hashes the
sweep seed together with the population fields, so scenarios sharing a
population configuration share a seed — and therefore one generated
population — while different configurations get distinct, stable seeds).
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.attacks.base import AttackBuilder
from repro.attacks.botnet import CommandAndControl, botnet_builder
from repro.attacks.mimicry import MimicryAttacker
from repro.attacks.naive import NaiveAttacker
from repro.attacks.storm import storm_builder
from repro.core.fusion import FusionRule
from repro.core.sampling import SampleSpec
from repro.features.definitions import Feature
from repro.sweeps import toml_io
from repro.utils.records import parse, plain
from repro.utils.validation import ValidationError, require
from repro.workload.drift import DRIFT_KINDS, DriftModel
from repro.workload.enterprise import EnterpriseConfig

#: Policy kinds understood by :class:`PolicySpec`.
POLICY_KINDS = ("homogeneous", "full-diversity", "partial-diversity")

#: Threshold heuristics understood by :class:`PolicySpec`.
HEURISTIC_KINDS = ("percentile", "mean-std", "utility", "f-measure")

#: Attack kinds understood by :class:`AttackSpec`.
ATTACK_KINDS = ("none", "naive", "storm", "mimicry", "mimicry-vs-schedule", "botnet")

#: Threshold optimizers understood by :class:`OptimizerSpec`.
OPTIMIZER_KINDS = ("none", "independent", "coordinate-ascent", "grid-joint")

#: Botnet command-and-control channels understood by :class:`AttackSpec`.
C2_KINDS = ("irc", "http", "p2p")

#: Sweep expansion modes.
SWEEP_MODES = ("grid", "zip")

#: Per-scenario seed handling: keep the spec's seed, or derive one per
#: distinct population configuration from the sweep seed.
SEED_MODES = ("fixed", "derived")


def _choice(value: str, allowed: Sequence[str], label: str) -> None:
    if value not in allowed:
        raise ValidationError(f"{label} must be one of {list(allowed)}, got {value!r}")


@dataclass(frozen=True)
class DriftSpec:
    """Named drift layered on the population (see :mod:`repro.workload.drift`).

    ``kind`` is ``"none"`` or a "+"-joined composition of
    :data:`~repro.workload.drift.DRIFT_KINDS`
    (``"seasonal+flash-crowd"``); the remaining fields parameterise the
    components (each kind reads only its relevant subset), and every field is
    sweepable as a ``population.drift.*`` axis.
    """

    kind: str = "none"
    scale: float = 1.0
    period_weeks: int = 4
    probability: float = 0.15
    weeks: Tuple[int, ...] = ()
    magnitude: float = 3.0

    def build(self) -> DriftModel:
        """The :class:`~repro.workload.drift.DriftModel` this spec describes."""
        return DriftModel.from_kinds(
            self.kind,
            scale=self.scale,
            period_weeks=self.period_weeks,
            probability=self.probability,
            weeks=self.weeks,
            magnitude=self.magnitude,
        )

    to_dict = plain

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DriftSpec":
        spec = parse(cls, data, "population.drift")
        spec = replace(spec, weeks=tuple(int(week) for week in spec.weeks))
        for kind in spec.kind.split("+"):
            kind = kind.strip()
            if kind and kind != "none":
                _choice(kind, DRIFT_KINDS, "population.drift.kind")
        # Normalise the no-drift spec so equivalent configurations hash
        # identically in the sweep result cache.
        if spec.build() == DriftModel():
            return cls()
        # Likewise zero fields that are inert for the selected kind(s) —
        # each component only reads its relevant subset (mirrors
        # ScheduleSpec/OptimizerSpec.from_dict).
        kinds = {part.strip() for part in spec.kind.split("+")}
        defaults = cls()
        return cls(
            kind=spec.kind,
            scale=spec.scale,
            period_weeks=(
                spec.period_weeks if "seasonal" in kinds else defaults.period_weeks
            ),
            probability=(
                spec.probability
                if kinds & {"role-churn", "fleet-turnover"}
                else defaults.probability
            ),
            weeks=spec.weeks if "flash-crowd" in kinds else defaults.weeks,
            magnitude=spec.magnitude if "flash-crowd" in kinds else defaults.magnitude,
        )


@dataclass(frozen=True)
class PopulationSpec:
    """The enterprise population a scenario evaluates against."""

    num_hosts: int = 100
    num_weeks: int = 2
    seed: int = 2009
    laptop_fraction: float = 0.95
    with_mobility: bool = True
    with_maintenance: bool = True
    week_drift_scale: float = 1.0
    drift: DriftSpec = field(default_factory=DriftSpec)

    def to_config(self) -> EnterpriseConfig:
        """The :class:`EnterpriseConfig` this spec describes."""
        return EnterpriseConfig(
            num_hosts=self.num_hosts,
            num_weeks=self.num_weeks,
            seed=self.seed,
            laptop_fraction=self.laptop_fraction,
            with_mobility=self.with_mobility,
            with_maintenance=self.with_maintenance,
            week_drift_scale=self.week_drift_scale,
            drift=self.drift.build(),
        )

    to_dict = plain

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PopulationSpec":
        spec = parse(cls, data, "population")
        spec.to_config()  # delegate range validation to EnterpriseConfig
        return spec


@dataclass(frozen=True)
class PolicySpec:
    """The configuration policy (grouping + threshold heuristic) under test."""

    kind: str = "homogeneous"
    heuristic: str = "percentile"
    percentile: float = 99.0
    num_std: float = 3.0
    utility_weight: float = 0.4
    attack_sizes: Tuple[float, ...] = (10.0, 50.0, 100.0, 500.0)
    attack_prevalence: float = 0.01
    num_groups: int = 8

    def build(self, optimizer=None):
        """Instantiate the :class:`~repro.core.policies.ConfigurationPolicy`.

        ``optimizer`` (a :class:`~repro.optimize.ThresholdOptimizer`, usually
        built by :meth:`OptimizerSpec.build`) selects how the per-feature
        thresholds are chosen; ``None`` keeps the pure heuristic path.
        """
        from repro.core.policies import (
            FullDiversityPolicy,
            HomogeneousPolicy,
            PartialDiversityPolicy,
        )
        from repro.core.thresholds import (
            FMeasureHeuristic,
            MeanStdHeuristic,
            PercentileHeuristic,
            UtilityHeuristic,
        )

        if self.heuristic == "percentile":
            heuristic = PercentileHeuristic(self.percentile)
        elif self.heuristic == "mean-std":
            heuristic = MeanStdHeuristic(self.num_std)
        elif self.heuristic == "utility":
            heuristic = UtilityHeuristic(weight=self.utility_weight, attack_sizes=self.attack_sizes)
        else:
            heuristic = FMeasureHeuristic(
                attack_sizes=self.attack_sizes, attack_prevalence=self.attack_prevalence
            )
        if self.kind == "homogeneous":
            return HomogeneousPolicy(heuristic, optimizer=optimizer)
        if self.kind == "full-diversity":
            return FullDiversityPolicy(heuristic, optimizer=optimizer)
        return PartialDiversityPolicy(heuristic, num_groups=self.num_groups, optimizer=optimizer)

    to_dict = plain

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PolicySpec":
        spec = parse(cls, data, "policy")
        _choice(spec.kind, POLICY_KINDS, "policy.kind")
        _choice(spec.heuristic, HEURISTIC_KINDS, "policy.heuristic")
        require(0.0 < spec.percentile < 100.0, "policy.percentile must be in (0, 100)")
        if spec.kind == "partial-diversity":
            require(
                spec.num_groups >= 2 and spec.num_groups % 2 == 0,
                "policy.num_groups must be an even number >= 2",
            )
        return spec


@dataclass(frozen=True)
class AttackSpec:
    """The attack overlaid on every host's test week (or ``"none"``).

    Attributes
    ----------
    kind:
        ``"none"``, ``"naive"`` (fixed per-bin injection), ``"storm"``
        (zombie-trace replay), ``"mimicry"`` (the resourceful attacker: the
        largest injection that evades the target feature's threshold with
        ``evasion_probability``) or ``"botnet"`` (a recruited subset of hosts
        injects the campaign volume plus command-and-control traffic on the
        C&C channel's feature).
    size:
        Per-bin campaign volume for ``naive``/``botnet``.
    active_fraction:
        Fraction of bins the ``naive``/``botnet`` campaign is active in.
    seed:
        Seed for per-host attack randomness (and botnet recruitment).
    feature:
        The feature the attack targets; empty selects the evaluation's
        primary (first) feature.  Used by ``mimicry`` (the threshold it
        evades) and ``botnet`` (the campaign feature).
    evasion_probability:
        The mimicry attacker's insisted-on probability of staying hidden.
    compromise_probability:
        Probability any given host is recruited into the botnet.
    command_and_control:
        Botnet C&C channel (``"irc"``/``"http"``/``"p2p"``); its control
        traffic perturbs the channel's own feature, which is what
        multi-feature fusion can catch even when the campaign stays stealthy.
    control_size:
        Per-bin C&C traffic volume on the control channel's feature.
    """

    kind: str = "naive"
    size: float = 80.0
    active_fraction: float = 1.0
    seed: int = 1701
    feature: str = ""
    evasion_probability: float = 0.9
    compromise_probability: float = 1.0
    command_and_control: str = "p2p"
    control_size: float = 5.0

    def target_feature(self, primary: Feature) -> Feature:
        """The feature this attack targets (``primary`` unless overridden)."""
        if not self.feature:
            return primary
        try:
            return Feature(self.feature)
        except ValueError:
            valid = [feature.value for feature in Feature]
            raise ValidationError(
                f"attack.feature must be one of {valid}, got {self.feature!r}"
            ) from None

    def build_builder(self, primary_feature: Feature) -> Optional[AttackBuilder]:
        """The attack builder :func:`evaluate_policy` takes (None for ``"none"``)."""
        if self.kind == "none":
            return None
        if self.kind == "storm":
            # The paper replays the same zombie trace over every host's test week.
            return storm_builder(self.seed)
        target = self.target_feature(primary_feature)
        if self.kind in ("mimicry", "mimicry-vs-schedule"):
            # On a timeline, plain mimicry keeps evading the thresholds it
            # profiled at the initial deployment; mimicry-vs-schedule evades
            # whatever is in force on the attacked week.
            tracks = self.kind == "mimicry-vs-schedule"
            return MimicryAttacker(target, self.evasion_probability, tracks).builder()

        def rng_for(host_id: int) -> np.random.Generator:
            return np.random.default_rng((self.seed, host_id))

        if self.kind == "naive":
            return NaiveAttacker(target, self.size, self.active_fraction).builder(rng_for)
        return botnet_builder(
            target,
            self.size,
            rng_for,
            compromise_probability=self.compromise_probability,
            active_fraction=self.active_fraction,
            command_and_control=CommandAndControl(self.command_and_control),
            control_size=self.control_size,
        )

    to_dict = plain

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AttackSpec":
        spec = parse(cls, data, "attack")
        _choice(spec.kind, ATTACK_KINDS, "attack.kind")
        _choice(spec.command_and_control, C2_KINDS, "attack.command_and_control")
        require(spec.size >= 0.0, "attack.size must be non-negative")
        require(spec.control_size >= 0.0, "attack.control_size must be non-negative")
        require(0.0 <= spec.active_fraction <= 1.0, "attack.active_fraction must be in [0, 1]")
        require(
            0.0 <= spec.evasion_probability <= 1.0,
            "attack.evasion_probability must be in [0, 1]",
        )
        require(
            0.0 <= spec.compromise_probability <= 1.0,
            "attack.compromise_probability must be in [0, 1]",
        )
        if spec.feature:
            spec.target_feature(Feature.TCP_CONNECTIONS)  # validate the name
        return spec


@dataclass(frozen=True)
class OptimizerSpec:
    """How per-feature thresholds are *selected* (see :mod:`repro.optimize`).

    Attributes
    ----------
    kind:
        ``"none"`` keeps the pure per-feature heuristic path (the paper's
        behaviour, bit for bit); ``"independent"`` selects identically but
        scores and reports the fused objective; ``"coordinate-ascent"`` and
        ``"grid-joint"`` co-optimise the whole per-feature threshold vector
        per group against the fused utility.
    num_candidates:
        Per-feature candidate-grid size for the joint optimizers; ``0`` uses
        each optimizer's own default.
    max_sweeps:
        Coordinate ascent's upper bound on full passes over the feature set.
    tolerance:
        Coordinate ascent's convergence tolerance per sweep.

    The objective's defender parameters come from the enclosing scenario:
    the weight is ``evaluation.utility_weight`` and the planned attack sizes
    are ``policy.attack_sizes``, so optimizer and heuristic plan for the
    same attacks.
    """

    kind: str = "none"
    num_candidates: int = 0
    max_sweeps: int = 8
    tolerance: float = 1e-9

    def build(self, weight: float, attack_sizes: Sequence[float], attack_feature=None):
        """Instantiate the :class:`~repro.optimize.ThresholdOptimizer` (or None).

        ``attack_feature`` is the evaluated :class:`~repro.features.definitions.Feature`
        the scenario's attack actually targets, so the fused objective plans
        for the right feature; ``None`` plans for the primary (first) one.
        """
        if self.kind == "none":
            return None
        from repro.optimize import (
            CoordinateAscentOptimizer,
            GridJointOptimizer,
            IndependentOptimizer,
        )

        common = {
            "weight": weight,
            "attack_sizes": tuple(attack_sizes),
            "attack_feature": attack_feature,
        }
        if self.kind == "independent":
            return IndependentOptimizer(**common)
        if self.kind == "coordinate-ascent":
            if self.num_candidates:
                common["num_candidates"] = self.num_candidates
            return CoordinateAscentOptimizer(
                max_sweeps=self.max_sweeps, tolerance=self.tolerance, **common
            )
        if self.num_candidates:
            common["num_candidates"] = self.num_candidates
        return GridJointOptimizer(**common)

    to_dict = plain

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OptimizerSpec":
        spec = parse(cls, data, "evaluation.optimizer")
        _choice(spec.kind, OPTIMIZER_KINDS, "evaluation.optimizer.kind")
        require(
            spec.num_candidates == 0 or spec.num_candidates >= 2,
            "evaluation.optimizer.num_candidates must be 0 (optimizer default) or >= 2",
        )
        require(spec.max_sweeps >= 1, "evaluation.optimizer.max_sweeps must be >= 1")
        require(spec.tolerance >= 0.0, "evaluation.optimizer.tolerance must be non-negative")
        # Normalise fields that are inert for the selected kind back to their
        # defaults, so equivalent configurations hash identically and the
        # sweep result cache never re-evaluates (or spuriously distinguishes)
        # the same computation.
        if spec.kind in ("none", "independent"):
            spec = cls(kind=spec.kind)
        elif spec.kind == "grid-joint":
            spec = cls(kind=spec.kind, num_candidates=spec.num_candidates)
        return spec


@dataclass(frozen=True)
class ScheduleSpec:
    """When thresholds are re-optimised over a multi-week timeline.

    ``kind = "one-shot"`` (the default) keeps today's single train/test
    evaluation, bit for bit.  The timeline kinds
    (:data:`~repro.temporal.RETRAIN_KINDS`: ``never``, ``every-k-weeks``,
    ``drift-triggered``) switch the scenario onto
    :func:`~repro.temporal.evaluate_timeline`: every week from the
    protocol's test week through the population's last week is scored
    against the configuration in force that week, with ``period`` /
    ``threshold`` / ``window_weeks`` parameterising the
    :class:`~repro.temporal.RetrainSchedule`.  Every field is sweepable as
    an ``evaluation.schedule.*`` axis.
    """

    kind: str = "one-shot"
    period: int = 1
    threshold: float = 0.05
    window_weeks: int = 1

    def build(self):
        """The :class:`~repro.temporal.RetrainSchedule`, or None for one-shot."""
        if self.kind == "one-shot":
            return None
        from repro.temporal import RetrainSchedule

        return RetrainSchedule(
            kind=self.kind,
            period=self.period,
            threshold=self.threshold,
            window_weeks=self.window_weeks,
        )

    to_dict = plain

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScheduleSpec":
        from repro.temporal import RETRAIN_KINDS

        spec = parse(cls, data, "evaluation.schedule")
        _choice(spec.kind, ("one-shot",) + RETRAIN_KINDS, "evaluation.schedule.kind")
        require(spec.period >= 1, "evaluation.schedule.period must be >= 1")
        require(spec.threshold >= 0.0, "evaluation.schedule.threshold must be non-negative")
        require(spec.window_weeks >= 1, "evaluation.schedule.window_weeks must be >= 1")
        # Normalise fields that are inert for the selected kind back to their
        # defaults, so equivalent configurations hash identically in the
        # sweep result cache (mirrors OptimizerSpec.from_dict).
        if spec.kind == "one-shot":
            spec = cls()
        elif spec.kind == "never":
            spec = cls(kind=spec.kind, window_weeks=spec.window_weeks)
        elif spec.kind == "every-k-weeks":
            spec = cls(kind=spec.kind, period=spec.period, window_weeks=spec.window_weeks)
        else:
            spec = cls(kind=spec.kind, threshold=spec.threshold, window_weeks=spec.window_weeks)
        return spec


@dataclass(frozen=True)
class EvaluationSpec:
    """The train/test protocol and the metrics' fixed parameters.

    ``features`` (plus ``fusion``) is the feature-set-first detection
    surface: when non-empty it names the monitored feature set, with the
    :class:`~repro.core.fusion.FusionRule` in ``fusion`` (the
    ``[scenario.evaluation.fusion]`` table, ``rule`` and ``k``) applied per
    bin to the per-feature alert indicators.  The
    scalar ``feature`` field remains for single-feature scenarios (and stays
    sweepable as the ``evaluation.feature`` axis); when ``features`` is empty
    the evaluation monitors exactly ``[feature]``, reproducing the legacy
    behaviour bit for bit.

    ``optimizer`` selects how the per-feature thresholds are chosen (see
    :class:`OptimizerSpec`); its fields are sweepable as dotted axes, e.g.
    ``evaluation.optimizer.kind`` or ``evaluation.optimizer.num_candidates``.

    ``schedule`` selects *when* they are chosen (see :class:`ScheduleSpec`):
    ``one-shot`` keeps the classic single train/test pair, the timeline
    kinds evaluate every remaining population week under a
    :class:`~repro.temporal.RetrainSchedule`, sweepable as
    ``evaluation.schedule.*`` axes.

    ``sample`` selects *which hosts* are evaluated (see
    :class:`~repro.core.sampling.SampleSpec`): disabled by default (the full
    population, bit-identical to before), a positive ``sample.size``
    evaluates a seeded host subsample and reports bootstrap confidence
    intervals, sweepable as ``evaluation.sample.*`` axes.
    """

    feature: str = Feature.TCP_CONNECTIONS.value
    features: Tuple[str, ...] = ()
    fusion: FusionRule = field(default_factory=FusionRule)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    schedule: ScheduleSpec = field(default_factory=ScheduleSpec)
    sample: SampleSpec = field(default_factory=SampleSpec)
    train_week: int = 0
    test_week: int = 1
    utility_weight: float = 0.4
    attack_prevalence: float = 0.01

    def feature_enum(self) -> Feature:
        """The :class:`Feature` the scalar ``feature`` field names."""
        return _feature_enum(self.feature, "evaluation.feature")

    def features_enum(self) -> Tuple[Feature, ...]:
        """The effective feature set: ``features`` or ``(feature,)``."""
        if not self.features:
            return (self.feature_enum(),)
        return tuple(_feature_enum(name, "evaluation.features") for name in self.features)

    to_dict = plain

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EvaluationSpec":
        spec = parse(cls, data, "evaluation")
        require(
            isinstance(spec.features, tuple),
            "evaluation.features must be an array of feature names",
        )
        resolved = spec.features_enum()
        require(
            len(set(resolved)) == len(resolved), "evaluation.features must be distinct"
        )
        require(spec.train_week >= 0, "evaluation.train_week must be non-negative")
        require(spec.test_week >= 0, "evaluation.test_week must be non-negative")
        require(spec.train_week != spec.test_week, "train and test weeks must differ")
        require(0.0 <= spec.utility_weight <= 1.0, "evaluation.utility_weight must be in [0, 1]")
        require(
            0.0 <= spec.attack_prevalence <= 1.0, "evaluation.attack_prevalence must be in [0, 1]"
        )
        return spec


def _feature_enum(name: str, label: str) -> Feature:
    try:
        return Feature(name)
    except ValueError:
        valid = [feature.value for feature in Feature]
        raise ValidationError(f"{label} must name features among {valid}, got {name!r}") from None


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully specified detection campaign."""

    name: str = "scenario"
    population: PopulationSpec = field(default_factory=PopulationSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    evaluation: EvaluationSpec = field(default_factory=EvaluationSpec)

    def validate(self) -> "ScenarioSpec":
        """Cross-field checks (the sections validate themselves on parse)."""
        weeks = self.population.num_weeks
        require(
            self.evaluation.train_week < weeks and self.evaluation.test_week < weeks,
            f"scenario {self.name!r}: train/test weeks must fit in "
            f"{weeks} population week(s)",
        )
        features = self.evaluation.features_enum()
        if self.attack.kind in ("mimicry", "mimicry-vs-schedule"):
            target = self.attack.target_feature(features[0])
            require(
                target in features,
                f"scenario {self.name!r}: {self.attack.kind} targets {target.value!r}, "
                f"which is not among the evaluated features (the attacker evades a "
                f"threshold that must be in force)",
            )
        schedule = self.evaluation.schedule
        if schedule.kind != "one-shot":
            require(
                schedule.window_weeks <= weeks - 1,
                f"scenario {self.name!r}: schedule window of {schedule.window_weeks} "
                f"week(s) cannot fit in {weeks} population week(s)",
            )
            require(
                not self.evaluation.sample.enabled,
                f"scenario {self.name!r}: sampled evaluation supports one-shot "
                f"schedules only (timeline aggregation over a host subsample is "
                f"not defined yet)",
            )
        if self.evaluation.optimizer.kind == "grid-joint":
            from repro.optimize import MAX_JOINT_GRID_FEATURES

            require(
                len(features) <= MAX_JOINT_GRID_FEATURES,
                f"scenario {self.name!r}: grid-joint optimisation supports at most "
                f"{MAX_JOINT_GRID_FEATURES} features (the joint grid is exponential); "
                f"got {len(features)}",
            )
        return self

    to_dict = plain

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        return parse(cls, data, "scenario").validate()

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """A copy with dotted-path fields replaced (``{"policy.kind": ...}``)."""
        data = self.to_dict()
        for path, value in overrides.items():
            _set_path(data, path, value, scenario=self.name)
        return ScenarioSpec.from_dict(data)


def _set_path(data: Dict[str, Any], path: str, value: Any, scenario: str) -> None:
    parts = path.split(".")
    table: Any = data
    for part in parts[:-1]:
        if not isinstance(table, dict) or part not in table:
            raise ValidationError(f"scenario {scenario!r}: unknown axis path {path!r}")
        table = table[part]
    if not isinstance(table, dict) or parts[-1] not in table:
        raise ValidationError(f"scenario {scenario!r}: unknown axis path {path!r}")
    table[parts[-1]] = value


def derive_scenario_seed(sweep_seed: int, population: PopulationSpec) -> int:
    """Deterministic population seed for ``seed_mode = "derived"``.

    Hashes the sweep seed together with every population field *except* the
    seed itself, so scenarios that share a population configuration share the
    derived seed (and therefore one generated population) while any change to
    the population fields yields a different, stable seed.
    """
    payload = {key: value for key, value in population.to_dict().items() if key != "seed"}
    blob = json.dumps({"sweep_seed": sweep_seed, "population": payload}, sort_keys=True)
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1) + 1


@dataclass(frozen=True)
class SweepSpec:
    """A base scenario plus named axes, expandable into concrete scenarios."""

    name: str = "sweep"
    description: str = ""
    mode: str = "grid"
    seed: int = 0
    seed_mode: str = "fixed"
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    axes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()

    # ------------------------------------------------------------- validation
    def validate(self) -> "SweepSpec":
        _choice(self.mode, SWEEP_MODES, "sweep.mode")
        _choice(self.seed_mode, SEED_MODES, "sweep.seed_mode")
        require(bool(self.name), "sweep.name must be non-empty")
        seen_paths = set()
        lengths = []
        for path, values in self.axes:
            require(path not in seen_paths, f"axis {path!r} listed twice")
            seen_paths.add(path)
            require(len(values) > 0, f"axis {path!r} must have at least one value")
            require(
                len(set(map(repr, values))) == len(values),
                f"axis {path!r} contains duplicate values",
            )
            lengths.append(len(values))
        if self.mode == "zip" and lengths:
            require(
                len(set(lengths)) == 1,
                f"zip mode requires equal-length axes, got lengths {lengths}",
            )
        # Surface bad paths at load time, not at expansion time.
        if self.axes:
            self.scenario.with_overrides({path: values[0] for path, values in self.axes})
        return self

    # -------------------------------------------------------------- expansion
    def combinations(self) -> List[Dict[str, Any]]:
        """The per-scenario override mappings, in deterministic order."""
        if not self.axes:
            return [{}]
        paths = [path for path, _ in self.axes]
        value_lists = [values for _, values in self.axes]
        # validate() guarantees equal-length axes in zip mode.
        combos = (
            itertools.product(*value_lists)
            if self.mode == "grid"
            else zip(*value_lists, strict=True)
        )
        return [dict(zip(paths, combo, strict=True)) for combo in combos]

    def expand(self) -> List[ScenarioSpec]:
        """Expand into concrete, uniquely named, validated scenarios."""
        self.validate()
        labels = self._axis_labels()
        scenarios: List[ScenarioSpec] = []
        for overrides in self.combinations():
            scenario = self.scenario.with_overrides(overrides)
            if self.seed_mode == "derived" and "population.seed" not in overrides:
                derived = derive_scenario_seed(self.seed, scenario.population)
                scenario = replace(scenario, population=replace(scenario.population, seed=derived))
            suffix = ",".join(
                f"{labels[path]}={_slug(value)}" for path, value in overrides.items()
            )
            name = f"{self.name}/{suffix}" if suffix else self.name
            scenarios.append(replace(scenario, name=name).validate())
        names = [scenario.name for scenario in scenarios]
        require(len(set(names)) == len(names), "expanded scenario names must be unique")
        return scenarios

    def _axis_labels(self) -> Dict[str, str]:
        """Shortest unambiguous label per axis path (last dotted segment)."""
        shorts = [path.rsplit(".", 1)[-1] for path, _ in self.axes]
        labels = {}
        for (path, _), short in zip(self.axes, shorts, strict=True):
            labels[path] = short if shorts.count(short) == 1 else path
        return labels

    # ------------------------------------------------------------ round trips
    def to_dict(self) -> Dict[str, Any]:
        return {
            "sweep": {
                "name": self.name,
                "description": self.description,
                "mode": self.mode,
                "seed": self.seed,
                "seed_mode": self.seed_mode,
            },
            "scenario": self.scenario.to_dict(),
            "axes": {path: list(values) for path, values in self.axes},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        require(isinstance(data, Mapping), "sweep spec must be a table/dict")
        unknown = set(data) - {"sweep", "scenario", "axes"}
        if unknown:
            raise ValidationError(f"sweep spec: unknown section(s) {sorted(unknown)}")
        header = data.get("sweep", {})
        require(isinstance(header, Mapping), "[sweep] must be a table/dict")
        unknown = set(header) - {"name", "description", "mode", "seed", "seed_mode"}
        if unknown:
            raise ValidationError(f"[sweep]: unknown field(s) {sorted(unknown)}")
        axes_data = data.get("axes", {})
        require(isinstance(axes_data, Mapping), "[axes] must be a table/dict")
        axes = tuple(
            (str(path), tuple(values) if isinstance(values, (list, tuple)) else (values,))
            for path, values in axes_data.items()
        )
        return cls(
            name=str(header.get("name", "sweep")),
            description=str(header.get("description", "")),
            mode=str(header.get("mode", "grid")),
            seed=int(header.get("seed", 0)),
            seed_mode=str(header.get("seed_mode", "fixed")),
            scenario=ScenarioSpec.from_dict(data.get("scenario", {})),
            axes=axes,
        ).validate()

    def to_toml(self) -> str:
        return toml_io.dumps(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "SweepSpec":
        return cls.from_dict(toml_io.loads(text))


def _slug(value: Any) -> str:
    if isinstance(value, float):
        text = format(value, "g")
        # "g" keeps common values short (10.0 -> "10") but rounds to 6
        # significant digits; fall back to full precision when the short form
        # would collide with a neighbouring axis value.
        try:
            exact = float(text) == value
        except (OverflowError, ValueError):  # inf/nan formatting round trips
            exact = True
        return text if exact else repr(value)
    if isinstance(value, (list, tuple)):
        return "+".join(_slug(item) for item in value)
    return str(value).replace(" ", "")


def scenario_spec_hash(spec: Union["ScenarioSpec", Mapping[str, Any]]) -> str:
    """Stable content hash of a scenario spec (or its ``to_dict`` payload).

    Computed over the canonical JSON of the spec dict, so a
    :class:`ScenarioSpec` hashes identically to its stored-record ``spec``
    payload — the key the sweep-level result cache matches on.

    A *disabled* ``evaluation.sample`` section is dropped before hashing:
    scenarios that do not sample evaluate bit-identically to records written
    before the sampling fields existed (schema < 5), so their stored results
    must keep matching.
    """
    payload = spec.to_dict() if isinstance(spec, ScenarioSpec) else dict(spec)
    evaluation = payload.get("evaluation")
    if isinstance(evaluation, Mapping):
        sample = evaluation.get("sample")
        if isinstance(sample, Mapping) and not int(sample.get("size", 0)):
            payload = dict(
                payload,
                evaluation={key: value for key, value in evaluation.items() if key != "sample"},
            )
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
