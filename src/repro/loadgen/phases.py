"""Phase composition: how a load profile unfolds into concrete work.

A :class:`PhaseSpec` describes one segment of a load run — a steady ramp, a
burst, a flash-crowd replay, a failure-injection window or a multi-week soak
— and :func:`plan_events` turns a whole profile into the deterministic
stream of :class:`LoadEvent` work items the orchestrator executes.  Each
event carries a full :class:`~repro.sweeps.spec.ScenarioSpec` plus the
skew-selected host subset it targets and any failure-injection metadata
(hosts whose telemetry is dropped, hosts whose event stream is corrupted).

Planning is a pure function of the profile: the same profile and seed
produce a bit-identical event stream (see ``tests/test_loadgen.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, TimeSeries
from repro.core.sampling import SampleSpec
from repro.loadgen.skew import HotKeySelector, ZipfSelector
from repro.sweeps.spec import (
    AttackSpec,
    DriftSpec,
    EvaluationSpec,
    PolicySpec,
    PopulationSpec,
    ScenarioSpec,
    ScheduleSpec,
)
from repro.utils.records import plain
from repro.utils.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.loadgen.profiles import LoadProfile

#: Phase kinds understood by :class:`PhaseSpec`.
PHASE_KINDS = ("steady-ramp", "burst", "flash-crowd", "failure-injection", "soak")


@dataclass(frozen=True)
class PhaseSpec:
    """One composable segment of a load profile.

    Attributes
    ----------
    name:
        Phase label (unique within a profile); names the metrics row.
    kind:
        One of :data:`PHASE_KINDS`:

        * ``steady-ramp`` — ``num_events`` scenarios whose attack volume
          ramps linearly from ``size_start`` to ``size_end``;
        * ``burst`` — ``num_events`` maximum-rate scenarios fired
          back-to-back through the :class:`~repro.sweeps.runner.SweepRunner`
          (the campaign path, full population per scenario);
        * ``flash-crowd`` — replays a crowd surge: the population variant
          carries flash-crowd drift on its final week and the scenarios run
          the threshold-aware mimicry attacker under it;
        * ``failure-injection`` — drops a configured fraction of each
          event's hosts (lost telemetry) and corrupts another fraction
          (zeroed sensor bins) before evaluation;
        * ``soak`` — one multi-week :func:`~repro.temporal.evaluate_timeline`
          run (drift + schedule-tracking mimicry, drift-triggered retrain);
          latencies are recorded per deployed week.
    num_events:
        Work items this phase contributes to the profile's declared total.
    host_fraction:
        Fraction of the population each event targets (Zipf-selected);
        ``burst`` phases always evaluate the full population.
    size_start, size_end:
        Attack volume ramp endpoints (``burst`` uses ``size_end`` flat).
    drop_fraction, corrupt_fraction:
        Failure injection: fraction of each event's targeted hosts whose
        events are dropped entirely / corrupted before evaluation.
    corrupt_bins_fraction:
        Fraction of a corrupted host's bins zeroed by the injected fault.
    """

    name: str
    kind: str
    num_events: int
    host_fraction: float = 1.0
    size_start: float = 50.0
    size_end: float = 150.0
    drop_fraction: float = 0.0
    corrupt_fraction: float = 0.0
    corrupt_bins_fraction: float = 0.25

    def __post_init__(self) -> None:
        require(bool(self.name), "phase name must be non-empty")
        require(
            self.kind in PHASE_KINDS,
            f"phase kind must be one of {list(PHASE_KINDS)}, got {self.kind!r}",
        )
        require(self.num_events >= 1, f"phase {self.name!r}: num_events must be >= 1")
        require(
            0.0 < self.host_fraction <= 1.0,
            f"phase {self.name!r}: host_fraction must be in (0, 1]",
        )
        require(
            self.size_start >= 0.0 and self.size_end >= 0.0,
            f"phase {self.name!r}: attack sizes must be non-negative",
        )
        for label, value in (
            ("drop_fraction", self.drop_fraction),
            ("corrupt_fraction", self.corrupt_fraction),
            ("corrupt_bins_fraction", self.corrupt_bins_fraction),
        ):
            require(
                0.0 <= value <= 1.0, f"phase {self.name!r}: {label} must be in [0, 1]"
            )
        require(
            self.drop_fraction + self.corrupt_fraction <= 1.0,
            f"phase {self.name!r}: drop_fraction + corrupt_fraction must be <= 1",
        )
        if self.kind == "failure-injection":
            require(
                self.drop_fraction > 0.0 or self.corrupt_fraction > 0.0,
                f"phase {self.name!r}: failure injection needs a non-zero "
                f"drop_fraction or corrupt_fraction",
            )
        if self.kind == "soak":
            require(
                self.num_events == 1,
                f"phase {self.name!r}: a soak phase is one timeline run "
                f"(num_events must be 1)",
            )

    to_dict = plain


@dataclass(frozen=True)
class LoadEvent:
    """One planned unit of work: a scenario plus its load-shaping metadata."""

    index: int
    phase: str
    kind: str
    scenario: ScenarioSpec
    target_hosts: Tuple[int, ...]
    dropped_hosts: Tuple[int, ...] = ()
    corrupted_hosts: Tuple[int, ...] = ()
    corrupt_bins_fraction: float = 0.0

    to_dict = plain


def corrupt_matrix(
    matrix: FeatureMatrix, bins_fraction: float, rng: np.random.Generator
) -> FeatureMatrix:
    """A copy of ``matrix`` with a random fraction of bins zeroed everywhere.

    Models a faulty sensor: the same bins go dark across every feature (the
    host stops reporting), rather than independent per-feature noise.
    """
    require(0.0 <= bins_fraction <= 1.0, "bins_fraction must be in [0, 1]")
    num_bins = matrix.num_bins
    count = int(round(bins_fraction * num_bins))
    if count == 0:
        return matrix
    dead = rng.choice(num_bins, size=count, replace=False)
    mask = np.ones(num_bins)
    mask[dead] = 0.0
    series = {
        feature: TimeSeries(ts.values * mask, ts.bin_spec)
        for feature, ts in matrix.items()
    }
    return FeatureMatrix(matrix.host_id, series)


def _phase_population(profile: "LoadProfile", phase: PhaseSpec) -> PopulationSpec:
    """The population variant a phase evaluates against.

    Flash-crowd phases replay a crowd surge in the population's final week;
    soak phases layer the profile's drift composition so the retrain
    schedule has something to chase.  Other phases share the base
    population, so the engine generates it exactly once per run.
    """
    drift = DriftSpec()
    if phase.kind == "flash-crowd":
        drift = DriftSpec(kind="flash-crowd", weeks=(profile.num_weeks - 1,))
    elif phase.kind == "soak":
        drift = DriftSpec(
            kind=profile.soak_drift_kind, weeks=(min(2, profile.num_weeks - 1),)
        )
    return PopulationSpec(
        num_hosts=profile.num_hosts,
        num_weeks=profile.num_weeks,
        seed=profile.population_seed,
        drift=drift,
    )


def _phase_attack(phase: PhaseSpec, size: float, seed: int) -> AttackSpec:
    """The attack one event overlays on its test week."""
    if phase.kind == "flash-crowd":
        return AttackSpec(kind="mimicry", seed=seed, evasion_probability=0.9)
    if phase.kind == "soak":
        return AttackSpec(kind="mimicry-vs-schedule", seed=seed, evasion_probability=0.9)
    return AttackSpec(kind="naive", size=size, seed=seed)


def _phase_evaluation(profile: "LoadProfile", phase: PhaseSpec, features) -> EvaluationSpec:
    """The evaluation protocol (one-shot, or a retrain timeline for soak).

    Burst phases run whole campaigns through the sweep runner, so they are
    the one place the profile's ``sample_size`` applies: a sampled burst
    evaluates a seeded host subsample (bounding memory at 10k+-host tiers)
    instead of the full population.  Direct phases already bound their work
    via ``host_fraction``, and soak timelines do not support sampling.
    """
    schedule = ScheduleSpec()
    if phase.kind == "soak":
        schedule = ScheduleSpec(kind="drift-triggered", threshold=0.05, window_weeks=1)
    sample = SampleSpec()
    if phase.kind == "burst" and profile.sample_size:
        sample = SampleSpec(size=profile.sample_size, seed=profile.sample_seed)
    return EvaluationSpec(features=tuple(features), schedule=schedule, sample=sample)


def _ramp(phase: PhaseSpec, position: int) -> float:
    """The attack volume of event ``position`` within its phase."""
    if phase.kind == "burst":
        return phase.size_end
    if phase.num_events == 1:
        return phase.size_end
    fraction = position / (phase.num_events - 1)
    return phase.size_start + (phase.size_end - phase.size_start) * fraction


def plan_events(profile: "LoadProfile") -> Tuple[LoadEvent, ...]:
    """Expand ``profile`` into its deterministic event stream.

    One :class:`LoadEvent` per declared work item, in phase order.  All
    randomness (host skew, feature hot keys, failure injection) flows from
    per-phase generators seeded by ``(profile.seed, phase index)``, so the
    stream is a pure function of the profile.
    """
    host_ids = tuple(range(profile.num_hosts))
    feature_names = tuple(feature.value for feature in Feature)
    events: List[LoadEvent] = []
    index = 0
    for phase_index, phase in enumerate(profile.phases):
        rng = np.random.default_rng((profile.seed, phase_index))
        host_selector = ZipfSelector(host_ids, exponent=profile.zipf_exponent)
        feature_selector = HotKeySelector(
            feature_names,
            hot_count=profile.hot_feature_count,
            hot_probability=profile.hot_feature_probability,
        )
        population = _phase_population(profile, phase)
        for position in range(phase.num_events):
            if phase.kind == "burst":
                targets = host_ids
            else:
                count = max(1, int(round(phase.host_fraction * profile.num_hosts)))
                targets = tuple(sorted(host_selector.sample(count, rng)))
            features = feature_selector.sample(profile.features_per_event, rng)
            dropped: Tuple[int, ...] = ()
            corrupted: Tuple[int, ...] = ()
            if phase.kind == "failure-injection":
                shuffled = list(rng.permutation(np.asarray(targets)))
                num_dropped = int(round(phase.drop_fraction * len(targets)))
                num_corrupted = int(round(phase.corrupt_fraction * len(targets)))
                dropped = tuple(sorted(int(h) for h in shuffled[:num_dropped]))
                corrupted = tuple(
                    sorted(
                        int(h)
                        for h in shuffled[num_dropped : num_dropped + num_corrupted]
                    )
                )
            scenario = ScenarioSpec(
                name=f"{profile.name}/{phase.name}/{position:03d}",
                population=population,
                policy=PolicySpec(
                    kind=profile.policy_kind, num_groups=profile.num_groups
                ),
                attack=_phase_attack(
                    phase, _ramp(phase, position), profile.seed * 100003 + index
                ),
                evaluation=_phase_evaluation(profile, phase, features),
            ).validate()
            events.append(
                LoadEvent(
                    index=index,
                    phase=phase.name,
                    kind=phase.kind,
                    scenario=scenario,
                    target_hosts=targets,
                    dropped_hosts=dropped,
                    corrupted_hosts=corrupted,
                    corrupt_bins_fraction=(
                        phase.corrupt_bins_fraction if corrupted else 0.0
                    ),
                )
            )
            index += 1
    return tuple(events)
