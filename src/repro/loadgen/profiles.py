"""Validated load profiles and the packaged workload tiers.

A :class:`LoadProfile` declares everything one load-generation run needs —
the population scale, the skew configuration, the phase composition and the
total event budget — as validated plain data.  The packaged tiers mirror the
usual load-testing ladder:

==========  ======  =====  ======  ==========================================
Tier        Hosts   Weeks  Events  Intent
==========  ======  =====  ======  ==========================================
`demo`        16      2      11    CI smoke: seconds, every phase kind hit
`standard`    40      2      20    Laptop-scale regression runs
`peak`        80      3      29    Pre-release: adds flash-crowd + soak
`stress`    12288      4      37    Scale ceiling: sharded mmap population,
                                    sampled campaign evaluation
`soak`      10240      4       3    Packaged drift+mimicry soak at sharded
                                    scale
==========  ======  =====  ======  ==========================================

The two large tiers ride the sharded-population machinery: populations at or
above :data:`~repro.loadgen.orchestrator.SHARDED_POPULATION_THRESHOLD` hosts
are generated as lazy mmap-backed shards, direct phases touch only the hosts
their ``host_fraction`` selects, and burst campaigns evaluate a seeded
``sample_size`` subsample with bootstrap confidence intervals — so memory
stays bounded however many hosts the tier declares.

Every profile validates that its declared ``total_events`` equals the sum of
its phases' event counts — the invariant the hypothesis property in
``tests/test_loadgen.py`` exercises across tiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.features.definitions import Feature
from repro.loadgen.phases import PhaseSpec
from repro.sweeps.spec import POLICY_KINDS
from repro.utils.records import plain
from repro.utils.validation import require
from repro.workload.drift import DRIFT_KINDS


@dataclass(frozen=True)
class LoadProfile:
    """One complete, validated load-generation configuration.

    Attributes
    ----------
    name:
        Tier name (``demo``/``standard``/... or a custom label).
    description:
        One-line intent, shown by ``repro loadgen list``.
    num_hosts, num_weeks:
        Scale of the shared population the phases stress.
    seed:
        Load-plan seed: drives host/feature skew and failure injection.
        Everything downstream is a pure function of the profile, so the same
        profile + seed reproduces the event stream bit for bit.
    population_seed:
        Seed of the generated population (kept separate from the plan seed
        so load shape and population realisation vary independently).
    policy_kind, num_groups:
        The configuration policy every event deploys.
    zipf_exponent:
        Host-selection skew (``0`` uniform; see
        :class:`~repro.loadgen.skew.ZipfSelector`).
    hot_feature_count, hot_feature_probability:
        Feature hot-pool configuration (see
        :class:`~repro.loadgen.skew.HotKeySelector`).
    features_per_event:
        Monitored feature-set size each event evaluates.
    soak_drift_kind:
        Drift composition layered on soak-phase populations
        ("+"-joined :data:`~repro.workload.drift.DRIFT_KINDS`).
    sample_size, sample_seed:
        Sampled campaign evaluation: when ``sample_size`` is positive, burst
        phases evaluate a seeded host subsample of that size (with bootstrap
        confidence intervals) instead of the full population — the knob that
        keeps 10k+-host tiers memory- and latency-bounded.  ``0`` (the
        default) keeps the exhaustive evaluation.
    total_events:
        Declared event budget; must equal the sum over ``phases``.
    phases:
        The ordered :class:`~repro.loadgen.phases.PhaseSpec` composition.
    """

    name: str
    description: str
    num_hosts: int
    num_weeks: int
    phases: Tuple[PhaseSpec, ...]
    total_events: int
    seed: int = 2009
    population_seed: int = 1973
    policy_kind: str = "partial-diversity"
    num_groups: int = 4
    zipf_exponent: float = 1.1
    hot_feature_count: int = 2
    hot_feature_probability: float = 0.8
    features_per_event: int = 2
    soak_drift_kind: str = "seasonal+flash-crowd"
    sample_size: int = 0
    sample_seed: int = 7

    def __post_init__(self) -> None:
        require(bool(self.name), "profile name must be non-empty")
        require(self.num_hosts >= 2, "profile needs at least two hosts")
        require(self.num_weeks >= 2, "profile needs at least two weeks (train + test)")
        require(len(self.phases) >= 1, "profile needs at least one phase")
        names = self.phase_names
        require(len(set(names)) == len(names), "phase names must be unique")
        declared = sum(phase.num_events for phase in self.phases)
        require(
            self.total_events == declared,
            f"profile {self.name!r}: total_events={self.total_events} but the "
            f"phases sum to {declared}",
        )
        require(self.zipf_exponent >= 0.0, "zipf_exponent must be non-negative")
        num_features = len(Feature)
        require(
            1 <= self.features_per_event <= num_features,
            f"features_per_event must be in [1, {num_features}]",
        )
        require(
            1 <= self.hot_feature_count < num_features,
            f"hot_feature_count must be in [1, {num_features - 1}]",
        )
        require(
            0.0 <= self.hot_feature_probability <= 1.0,
            "hot_feature_probability must be in [0, 1]",
        )
        require(
            self.policy_kind in POLICY_KINDS,
            f"policy_kind must be one of {list(POLICY_KINDS)}",
        )
        require(
            self.num_groups >= 2 and self.num_groups % 2 == 0,
            "num_groups must be an even number >= 2",
        )
        for kind in self.soak_drift_kind.split("+"):
            require(
                kind.strip() in DRIFT_KINDS,
                f"soak_drift_kind components must be among {list(DRIFT_KINDS)}",
            )
        require(self.sample_size >= 0, "sample_size must be non-negative")
        require(
            self.sample_size < self.num_hosts,
            "sample_size must be smaller than the population "
            "(0 disables sampling and evaluates every host)",
        )
        for phase in self.phases:
            if phase.kind == "soak":
                require(
                    self.num_weeks >= 3,
                    f"profile {self.name!r}: soak phases need >= 3 weeks "
                    f"(deploy week plus a timeline to walk)",
                )

    @property
    def phase_names(self) -> Tuple[str, ...]:
        """Phase names in execution order."""
        return tuple(phase.name for phase in self.phases)

    to_dict = plain


def _ramp(num_events: int, host_fraction: float = 0.5) -> PhaseSpec:
    return PhaseSpec(
        name="steady-ramp",
        kind="steady-ramp",
        num_events=num_events,
        host_fraction=host_fraction,
        size_start=40.0,
        size_end=160.0,
    )


def _burst(num_events: int) -> PhaseSpec:
    return PhaseSpec(name="burst", kind="burst", num_events=num_events, size_end=200.0)


def _flash_crowd(num_events: int, host_fraction: float = 0.5) -> PhaseSpec:
    return PhaseSpec(
        name="flash-crowd",
        kind="flash-crowd",
        num_events=num_events,
        host_fraction=host_fraction,
    )


def _failure(num_events: int, host_fraction: float = 0.75) -> PhaseSpec:
    return PhaseSpec(
        name="failure-injection",
        kind="failure-injection",
        num_events=num_events,
        host_fraction=host_fraction,
        drop_fraction=0.2,
        corrupt_fraction=0.2,
        corrupt_bins_fraction=0.25,
    )


def _soak(host_fraction: float = 1.0) -> PhaseSpec:
    return PhaseSpec(
        name="soak", kind="soak", num_events=1, host_fraction=host_fraction
    )


#: The packaged workload tiers, keyed by name.
PROFILES: Dict[str, LoadProfile] = {
    "demo": LoadProfile(
        name="demo",
        description="CI smoke tier: seconds of wall clock, every direct phase kind",
        num_hosts=16,
        num_weeks=2,
        phases=(_ramp(4, host_fraction=0.75), _burst(4), _failure(3)),
        total_events=11,
    ),
    "standard": LoadProfile(
        name="standard",
        description="Laptop-scale regression tier with a flash-crowd replay",
        num_hosts=40,
        num_weeks=2,
        phases=(_ramp(6), _burst(6), _flash_crowd(4), _failure(4)),
        total_events=20,
    ),
    "peak": LoadProfile(
        name="peak",
        description="Pre-release tier: full phase ladder plus a multi-week soak",
        num_hosts=80,
        num_weeks=3,
        phases=(_ramp(8), _burst(8), _flash_crowd(6), _failure(6), _soak()),
        total_events=29,
    ),
    "stress": LoadProfile(
        name="stress",
        description="Scale ceiling: 12k-host sharded population, sampled campaign "
        "evaluation with bootstrap confidence intervals",
        num_hosts=12288,
        num_weeks=4,
        phases=(
            _ramp(10, host_fraction=0.02),
            _burst(12),
            _flash_crowd(8, host_fraction=0.02),
            _failure(6, host_fraction=0.04),
            _soak(host_fraction=0.02),
        ),
        total_events=37,
        sample_size=256,
    ),
    "soak": LoadProfile(
        name="soak",
        description="Packaged soak: seasonal+flash-crowd drift with schedule-tracking "
        "mimicry on a 10k-host sharded population",
        num_hosts=10240,
        num_weeks=4,
        phases=(_flash_crowd(2, host_fraction=0.02), _soak(host_fraction=0.02)),
        total_events=3,
        sample_size=256,
    ),
}

#: Tier names in ladder order.
PROFILE_NAMES: Tuple[str, ...] = tuple(PROFILES)


def load_profile(name: str) -> LoadProfile:
    """Look up a packaged profile by tier name."""
    require(
        name in PROFILES,
        f"unknown load profile {name!r}; expected one of {list(PROFILES)}",
    )
    return PROFILES[name]
