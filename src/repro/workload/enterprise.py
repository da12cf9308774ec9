"""Enterprise population builder.

Builds the 350-host, multi-week synthetic population that stands in for the
paper's proprietary traces, and exposes it as a mapping from host id to
:class:`~repro.features.timeseries.FeatureMatrix`.  Generation is fully
deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, PopulationFrame
from repro.stats.empirical import EmpiricalDistribution
from repro.utils.rng import RandomSource
from repro.utils.timeutils import BinSpec, MINUTE, WEEK
from repro.utils.validation import require, require_positive
from repro.workload.diurnal import ActivityModel, always_on_pattern, office_worker_pattern
from repro.workload.drift import DriftModel
from repro.workload.events import ScheduledEvent, build_maintenance_events
from repro.workload.generator import BinGrid, HostSeriesGenerator
from repro.workload.mobility import MobilityModel
from repro.workload.profiles import HostProfile, UserRole, sample_host_profile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine import PopulationEngine


@dataclass(frozen=True)
class EnterpriseConfig:
    """Configuration of the synthetic enterprise population.

    Defaults mirror the paper's dataset: 350 hosts, five weeks of data,
    15-minute bins, 95% laptops.

    ``maintenance_weeks`` schedules enterprise-wide software rollouts (patch
    cycles) in the given weeks; together with ``week_drift_scale`` this is
    the source of the week-to-week threshold instability the paper reports.
    Set ``with_maintenance=False`` and ``week_drift_scale=0.0`` for a fully
    stationary population (useful in ablation benchmarks).

    ``drift`` layers named, composable drift shapes (seasonal ramp, role
    churn, fleet turnover, flash-crowd weeks — see
    :class:`~repro.workload.drift.DriftModel`) on top of the baseline
    ``week_drift_scale`` non-stationarity.  The default (empty model) leaves
    generation bit-identical to the pre-drift-model code.  A plain mapping
    (e.g. from a deserialized config payload) is accepted and normalised.
    """

    num_hosts: int = 350
    num_weeks: int = 5
    bin_width: float = 15 * MINUTE
    seed: int = 2009
    laptop_fraction: float = 0.95
    with_mobility: bool = True
    master_log10_range: float = 2.2
    with_maintenance: bool = True
    maintenance_weeks: Tuple[int, ...] = (0, 2, 4)
    week_drift_scale: float = 1.0
    drift: DriftModel = field(default_factory=DriftModel)

    def __post_init__(self) -> None:
        require(self.num_hosts >= 1, "num_hosts must be >= 1")
        require(self.num_weeks >= 1, "num_weeks must be >= 1")
        require_positive(self.bin_width, "bin_width")
        require(0.0 <= self.laptop_fraction <= 1.0, "laptop_fraction must be in [0, 1]")
        require(self.week_drift_scale >= 0.0, "week_drift_scale must be non-negative")
        if isinstance(self.drift, Mapping):
            object.__setattr__(self, "drift", DriftModel.from_dict(self.drift))
        require(isinstance(self.drift, DriftModel), "drift must be a DriftModel")

    @property
    def duration(self) -> float:
        """Total trace duration in seconds."""
        return self.num_weeks * WEEK


class EnterprisePopulation:
    """The generated population: host profiles plus per-host feature matrices.

    A population loaded from a one-shard cache layout holds its matrices as
    a read-only :class:`~repro.features.timeseries.PopulationFrame` over the
    mapped shard, kept as it is; any other mapping is copied into a dict.
    """

    def __init__(
        self,
        config: EnterpriseConfig,
        profiles: Mapping[int, HostProfile],
        matrices: Mapping[int, FeatureMatrix],
    ) -> None:
        require(set(profiles) == set(matrices), "profiles and matrices must cover the same hosts")
        require(len(profiles) > 0, "population must contain at least one host")
        self._config = config
        self._profiles = dict(profiles)
        self._matrices: Mapping[int, FeatureMatrix] = (
            matrices if isinstance(matrices, PopulationFrame) else dict(matrices)
        )

    # ----------------------------------------------------------------- basic
    @property
    def config(self) -> EnterpriseConfig:
        """The configuration the population was generated with."""
        return self._config

    @property
    def host_ids(self) -> Tuple[int, ...]:
        """Sorted host identifiers."""
        return tuple(sorted(self._matrices))

    def __len__(self) -> int:
        return len(self._matrices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.host_ids)

    def profile(self, host_id: int) -> HostProfile:
        """Profile of ``host_id``."""
        return self._profiles[host_id]

    def matrix(self, host_id: int) -> FeatureMatrix:
        """Feature matrix of ``host_id``."""
        return self._matrices[host_id]

    def matrices(self) -> Mapping[int, FeatureMatrix]:
        """All feature matrices keyed by host id.

        The population's read-only :class:`~repro.features.timeseries.PopulationFrame`
        when it has one, otherwise a shallow dict copy; wrap the result in
        ``dict(...)`` to edit it.
        """
        if isinstance(self._matrices, PopulationFrame):
            return self._matrices
        return dict(self._matrices)

    # ------------------------------------------------------------- transforms
    def week(self, index: int) -> "EnterprisePopulation":
        """Population restricted to week ``index`` (0-based)."""
        return EnterprisePopulation(
            self._config,
            self._profiles,
            {host_id: matrix.week(index) for host_id, matrix in self._matrices.items()},
        )

    def feature_values(self, feature: Feature) -> Dict[int, np.ndarray]:
        """Per-host per-bin values of ``feature``."""
        return {host_id: matrix.series(feature).values for host_id, matrix in self._matrices.items()}

    def distributions(self, feature: Feature) -> Dict[int, EmpiricalDistribution]:
        """Per-host empirical distribution of ``feature``."""
        return {
            host_id: matrix.series(feature).distribution()
            for host_id, matrix in self._matrices.items()
        }

    def pooled_distribution(self, feature: Feature) -> EmpiricalDistribution:
        """The global (pooled across hosts) distribution of ``feature``.

        This is what the central console computes under the homogeneous
        (monoculture) policy.
        """
        return EmpiricalDistribution.pooled(list(self.distributions(feature).values()))

    def per_host_percentiles(self, feature: Feature, q: float) -> Dict[int, float]:
        """Per-host ``q``-th percentile of ``feature`` (full-diversity thresholds)."""
        return {
            host_id: matrix.series(feature).percentile(q)
            for host_id, matrix in self._matrices.items()
        }

    def max_observed(self, feature: Feature) -> float:
        """Maximum per-bin value of ``feature`` across all hosts.

        The paper uses this as the largest attack size worth simulating: any
        attack bigger than the largest benign value stands out on every host.
        """
        return max(matrix.series(feature).max() for matrix in self._matrices.values())


def build_population_events(config: EnterpriseConfig) -> List[ScheduledEvent]:
    """The enterprise-wide maintenance schedule implied by ``config``."""
    if not config.with_maintenance:
        return []
    return build_maintenance_events(config.num_weeks, config.maintenance_weeks)


def population_grid(config: EnterpriseConfig) -> BinGrid:
    """The bin grid every host of ``config``'s population is generated on."""
    return BinGrid(BinSpec(width=config.bin_width), config.duration)


def generate_host(
    config: EnterpriseConfig,
    host_id: int,
    random_source: Optional[RandomSource] = None,
    events: Optional[Sequence[ScheduledEvent]] = None,
    role: Optional[UserRole] = None,
    grid: Optional[BinGrid] = None,
) -> Tuple[HostProfile, FeatureMatrix]:
    """Generate one host's profile and feature matrix.

    Every random stream is derived from ``(config.seed, host_id)`` via the
    labelled :class:`RandomSource` hierarchy, so the output depends only on
    the configuration and the host id — never on generation order.  This is
    the property the parallel :class:`~repro.engine.PopulationEngine` relies
    on to fan hosts out across worker processes while staying bit-identical
    to serial generation.  ``random_source``, ``events`` and ``grid`` are
    the same for every host of the population (built from ``config`` when
    None), so a caller generating many hosts builds them once.
    """
    if random_source is None:
        random_source = RandomSource(seed=config.seed, label="enterprise")
    if events is None:
        events = build_population_events(config)
    if grid is None:
        grid = population_grid(config)
    require(
        grid.bin_spec == BinSpec(width=config.bin_width) and grid.duration == config.duration,
        "grid must be the config's population_grid",
    )
    profile = sample_host_profile(
        host_id=host_id,
        random_source=random_source,
        role=role,
        master_log10_range=config.master_log10_range,
        laptop_fraction=config.laptop_fraction,
    )
    pattern = (
        always_on_pattern()
        if profile.role == UserRole.SYSTEM_ADMINISTRATOR
        else office_worker_pattern()
    )
    mobility = MobilityModel(is_laptop=profile.is_laptop) if config.with_mobility else None
    generator = HostSeriesGenerator(
        profile=profile,
        activity=ActivityModel(pattern=pattern),
        mobility=mobility,
        bin_spec=grid.bin_spec,
        week_drift_scale=config.week_drift_scale,
        events=events,
        drift_model=config.drift,
    )
    return profile, generator.generate_on(grid, random_source)


def generate_enterprise(
    config: Optional[EnterpriseConfig] = None,
    roles: Optional[Mapping[int, UserRole]] = None,
    engine: Optional["PopulationEngine"] = None,
) -> EnterprisePopulation:
    """Generate the full synthetic enterprise population.

    Generation is delegated to a :class:`~repro.engine.PopulationEngine`,
    which can fan hosts out across worker processes and serve repeated
    configurations from an on-disk cache.  The default engine (from
    environment variables ``REPRO_ENGINE_WORKERS`` / ``REPRO_CACHE_DIR``)
    preserves the historical behaviour: serial generation, no caching.

    Parameters
    ----------
    config:
        Population configuration; defaults to the paper-scale configuration
        (350 hosts, 5 weeks).
    roles:
        Optional explicit role assignment per host id (hosts not listed get a
        sampled role).
    engine:
        Optional pre-configured engine (worker count, cache directory).
    """
    from repro.engine import PopulationEngine

    if engine is None:
        engine = PopulationEngine.from_env()
    return engine.generate(config, roles=roles)
