"""Host behaviour profiles.

Every synthetic host is described by a :class:`HostProfile`: a user role, an
activity level, and one :class:`FeatureIntensity` per monitored feature.  The
intensity controls the *scale* of the host's per-bin counts; the population is
constructed so the cross-host spread of tail percentiles matches the paper's
Figure 1 (3-4 orders of magnitude for most features, about 2 for DNS).

The key modelling decision is that a host's per-feature scales are drawn from
a shared "master intensity" plus substantial per-feature noise, so heaviness
is only weakly correlated across features — reproducing Figure 2 and Table 2,
where the heaviest TCP users are not the heaviest UDP users.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Mapping, Optional

import numpy as np

from repro.features.definitions import Feature, PAPER_FEATURES
from repro.utils.rng import RandomSource
from repro.utils.validation import require, require_positive


class UserRole(Enum):
    """Enterprise user archetypes with different application mixes."""

    OFFICE_WORKER = "office_worker"
    SOFTWARE_DEVELOPER = "software_developer"
    SYSTEM_ADMINISTRATOR = "system_administrator"
    SALES_MOBILE = "sales_mobile"
    RESEARCHER = "researcher"
    POWER_USER = "power_user"

    @property
    def weight(self) -> float:
        """Relative frequency of this role in the enterprise population."""
        return _ROLE_WEIGHTS[self]


_ROLE_WEIGHTS: Dict[UserRole, float] = {
    UserRole.OFFICE_WORKER: 0.40,
    UserRole.SOFTWARE_DEVELOPER: 0.20,
    UserRole.SYSTEM_ADMINISTRATOR: 0.05,
    UserRole.SALES_MOBILE: 0.15,
    UserRole.RESEARCHER: 0.12,
    UserRole.POWER_USER: 0.08,
}

#: Per-role multiplicative bias applied to the master intensity (log10 units).
_ROLE_LOG10_BIAS: Dict[UserRole, float] = {
    UserRole.OFFICE_WORKER: -0.2,
    UserRole.SOFTWARE_DEVELOPER: 0.2,
    UserRole.SYSTEM_ADMINISTRATOR: 0.6,
    UserRole.SALES_MOBILE: -0.3,
    UserRole.RESEARCHER: 0.1,
    UserRole.POWER_USER: 0.5,
}

#: Per-feature base rate (typical per-15-minute-bin count for a scale-1 host).
_FEATURE_BASE_RATE: Dict[Feature, float] = {
    Feature.DNS_CONNECTIONS: 12.0,
    Feature.TCP_CONNECTIONS: 16.0,
    Feature.TCP_SYN: 19.0,
    Feature.HTTP_CONNECTIONS: 8.0,
    Feature.DISTINCT_CONNECTIONS: 8.0,
    Feature.UDP_CONNECTIONS: 5.0,
}

#: How strongly the feature scale follows the host's master intensity.
#: Calibrated against Figure 1: the per-host 99th-percentile spread is about
#: two orders of magnitude for the number of TCP connections (Figure 1(a):
#: roughly 50 to 7000) and for DNS (Figure 1(d)), and three to four orders
#: for HTTP, distinct-destination and UDP counts (Figures 1(b), 1(c), 1(f)).
_FEATURE_MASTER_EXPONENT: Dict[Feature, float] = {
    Feature.DNS_CONNECTIONS: 0.40,
    Feature.TCP_CONNECTIONS: 0.55,
    Feature.TCP_SYN: 0.55,
    Feature.HTTP_CONNECTIONS: 0.80,
    Feature.DISTINCT_CONNECTIONS: 0.80,
    Feature.UDP_CONNECTIONS: 0.95,
}

#: Standard deviation (log10) of the per-feature idiosyncratic offset; this is
#: what decorrelates heaviness across features.
_FEATURE_IDIOSYNCRASY: Dict[Feature, float] = {
    Feature.DNS_CONNECTIONS: 0.20,
    Feature.TCP_CONNECTIONS: 0.30,
    Feature.TCP_SYN: 0.15,
    Feature.HTTP_CONNECTIONS: 0.30,
    Feature.DISTINCT_CONNECTIONS: 0.30,
    Feature.UDP_CONNECTIONS: 0.45,
}

#: In-bin variability (sigma of the lognormal body) per feature.
_FEATURE_BODY_SIGMA: Dict[Feature, float] = {
    Feature.DNS_CONNECTIONS: 0.8,
    Feature.TCP_CONNECTIONS: 1.0,
    Feature.TCP_SYN: 1.0,
    Feature.HTTP_CONNECTIONS: 1.1,
    Feature.DISTINCT_CONNECTIONS: 0.9,
    Feature.UDP_CONNECTIONS: 1.2,
}

#: Probability that a bin contains a burst drawn from the Pareto tail.
_FEATURE_BURST_PROBABILITY: Dict[Feature, float] = {
    Feature.DNS_CONNECTIONS: 0.010,
    Feature.TCP_CONNECTIONS: 0.015,
    Feature.TCP_SYN: 0.015,
    Feature.HTTP_CONNECTIONS: 0.012,
    Feature.DISTINCT_CONNECTIONS: 0.010,
    Feature.UDP_CONNECTIONS: 0.012,
}


@dataclass(frozen=True)
class FeatureIntensity:
    """Scale and shape parameters of one host's per-bin counts for one feature.

    Attributes
    ----------
    scale:
        Multiplicative scale applied to the feature's base rate; the dominant
        source of cross-host diversity.
    body_sigma:
        Log-space sigma of the lognormal body of the per-bin distribution.
    burst_probability:
        Per-bin probability of drawing from the Pareto burst component.
    burst_alpha:
        Pareto tail index of the burst component (smaller is heavier).
    """

    scale: float
    body_sigma: float
    burst_probability: float
    burst_alpha: float

    def __post_init__(self) -> None:
        require_positive(self.scale, "scale")
        require_positive(self.body_sigma, "body_sigma")
        require(0.0 <= self.burst_probability <= 0.2, "burst_probability must be in [0, 0.2]")
        require_positive(self.burst_alpha, "burst_alpha")


@dataclass(frozen=True)
class HostProfile:
    """Complete behavioural description of one synthetic host."""

    host_id: int
    role: UserRole
    master_intensity: float
    intensities: Mapping[Feature, FeatureIntensity]
    is_laptop: bool = True

    def __post_init__(self) -> None:
        require_positive(self.master_intensity, "master_intensity")
        require(len(self.intensities) > 0, "profile requires at least one feature intensity")

    def intensity(self, feature: Feature) -> FeatureIntensity:
        """Intensity parameters for ``feature``."""
        return self.intensities[feature]

    def base_rate(self, feature: Feature) -> float:
        """Expected per-bin count scale (base rate x host scale) for ``feature``."""
        return _FEATURE_BASE_RATE[feature] * self.intensities[feature].scale


def sample_host_profile(
    host_id: int,
    random_source: RandomSource,
    role: Optional[UserRole] = None,
    master_log10_range: float = 2.2,
    laptop_fraction: float = 0.95,
) -> HostProfile:
    """Draw one host's profile.

    Parameters
    ----------
    host_id:
        Identifier of the host; also used to derive the host's RNG stream.
    random_source:
        Parent random source (the population's).
    role:
        Fixed role, or None to sample from the enterprise role mix.
    master_log10_range:
        Width (in log10 units) of the uniform distribution of master
        intensities across the population.  With the per-feature exponents
        and idiosyncratic noise this yields the 3-4 order-of-magnitude tail
        spread the paper reports.
    laptop_fraction:
        Probability the host is a laptop (the paper's population was 95%
        laptops).
    """
    rng = random_source.child("profile", host_id).generator
    if role is None:
        roles = list(UserRole)
        weights = np.array([r.weight for r in roles])
        weights = weights / weights.sum()
        role = roles[int(rng.choice(len(roles), p=weights))]

    master_log10 = rng.uniform(0.0, master_log10_range) + _ROLE_LOG10_BIAS[role]
    master_intensity = float(10.0 ** master_log10)

    intensities: Dict[Feature, FeatureIntensity] = {}
    for feature in PAPER_FEATURES:
        exponent = _FEATURE_MASTER_EXPONENT[feature]
        idiosyncratic = rng.normal(0.0, _FEATURE_IDIOSYNCRASY[feature])
        scale = float(10.0 ** (exponent * master_log10 + idiosyncratic))
        intensities[feature] = FeatureIntensity(
            scale=max(scale, 1e-3),
            body_sigma=_FEATURE_BODY_SIGMA[feature],
            burst_probability=_FEATURE_BURST_PROBABILITY[feature],
            burst_alpha=float(rng.uniform(1.6, 2.6)),
        )

    return HostProfile(
        host_id=host_id,
        role=role,
        master_intensity=master_intensity,
        intensities=intensities,
        is_laptop=bool(rng.uniform() < laptop_fraction),
    )
