"""Synthetic enterprise workload generation.

The paper analysed packet traces from 350 enterprise end hosts collected over
five weeks.  Those traces are proprietary, so this package generates a
synthetic population that reproduces the statistical properties the paper's
conclusions rest on:

* per-host per-bin feature counts are heavy-tailed (lognormal body with an
  occasional Pareto-tail burst component);
* the *location of the tail* (99th percentile) varies across hosts by 3-4
  orders of magnitude for five of the six features and about 2 for DNS;
* which hosts are "heavy" is only weakly correlated across features (a heavy
  TCP user is usually not a heavy UDP user);
* counts are modulated by diurnal and weekday patterns and by laptop mobility
  (office / home / offline).

Two generation paths exist: the *series* path emits per-bin feature counts
directly (fast, used for the 350-host experiments), and the *packet* path
emits packet-level traces that run through the full assembly + extraction
pipeline (used by examples and integration tests to exercise the substrate).
"""

from repro.workload.profiles import (
    FeatureIntensity,
    HostProfile,
    UserRole,
    sample_host_profile,
)
from repro.workload.diurnal import ActivityModel, DiurnalPattern
from repro.workload.drift import DRIFT_KINDS, DriftComponent, DriftModel
from repro.workload.mobility import MobilityModel, generate_capture_session
from repro.workload.generator import HostSeriesGenerator, HostTraceGenerator
from repro.workload.enterprise import (
    EnterpriseConfig,
    EnterprisePopulation,
    build_population_events,
    generate_enterprise,
    generate_host,
)
from repro.workload.sessions import (
    ApplicationSession,
    BrowsingSessionModel,
    BulkTransferModel,
    DNSLookupModel,
    SessionModel,
)

__all__ = [
    "UserRole",
    "FeatureIntensity",
    "HostProfile",
    "sample_host_profile",
    "DiurnalPattern",
    "ActivityModel",
    "DRIFT_KINDS",
    "DriftComponent",
    "DriftModel",
    "MobilityModel",
    "generate_capture_session",
    "HostSeriesGenerator",
    "HostTraceGenerator",
    "EnterpriseConfig",
    "EnterprisePopulation",
    "generate_enterprise",
    "generate_host",
    "build_population_events",
    "SessionModel",
    "ApplicationSession",
    "BrowsingSessionModel",
    "DNSLookupModel",
    "BulkTransferModel",
]
