"""Per-host workload generation.

Two generators share the same :class:`~repro.workload.profiles.HostProfile`,
:class:`~repro.workload.diurnal.ActivityModel` and mobility inputs:

* :class:`HostSeriesGenerator` draws the per-bin feature counts directly.  It
  is the fast path used by the 350-host, 5-week experiments, and the place
  where the heavy-tailed per-bin model (lognormal body + Pareto bursts,
  scaled by the host's feature intensity and the activity multiplier) lives.
  Every per-host quantity — bin grid, diurnal multipliers, mobility location
  factors, per-feature counts — is drawn with batched numpy operations over
  the whole bin grid; no per-bin Python loops remain on this path.
* :class:`HostTraceGenerator` produces packet-level traces by scheduling
  application sessions, so the full assembly and extraction pipeline can be
  exercised end to end on smaller populations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.features.definitions import Feature, PAPER_FEATURES
from repro.features.timeseries import FeatureMatrix, TimeSeries
from repro.traces.packet import Packet
from repro.utils.rng import RandomSource
from repro.utils.timeutils import BinSpec, MINUTE, WEEK
from repro.utils.validation import require, require_positive
from repro.workload.diurnal import ActivityModel, hour_of_week_slots, office_worker_pattern
from repro.workload.events import ScheduledEvent, add_event_counts
from repro.workload.mobility import MobilityModel, mobility_timeline
from repro.workload.profiles import HostProfile
from repro.workload.sessions import (
    ApplicationSession,
    BrowsingSessionModel,
    BulkTransferModel,
    DNSLookupModel,
    PeerChatterModel,
    SessionModel,
    session_to_packets,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workload.drift import DriftModel


class BinGrid:
    """The bins a generated series covers, and what depends on their starts alone.

    Every host generated with one bin spec and duration shares the grid, so a
    population builds it once and passes it to each host.  Its arrays are
    read-only.

    Attributes
    ----------
    bin_spec, duration:
        What the grid was built from.
    starts:
        Bin start times: the complete bins that fit in ``duration`` (at least
        one).
    hour_slots:
        Each bin's :func:`~repro.workload.diurnal.hour_of_week_slots` entry.
    week_indices, num_weeks:
        Each bin's 0-based week, and the number of weeks the bins touch.
    """

    def __init__(self, bin_spec: BinSpec, duration: float) -> None:
        require_positive(duration, "duration")
        self.bin_spec = bin_spec
        self.duration = duration
        starts = bin_spec.starts(max(bin_spec.count_until(duration), 1))
        week_indices = (starts // WEEK).astype(int)
        self.num_weeks = int(week_indices.max()) + 1
        self.starts = _read_only(starts)
        self.hour_slots = _read_only(hour_of_week_slots(starts))
        self.week_indices = _read_only(week_indices)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class HostSeriesGenerator:
    """Generate one host's per-bin feature counts directly.

    Parameters
    ----------
    profile:
        The host's behavioural profile (scales and shapes of its features).
    activity:
        Diurnal/weekly activity model; defaults to the office-worker pattern.
    mobility:
        Mobility model controlling offline periods; None disables mobility
        (the host is always online at the office).
    bin_spec:
        Binning of the generated series (defaults to the paper's 15 minutes).
    week_drift_scale:
        Overall strength of the per-host per-week activity drift (1.0 =
        default, 0.0 = stationary population).  The paper observes that
        per-host thresholds are *not* stable from week to week (a
        99th-percentile threshold learned one week does not yield a 1%
        false-positive rate the next), and that under a homogeneous policy
        the heaviest users' test-week false-positive rates explode
        (Figure 5(a), Table 3).  The drift model reproduces that: all hosts
        get mild lognormal week-to-week drift, and *heavy* hosts additionally
        experience occasional large upward activity shifts (new workloads,
        role changes) that make a body-level global threshold fire
        persistently while a tail-level personal threshold degrades far less.
    """

    def __init__(
        self,
        profile: HostProfile,
        activity: Optional[ActivityModel] = None,
        mobility: Optional[MobilityModel] = None,
        bin_spec: Optional[BinSpec] = None,
        week_drift_scale: float = 1.0,
        events: Optional[Sequence["ScheduledEvent"]] = None,
        drift_model: Optional["DriftModel"] = None,
    ) -> None:
        require(week_drift_scale >= 0.0, "week_drift_scale must be non-negative")
        self._profile = profile
        self._activity = activity if activity is not None else ActivityModel(pattern=office_worker_pattern())
        self._mobility = mobility
        self._bin_spec = bin_spec if bin_spec is not None else BinSpec(width=15 * MINUTE)
        self._week_drift_scale = float(week_drift_scale)
        self._events = tuple(events) if events else ()
        self._drift_model = drift_model

    @property
    def profile(self) -> HostProfile:
        """The host profile driving generation."""
        return self._profile

    @property
    def bin_spec(self) -> BinSpec:
        """Bin specification of generated series."""
        return self._bin_spec

    def generate(self, duration: float, random_source: RandomSource) -> FeatureMatrix:
        """Generate a :class:`FeatureMatrix` covering ``duration`` seconds."""
        return self.generate_on(BinGrid(self._bin_spec, duration), random_source)

    def generate_on(self, grid: BinGrid, random_source: RandomSource) -> FeatureMatrix:
        """Generate a :class:`FeatureMatrix` on ``grid``, built on this generator's bin spec."""
        require(grid.bin_spec == self._bin_spec, "grid must be built on the generator's bin spec")
        host_id = self._profile.host_id
        rng = random_source.child("series", host_id).generator

        # Activity multiplier per bin = diurnal pattern x location factor x
        # per-week drift (week-to-week non-stationarity of the user).
        activity = self._activity.slot_multipliers(grid.hour_slots, rng)
        location_factor = self._location_factors(host_id, grid, random_source)
        week_factor = self._week_drift(grid, rng)
        if self._drift_model:
            week_factor = week_factor * self._model_drift(host_id, grid, random_source)
        per_bin_activity = activity * location_factor * week_factor

        offline = per_bin_activity <= 0.0
        counts: Dict[Feature, np.ndarray] = {}
        for feature in PAPER_FEATURES:
            counts[feature] = self._feature_counts(feature, per_bin_activity, offline, rng)
        if self._events:
            # Enterprise-wide scheduled events (patch rollouts) on online bins.
            add_event_counts(
                counts, self._events, grid.starts, self._bin_spec.width, ~offline, rng
            )
        self._enforce_consistency(counts)

        series = {
            feature: TimeSeries(values, self._bin_spec) for feature, values in counts.items()
        }
        return FeatureMatrix(host_id=host_id, series=series)

    # ------------------------------------------------------------------ internals
    def _week_drift(self, grid: BinGrid, rng: np.random.Generator) -> np.ndarray:
        """Per-bin multiplier capturing week-to-week drift of the host's activity.

        Drift strength scales with the host's master intensity: light users
        repeat roughly the same routine every week, whereas heavy users (power
        users, administrators) change workloads — and occasionally ramp up by
        a large factor for a week.
        """
        if self._week_drift_scale <= 0.0:
            return np.ones(grid.starts.size)
        num_weeks = grid.num_weeks

        # "Heaviness" of the host in [0, 1], from its master intensity.
        heaviness = float(np.clip(np.log10(1.0 + self._profile.master_intensity) / 2.2, 0.0, 1.0))
        # Mild random week-to-week wobble shared by every host.
        sigma = self._week_drift_scale * 0.03
        # Differential trend: heavy users' workloads keep growing over the
        # measurement period while light users' routines stay flat.  This
        # calibrated non-stationarity reproduces the paper's observation that
        # thresholds learned one week do not hold the next, and that the
        # heaviest users dominate the false positives arriving at a
        # monoculture-configured IT console (Table 3, Figure 5(a)).
        trend = self._week_drift_scale * 0.22 * heaviness ** 1.5
        log_drift = rng.normal(0.0, sigma, size=num_weeks) + trend * np.arange(num_weeks)
        weekly = 10.0 ** log_drift
        return weekly[grid.week_indices]

    def _model_drift(
        self, host_id: int, grid: BinGrid, random_source: RandomSource
    ) -> np.ndarray:
        """Per-bin multipliers from the composable named drift models.

        Drawn from a dedicated per-host ``"drift"`` child stream, so enabling
        a drift model never perturbs the benign body/burst draws — and an
        empty model (the default) leaves generation bit-identical by touching
        no stream at all.
        """
        drift_rng = random_source.child("drift", host_id).generator
        weekly = self._drift_model.week_multipliers(self._profile, grid.num_weeks, drift_rng)
        return weekly[grid.week_indices]

    def _location_factors(
        self, host_id: int, grid: BinGrid, random_source: RandomSource
    ) -> np.ndarray:
        if self._mobility is None:
            return np.ones(grid.starts.size)
        timeline = mobility_timeline(host_id, grid.duration, random_source, self._mobility)
        return timeline.activity_factors(grid.starts)

    def _feature_counts(
        self,
        feature: Feature,
        per_bin_activity: np.ndarray,
        offline: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        intensity = self._profile.intensity(feature)
        base = self._profile.base_rate(feature)
        num_bins = per_bin_activity.size

        # Lognormal body centred so its mean equals 1 (scale handled by base).
        body = rng.lognormal(
            mean=-intensity.body_sigma ** 2 / 2.0, sigma=intensity.body_sigma, size=num_bins
        )
        values = base * per_bin_activity
        values *= body

        # Occasional Pareto bursts on top of the body (user fringe behaviour).
        # random(n) yields the doubles uniform(size=n) would.
        burst_mask = rng.random(num_bins) < intensity.burst_probability
        num_bursts = np.count_nonzero(burst_mask)
        if num_bursts:
            values[burst_mask] += (1.0 + rng.pareto(intensity.burst_alpha, size=num_bursts)) * base

        counts = np.floor(values, out=values)
        counts[offline] = 0.0
        return np.maximum(counts, 0.0, out=counts)

    @staticmethod
    def _enforce_consistency(counts: Dict[Feature, np.ndarray]) -> None:
        """Apply cheap cross-feature consistency constraints in place.

        A host cannot send fewer SYNs than it opens TCP connections, cannot
        open more HTTP connections than TCP connections, and cannot contact
        more distinct destinations than it has flows in total.
        """
        tcp = counts[Feature.TCP_CONNECTIONS]
        counts[Feature.TCP_SYN] = np.maximum(counts[Feature.TCP_SYN], tcp)
        counts[Feature.HTTP_CONNECTIONS] = np.minimum(counts[Feature.HTTP_CONNECTIONS], tcp)
        total_flows = tcp + counts[Feature.UDP_CONNECTIONS] + counts[Feature.DNS_CONNECTIONS]
        counts[Feature.DISTINCT_CONNECTIONS] = np.minimum(
            counts[Feature.DISTINCT_CONNECTIONS], np.maximum(total_flows, 0.0)
        )


class HostTraceGenerator:
    """Generate one host's packet-level trace by scheduling application sessions.

    Session arrivals follow a Poisson process whose rate tracks the host's
    master intensity and the activity multiplier of the current bin; each
    arrival picks a session model according to the host's role-independent
    default mix.  The output is a time-sorted packet list suitable for the
    assembler and feature extractor.
    """

    def __init__(
        self,
        profile: HostProfile,
        activity: Optional[ActivityModel] = None,
        session_models: Optional[Sequence[SessionModel]] = None,
        session_weights: Optional[Sequence[float]] = None,
        sessions_per_hour: float = 6.0,
    ) -> None:
        require_positive(sessions_per_hour, "sessions_per_hour")
        self._profile = profile
        self._activity = activity if activity is not None else ActivityModel(pattern=office_worker_pattern())
        if session_models is None:
            session_models = (
                BrowsingSessionModel(),
                DNSLookupModel(),
                BulkTransferModel(),
                PeerChatterModel(),
            )
            session_weights = (0.55, 0.25, 0.05, 0.15)
        require(session_weights is not None, "session_weights required with explicit session_models")
        require(len(session_models) == len(session_weights), "models and weights must align")
        weights = np.asarray(session_weights, dtype=float)
        require(np.all(weights >= 0) and weights.sum() > 0, "weights must be non-negative, not all zero")
        self._models = tuple(session_models)
        self._weights = weights / weights.sum()
        self._sessions_per_hour = sessions_per_hour

    @property
    def profile(self) -> HostProfile:
        """The host profile driving generation."""
        return self._profile

    def generate_sessions(
        self, duration: float, random_source: RandomSource
    ) -> List[ApplicationSession]:
        """Schedule application sessions over ``duration`` seconds."""
        require_positive(duration, "duration")
        rng = random_source.child("sessions", self._profile.host_id).generator
        # Scale the arrival rate sub-linearly with master intensity so heavy
        # hosts are busier without producing unmanageable packet counts.
        rate_per_hour = self._sessions_per_hour * (1.0 + np.log10(1.0 + self._profile.master_intensity))
        sessions: List[ApplicationSession] = []
        time = 0.0
        while time < duration:
            multiplier = max(self._activity.multiplier(time, rng), 1e-3)
            inter_arrival = rng.exponential(3600.0 / (rate_per_hour * multiplier))
            time += inter_arrival
            if time >= duration:
                break
            model = self._models[int(rng.choice(len(self._models), p=self._weights))]
            sessions.append(model.generate(time, rng))
        return sessions

    def generate_packets(self, duration: float, random_source: RandomSource) -> List[Packet]:
        """Generate the host's packet trace for ``duration`` seconds."""
        host_ip = 0x0A000000 | (self._profile.host_id & 0xFFFF)
        rng = random_source.child("packets", self._profile.host_id).generator
        packets: List[Packet] = []
        for session in self.generate_sessions(duration, random_source):
            packets.extend(session_to_packets(session, host_ip=host_ip, rng=rng))
        packets.sort(key=lambda packet: packet.timestamp)
        return packets

    @property
    def host_ip(self) -> int:
        """The IPv4 address used as the host's source address."""
        return 0x0A000000 | (self._profile.host_id & 0xFFFF)
