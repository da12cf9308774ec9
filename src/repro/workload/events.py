"""Enterprise-wide scheduled events (patch rollouts, software distributions).

Real enterprise weeks are not interchangeable: monthly patch cycles, software
pushes and company-wide webcasts inject bursts of connections on *every*
online host during specific windows.  Such events matter for this study
because they inflate the tail (the 99th percentile) of light and medium
users' training-week distributions without moving heavy users' distributions
at all — which is exactly the threshold instability the paper reports
("selecting a threshold based on the 99th percentile did not always reflect a
1% false positive rate in the next week") and the reason a homogeneous policy
floods the IT console with more false alarms than the diversity policies
(Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.features.definitions import Feature
from repro.utils.timeutils import DAY, HOUR, WEEK
from repro.utils.validation import require, require_positive


@dataclass(frozen=True)
class ScheduledEvent:
    """One enterprise-wide activity event.

    Attributes
    ----------
    name:
        Human-readable label ("patch-rollout-week0").
    start_time:
        Event start, in seconds since the trace epoch.
    duration:
        Event length in seconds.
    feature_amounts:
        Extra per-bin counts added to each affected feature on every host
        that is online during the event.
    participation:
        Fraction of hosts that take part in the event (not every laptop is
        powered on or targeted by every rollout wave).
    """

    name: str
    start_time: float
    duration: float
    feature_amounts: Mapping[Feature, float]
    participation: float = 0.9

    def __post_init__(self) -> None:
        require(self.start_time >= 0, "start_time must be non-negative")
        require_positive(self.duration, "duration")
        require(len(self.feature_amounts) > 0, "event must affect at least one feature")
        require(all(v >= 0 for v in self.feature_amounts.values()), "amounts must be non-negative")
        require(0.0 < self.participation <= 1.0, "participation must be in (0, 1]")

    @property
    def end_time(self) -> float:
        """Event end timestamp."""
        return self.start_time + self.duration


#: Per-bin counts a typical patch/software rollout adds on a participating
#: host (package and signature downloads split across many CDN fetches,
#: inventory reporting, DNS lookups).  The magnitude is calibrated so the
#: rollout dominates the training-week tail of *light* users (whose natural
#: per-bin counts are tens) while being invisible in the body of heavy users
#: (whose natural counts are thousands) — the property behind the paper's
#: observed threshold instability.
DEFAULT_ROLLOUT_AMOUNTS: Dict[Feature, float] = {
    Feature.TCP_CONNECTIONS: 120.0,
    Feature.TCP_SYN: 140.0,
    Feature.HTTP_CONNECTIONS: 85.0,
    Feature.DNS_CONNECTIONS: 40.0,
    Feature.DISTINCT_CONNECTIONS: 30.0,
    Feature.UDP_CONNECTIONS: 15.0,
}


def build_maintenance_events(
    num_weeks: int,
    maintenance_weeks: Sequence[int] = (0, 2, 4),
    amounts: Mapping[Feature, float] = None,
    day_of_week: int = 1,
    start_hour: float = 10.0,
    duration_hours: float = 4.0,
) -> List[ScheduledEvent]:
    """Build the default maintenance-event schedule.

    By default a patch rollout happens on the Tuesday of weeks 0, 2 and 4 —
    i.e. the *training* weeks of the paper's weekly train/test pairing — which
    reproduces the reported week-to-week threshold instability.

    Parameters
    ----------
    num_weeks:
        Total number of weeks in the trace; events outside it are dropped.
    maintenance_weeks:
        Which weeks contain a rollout.
    amounts:
        Per-bin feature counts the rollout adds (defaults to
        :data:`DEFAULT_ROLLOUT_AMOUNTS`).
    day_of_week:
        0 = Monday.  Patch Tuesday is the enterprise default.
    start_hour, duration_hours:
        Rollout window within the day.
    """
    require(num_weeks >= 1, "num_weeks must be >= 1")
    require(0 <= day_of_week <= 6, "day_of_week must be in [0, 6]")
    require_positive(duration_hours, "duration_hours")
    amounts = dict(amounts) if amounts is not None else dict(DEFAULT_ROLLOUT_AMOUNTS)
    events: List[ScheduledEvent] = []
    for week in maintenance_weeks:
        if week < 0 or week >= num_weeks:
            continue
        start = week * WEEK + day_of_week * DAY + start_hour * HOUR
        events.append(
            ScheduledEvent(
                name=f"patch-rollout-week{week}",
                start_time=start,
                duration=duration_hours * HOUR,
                feature_amounts=amounts,
            )
        )
    return events


def add_event_counts(
    counts: Dict[Feature, np.ndarray],
    events: Sequence[ScheduledEvent],
    bin_starts: np.ndarray,
    bin_width: float,
    online: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Add one host's share of ``events`` to its online bins of ``counts``, in place.

    Each event draws, in event order, its participation (one uniform) and,
    for a participating host only, a mild lognormal magnitude jitter, so
    different hosts see slightly different rollout footprints.  A
    participating event contributes ``amount * jitter`` to each bin that
    overlaps its window; per feature the contributions are summed over the
    events, floored once and added to the bins where ``online`` holds.
    Features absent from ``counts`` are ignored.

    ``bin_starts`` must be increasing (a bin grid).  Then the bins that
    overlap a window, ``bin_starts + bin_width > start`` and
    ``bin_starts < end``, are a suffix intersected with a prefix: one
    contiguous run, found by two binary searches.  Only those runs are
    touched; windows that overlap are summed together before flooring,
    since ``floor(a + b)`` is not ``floor(a) + floor(b)``.
    """
    require_positive(bin_width, "bin_width")
    bin_ends = bin_starts + bin_width
    windows: List[Tuple[int, int, float, ScheduledEvent]] = []
    for event in events:
        if rng.uniform() >= event.participation:
            continue
        jitter = rng.lognormal(mean=0.0, sigma=0.25)
        first = int(np.searchsorted(bin_ends, event.start_time, side="right"))
        last = int(np.searchsorted(bin_starts, event.end_time, side="left"))
        if first < last:
            windows.append((first, last, jitter, event))

    # Group the windows into runs of overlapping ones; each run is summed
    # over its own bins, in event order.
    runs: List[List] = []
    for index in sorted(range(len(windows)), key=lambda index: windows[index][0]):
        first, last = windows[index][:2]
        if runs and first < runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], last)
            runs[-1][2].append(index)
        else:
            runs.append([first, last, [index]])
    for run_first, run_last, members in runs:
        totals: Dict[Feature, np.ndarray] = {}
        for index in sorted(members):
            first, last, jitter, event = windows[index]
            for feature, amount in event.feature_amounts.items():
                if feature not in totals:
                    totals[feature] = np.zeros(run_last - run_first)
                totals[feature][first - run_first : last - run_first] += amount * jitter
        run_online = online[run_first:run_last]
        for feature, total in totals.items():
            if feature in counts:
                counts[feature][run_first:run_last] += np.where(run_online, np.floor(total), 0.0)
