"""Laptop mobility: office / home / travel / offline segments.

95% of the paper's monitored hosts were laptops whose collection tool followed
them out of the enterprise.  Mobility affects the workload in two ways: the
host is sometimes offline (zero traffic), and home/travel segments carry a
different activity multiplier than office segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.traces.capture import (
    CaptureSession,
    NetworkLocation,
    check_segments,
    segment_lookup,
)
from repro.utils.rng import RandomSource
from repro.utils.timeutils import DAY, HOUR
from repro.utils.validation import require_in_range, require_positive


#: Activity multiplier applied on top of the diurnal pattern per location.
LOCATION_ACTIVITY: Dict[NetworkLocation, float] = {
    NetworkLocation.OFFICE_WIRED: 1.0,
    NetworkLocation.OFFICE_WIRELESS: 0.9,
    NetworkLocation.HOME: 0.6,
    NetworkLocation.TRAVEL: 0.35,
    NetworkLocation.OFFLINE: 0.0,
}

#: A timeline's location array holds indices into this tuple.
TIMELINE_LOCATIONS: Tuple[NetworkLocation, ...] = tuple(NetworkLocation)

_WIRED, _WIRELESS, _HOME, _TRAVEL, _OFFLINE = (
    TIMELINE_LOCATIONS.index(location)
    for location in (
        NetworkLocation.OFFICE_WIRED,
        NetworkLocation.OFFICE_WIRELESS,
        NetworkLocation.HOME,
        NetworkLocation.TRAVEL,
        NetworkLocation.OFFLINE,
    )
)

#: Segments one day contributes: (start hour, end hour, location index).
_DaySegments = List[Tuple[float, float, int]]


@dataclass(frozen=True)
class MobilityModel:
    """Stochastic daily schedule of a mobile enterprise laptop.

    Each weekday the host is at the office during working hours (wired or
    wireless), usually online at home in the evening, and offline overnight.
    Weekends are mostly offline with occasional home sessions.  Desktop hosts
    (``is_laptop = False``) stay on the wired office network around the clock.

    Attributes
    ----------
    is_laptop:
        Whether the host moves at all.
    home_evening_probability:
        Probability that a weekday evening includes a home online session.
    weekend_home_probability:
        Probability that a weekend day includes a home online session.
    travel_day_probability:
        Probability that a weekday is spent travelling instead of at the
        office.
    wireless_probability:
        Probability that an office day uses the wireless network.
    """

    is_laptop: bool = True
    home_evening_probability: float = 0.6
    weekend_home_probability: float = 0.35
    travel_day_probability: float = 0.05
    wireless_probability: float = 0.5

    def __post_init__(self) -> None:
        for name in (
            "home_evening_probability",
            "weekend_home_probability",
            "travel_day_probability",
            "wireless_probability",
        ):
            require_in_range(getattr(self, name), 0.0, 1.0, name)


class MobilityTimeline(NamedTuple):
    """One host's environment timeline as aligned segment arrays.

    ``starts``/``ends`` are in seconds since the trace epoch, in time order
    and without overlap; ``locations`` indexes :data:`TIMELINE_LOCATIONS`.
    """

    starts: np.ndarray
    ends: np.ndarray
    locations: np.ndarray

    def activity_factors(self, timestamps: Sequence[float]) -> np.ndarray:
        """``LOCATION_ACTIVITY`` of the segment covering each timestamp.

        A timestamp no segment covers (past the end of the trace) maps to the
        OFFLINE factor.
        """
        indices = segment_lookup(self.starts, self.ends, timestamps)
        factors = np.array([LOCATION_ACTIVITY[location] for location in TIMELINE_LOCATIONS])
        # Trailing 0.0 so a gap index of -1 resolves to the OFFLINE factor.
        return np.append(factors[self.locations], 0.0)[indices]


def mobility_timeline(
    host_id: int, duration: float, random_source: RandomSource, model: MobilityModel
) -> MobilityTimeline:
    """Draw the environment timeline of one host for ``duration`` seconds.

    The timeline is a sequence of day-by-day segments; offline periods are
    represented explicitly so that analyses can distinguish "no traffic
    because offline" from "online but idle".

    A laptop's days draw from the host's dedicated ``"mobility"`` stream,
    which nothing else reads.  Every draw is a uniform double (a scaled one
    is ``low + (high - low) * u``, which is what ``Generator.uniform``
    computes), so the stream is drawn as one block, at most six doubles per
    day, and the days consume it in order; the unread tail changes nothing.
    """
    require_positive(duration, "duration")
    if model.is_laptop:
        num_days = int(np.ceil(duration / DAY))
        draws = random_source.child("mobility", host_id).generator.random(6 * num_days).tolist()
        timeline = _laptop_timeline(draws, num_days, duration, model)
    else:
        timeline = MobilityTimeline(
            np.array([0.0]), np.array([float(duration)]), np.array([_WIRED], dtype=np.intp)
        )
    check_segments(timeline.starts, timeline.ends)
    return timeline


def _laptop_timeline(
    draws: List[float], num_days: int, duration: float, model: MobilityModel
) -> MobilityTimeline:
    """The day-by-day segments of a laptop, reading ``draws`` in order."""
    position = 0
    days: List[int] = []
    segments: _DaySegments = []
    for day in range(num_days):
        if day % 7 < 5:
            day_segments, position = _weekday_segments(draws, position, model)
        else:
            day_segments, position = _weekend_segments(draws, position, model)
        days.extend([day] * len(day_segments))
        segments.extend(day_segments)
    start_hours, end_hours, locations = zip(*segments)

    day_start = np.array(days) * DAY
    day_end = np.minimum(day_start + DAY, duration)
    starts = day_start + np.array(start_hours) * HOUR
    ends = np.minimum(day_start + np.array(end_hours) * HOUR, day_end)
    # Segments of a final partial day that start past the trace end vanish.
    keep = ends > starts
    return MobilityTimeline(starts[keep], ends[keep], np.array(locations, dtype=np.intp)[keep])


def generate_capture_session(
    host_id: int,
    host_ip: int,
    duration: float,
    random_source: RandomSource,
    model: MobilityModel,
) -> CaptureSession:
    """The :func:`mobility_timeline` of one host as a :class:`CaptureSession`.

    Office-wireless and home segments use ``wlan0``, the others ``eth0``.
    """
    timeline = mobility_timeline(host_id, duration, random_source, model)
    locations = [TIMELINE_LOCATIONS[index] for index in timeline.locations.tolist()]
    interfaces = [
        "wlan0"
        if location in (NetworkLocation.OFFICE_WIRELESS, NetworkLocation.HOME)
        else "eth0"
        for location in locations
    ]
    return CaptureSession.from_segments(
        host_id, timeline.starts, timeline.ends, locations, host_ip, interfaces
    )


def _weekday_segments(
    draws: List[float], position: int, model: MobilityModel
) -> Tuple[_DaySegments, int]:
    """Segments of one weekday covering hours 0-24, and the next unread draw.

    Draws, in order: travel; unless travelling, wireless, arrival and
    departure; then home evening and, if at home, its end.  Adjacent
    offline segments are kept apart, as the day's schedule lists them.
    """
    segments: _DaySegments = [(0.0, 8.0, _OFFLINE)]
    if draws[position] < model.travel_day_probability:
        segments.append((8.0, 18.0, _TRAVEL))
        cursor = 18.0
        position += 1
    else:
        office = _WIRELESS if draws[position + 1] < model.wireless_probability else _WIRED
        arrival = 8.0 + 1.5 * draws[position + 2]
        departure = 17.0 + 2.0 * draws[position + 3]
        if arrival > 8.0:
            segments.append((8.0, arrival, _OFFLINE))
        segments.append((arrival, departure, office))
        segments.append((departure, 20.0, _OFFLINE))
        cursor = 20.0
        position += 4
    if draws[position] < model.home_evening_probability:
        home_end = 22.0 + 2.0 * draws[position + 1]
        if cursor < 20.0:
            segments.append((cursor, 20.0, _OFFLINE))
        segments.append((20.0, home_end, _HOME))
        cursor = home_end
        position += 2
    else:
        position += 1
    if cursor < 24.0:
        segments.append((cursor, 24.0, _OFFLINE))
    return segments, position


def _weekend_segments(
    draws: List[float], position: int, model: MobilityModel
) -> Tuple[_DaySegments, int]:
    """Segments of one weekend day covering hours 0-24, and the next unread draw."""
    if draws[position] < model.weekend_home_probability:
        start = 10.0 + 4.0 * draws[position + 1]
        low = start + 1.0
        end = low + (23.0 - low) * draws[position + 2]
        return [(0.0, start, _OFFLINE), (start, end, _HOME), (end, 24.0, _OFFLINE)], position + 3
    return [(0.0, 24.0, _OFFLINE)], position + 1
