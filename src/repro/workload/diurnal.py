"""Diurnal and weekly activity modulation.

Per-bin feature counts are scaled by an activity factor that depends on the
time of day and the day of the week: enterprise laptops are busiest during
office hours on weekdays, moderately active in the evening (home use) and
mostly idle overnight and on weekends.  The modulation is multiplicative on
the expected per-bin count and never fully zero, because background chatter
(updates, mail polling, DNS refresh) continues whenever the host is online.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.timeutils import DAY, HOUR, WEEK
from repro.utils.validation import require, require_in_range


@dataclass(frozen=True)
class DiurnalPattern:
    """Hourly activity multipliers for weekdays and weekends.

    Attributes
    ----------
    weekday_hours:
        24 multipliers, one per hour of a weekday.
    weekend_hours:
        24 multipliers, one per hour of a weekend day.
    """

    weekday_hours: Sequence[float]
    weekend_hours: Sequence[float]

    def __post_init__(self) -> None:
        require(len(self.weekday_hours) == 24, "weekday_hours must have 24 entries")
        require(len(self.weekend_hours) == 24, "weekend_hours must have 24 entries")
        require(all(h >= 0 for h in self.weekday_hours), "multipliers must be non-negative")
        require(all(h >= 0 for h in self.weekend_hours), "multipliers must be non-negative")

    def multiplier(self, timestamp: float) -> float:
        """Activity multiplier at ``timestamp`` (seconds since trace start).

        The trace epoch (t = 0) is taken to be midnight at the start of a
        Monday, matching how the enterprise generator lays out weeks.
        """
        day_index = int((timestamp % WEEK) // DAY)
        hour_index = int((timestamp % DAY) // HOUR)
        hours = self.weekday_hours if day_index < 5 else self.weekend_hours
        return float(hours[hour_index])

    def slot_multipliers(self, slots: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`multiplier`, for the :func:`hour_of_week_slots` of timestamps."""
        hours = np.concatenate(
            (
                np.asarray(self.weekday_hours, dtype=float),
                np.asarray(self.weekend_hours, dtype=float),
            )
        )
        return hours[slots]

    def mean_multiplier(self) -> float:
        """Average multiplier over a full week."""
        weekday = float(np.mean(np.asarray(self.weekday_hours)))
        weekend = float(np.mean(np.asarray(self.weekend_hours)))
        return (5.0 * weekday + 2.0 * weekend) / 7.0


def office_worker_pattern() -> DiurnalPattern:
    """The default enterprise diurnal pattern: 9-to-6 weekday peak, light evenings."""
    weekday = [0.05] * 24
    for hour in range(7, 9):
        weekday[hour] = 0.4
    for hour in range(9, 12):
        weekday[hour] = 1.0
    for hour in range(12, 13):
        weekday[hour] = 0.7
    for hour in range(13, 18):
        weekday[hour] = 1.0
    for hour in range(18, 21):
        weekday[hour] = 0.5
    for hour in range(21, 24):
        weekday[hour] = 0.2
    weekend = [0.05] * 24
    for hour in range(10, 22):
        weekend[hour] = 0.25
    return DiurnalPattern(weekday_hours=tuple(weekday), weekend_hours=tuple(weekend))


def always_on_pattern() -> DiurnalPattern:
    """A nearly flat pattern for server-like or heavily automated hosts."""
    weekday = [0.8] * 24
    for hour in range(9, 18):
        weekday[hour] = 1.0
    weekend = [0.7] * 24
    return DiurnalPattern(weekday_hours=tuple(weekday), weekend_hours=tuple(weekend))


@dataclass(frozen=True)
class ActivityModel:
    """Combines a diurnal pattern with a per-host jitter and an online mask.

    Attributes
    ----------
    pattern:
        The diurnal/weekly multiplier pattern.
    jitter_sigma:
        Log-normal sigma of the per-bin multiplicative jitter (captures the
        fact that users do not follow the average pattern exactly).
    floor:
        Minimum multiplier applied whenever the host is online (background
        chatter never drops to exactly zero).
    """

    pattern: DiurnalPattern
    jitter_sigma: float = 0.3
    floor: float = 0.02

    def __post_init__(self) -> None:
        require_in_range(self.jitter_sigma, 0.0, 2.0, "jitter_sigma")
        require_in_range(self.floor, 0.0, 1.0, "floor")

    def multiplier(self, timestamp: float, rng: np.random.Generator) -> float:
        """Sample the activity multiplier for a bin starting at ``timestamp``."""
        base = max(self.pattern.multiplier(timestamp), self.floor)
        jitter = rng.lognormal(mean=0.0, sigma=self.jitter_sigma) if self.jitter_sigma > 0 else 1.0
        return float(base * jitter)

    def multipliers(self, timestamps: Sequence[float], rng: np.random.Generator) -> np.ndarray:
        """Vectorised multipliers for many bin-start timestamps."""
        return self.slot_multipliers(hour_of_week_slots(timestamps), rng)

    def slot_multipliers(self, slots: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Vectorised multipliers for bins given by their :func:`hour_of_week_slots`."""
        base = np.maximum(self.pattern.slot_multipliers(slots), self.floor)
        if self.jitter_sigma > 0:
            jitter = rng.lognormal(mean=0.0, sigma=self.jitter_sigma, size=slots.size)
        else:
            jitter = np.ones(slots.size)
        return base * jitter


def hour_of_week_slots(timestamps: Sequence[float]) -> np.ndarray:
    """Per timestamp, its hour's index into a pattern's 48 hourly multipliers.

    Slots 0-23 are the hours of a weekday, 24-47 those of a weekend day; the
    trace epoch (t = 0) is midnight at the start of a Monday.
    """
    times = np.asarray(timestamps, dtype=float)
    day_index = ((times % WEEK) // DAY).astype(np.intp)
    hour_index = ((times % DAY) // HOUR).astype(np.intp)
    return np.where(day_index < 5, hour_index, hour_index + 24)
