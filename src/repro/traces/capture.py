"""End-host capture sessions.

The paper's data collector ran directly on each laptop and recorded not only
packets but also changes of IP address, interface and location (work, home,
travel).  :class:`CaptureSession` models the metadata side of that collector:
a timeline of :class:`CaptureEnvironment` segments which the workload
generator uses to modulate traffic intensity and which analysis code can use
to slice traces by location.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence

import numpy as np

from repro.utils.validation import require


class NetworkLocation(Enum):
    """Where the laptop is attached to the network."""

    OFFICE_WIRED = "office_wired"
    OFFICE_WIRELESS = "office_wireless"
    HOME = "home"
    TRAVEL = "travel"
    OFFLINE = "offline"

    @property
    def inside_enterprise(self) -> bool:
        """True when the host is on the corporate network."""
        return self in (NetworkLocation.OFFICE_WIRED, NetworkLocation.OFFICE_WIRELESS)


@dataclass(frozen=True)
class CaptureEnvironment:
    """A contiguous interval during which the host's network attachment is stable."""

    start_time: float
    end_time: float
    location: NetworkLocation
    host_ip: int
    interface: str = "eth0"

    def __post_init__(self) -> None:
        require(self.end_time > self.start_time, "environment interval must have positive length")

    @property
    def duration(self) -> float:
        """Length of the interval in seconds."""
        return self.end_time - self.start_time

    def contains(self, timestamp: float) -> bool:
        """True when ``timestamp`` falls in [start, end)."""
        return self.start_time <= timestamp < self.end_time


@dataclass
class CaptureSession:
    """Capture metadata for one monitored end host.

    Attributes
    ----------
    host_id:
        Stable identifier of the monitored host (0..N-1 for the enterprise
        population).
    environments:
        Time-ordered, non-overlapping environment segments.
    """

    host_id: int
    environments: List[CaptureEnvironment] = field(default_factory=list)

    @classmethod
    def from_segments(
        cls,
        host_id: int,
        starts: np.ndarray,
        ends: np.ndarray,
        locations: Sequence[NetworkLocation],
        host_ip: int,
        interfaces: Sequence[str],
    ) -> "CaptureSession":
        """A session whose environments are the given segments, checked at once.

        ``starts``/``ends`` hold one segment per entry, in time order;
        :func:`check_segments` applies the checks :class:`CaptureEnvironment`
        and :meth:`add_environment` make, over the whole timeline.
        """
        starts = np.asarray(starts, dtype=float)
        ends = np.asarray(ends, dtype=float)
        check_segments(starts, ends)
        require(
            len(locations) == len(interfaces) == starts.size,
            "one location and one interface per segment",
        )
        return cls(
            host_id=host_id,
            environments=[
                CaptureEnvironment(start, end, location, host_ip, interface)
                for start, end, location, interface in zip(
                    starts.tolist(), ends.tolist(), locations, interfaces
                )
            ],
        )

    def add_environment(self, environment: CaptureEnvironment) -> None:
        """Append an environment segment; must not overlap the previous one."""
        if self.environments:
            last = self.environments[-1]
            require(
                environment.start_time >= last.end_time - 1e-9,
                "environments must be appended in time order without overlap",
            )
        self.environments.append(environment)

    @property
    def start_time(self) -> float:
        """Start of the first environment (or 0 when empty)."""
        return self.environments[0].start_time if self.environments else 0.0

    @property
    def end_time(self) -> float:
        """End of the last environment (or 0 when empty)."""
        return self.environments[-1].end_time if self.environments else 0.0

    def environment_at(self, timestamp: float) -> Optional[CaptureEnvironment]:
        """Return the environment covering ``timestamp`` (None when offline gaps exist)."""
        for environment in self.environments:
            if environment.contains(timestamp):
                return environment
        return None

    def location_at(self, timestamp: float) -> NetworkLocation:
        """Return the location at ``timestamp`` (OFFLINE when no segment covers it)."""
        environment = self.environment_at(timestamp)
        return environment.location if environment is not None else NetworkLocation.OFFLINE

    def segment_indices(self, timestamps: Sequence[float]) -> np.ndarray:
        """Vectorised segment lookup for an array of timestamps.

        Returns, per timestamp, the index of the environment covering it, or
        ``-1`` when the timestamp falls in a gap (offline); see
        :func:`segment_lookup`.
        """
        starts = np.array([env.start_time for env in self.environments], dtype=float)
        ends = np.array([env.end_time for env in self.environments], dtype=float)
        return segment_lookup(starts, ends, timestamps)

    def locations_at(self, timestamps: Sequence[float]) -> List[NetworkLocation]:
        """Vectorised :meth:`location_at` for an array of timestamps."""
        indices = self.segment_indices(timestamps)
        locations = [env.location for env in self.environments]
        return [
            locations[index] if index >= 0 else NetworkLocation.OFFLINE for index in indices
        ]

    def online_fraction(self) -> float:
        """Fraction of the session during which the host was not OFFLINE."""
        total = self.end_time - self.start_time
        if total <= 0:
            return 0.0
        online = sum(
            environment.duration
            for environment in self.environments
            if environment.location != NetworkLocation.OFFLINE
        )
        return online / total

    def time_in_location(self, location: NetworkLocation) -> float:
        """Total seconds spent in ``location``."""
        return sum(
            environment.duration for environment in self.environments if environment.location == location
        )


def check_segments(starts: np.ndarray, ends: np.ndarray) -> None:
    """Check a timeline given as aligned segment start and end arrays.

    Every segment must have positive length, and each must start no earlier
    than the previous one ends (time order, no overlap, with the same 1 ns
    slack :meth:`CaptureSession.add_environment` allows).
    """
    require(
        starts.ndim == 1 and starts.shape == ends.shape,
        "segment starts and ends must be aligned one-dimensional arrays",
    )
    require(bool(np.all(ends > starts)), "environment interval must have positive length")
    require(
        bool(np.all(starts[1:] >= ends[:-1] - 1e-9)),
        "environments must be appended in time order without overlap",
    )


def segment_lookup(starts: np.ndarray, ends: np.ndarray, timestamps: Sequence[float]) -> np.ndarray:
    """Index of the segment covering each timestamp, or ``-1`` in a gap.

    Segments are in time order, so one ``searchsorted`` over their start
    times replaces a per-timestamp linear scan.
    """
    times = np.asarray(timestamps, dtype=float)
    if starts.size == 0:
        return np.full(times.shape, -1, dtype=np.intp)
    indices = np.searchsorted(starts, times, side="right") - 1
    clipped = np.clip(indices, 0, starts.size - 1)
    covered = (indices >= 0) & (times < ends[clipped])
    return np.where(covered, clipped, -1)
