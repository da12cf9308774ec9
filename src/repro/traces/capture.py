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
from typing import List, Sequence

import numpy as np

from repro.utils.validation import require


class NetworkLocation(Enum):
    """Where the laptop is attached to the network."""

    OFFICE_WIRED = "office_wired"
    OFFICE_WIRELESS = "office_wireless"
    HOME = "home"
    TRAVEL = "travel"
    OFFLINE = "offline"


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
        :func:`check_segments` checks the whole timeline at once.
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

    @property
    def start_time(self) -> float:
        """Start of the first environment (or 0 when empty)."""
        return self.environments[0].start_time if self.environments else 0.0

    @property
    def end_time(self) -> float:
        """End of the last environment (or 0 when empty)."""
        return self.environments[-1].end_time if self.environments else 0.0


def check_segments(starts: np.ndarray, ends: np.ndarray) -> None:
    """Check a timeline given as aligned segment start and end arrays.

    Every segment must have positive length, and each must start no earlier
    than the previous one ends (time order, no overlap, with 1 ns of slack).
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
