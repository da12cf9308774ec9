"""Time and binning helpers.

The paper aggregates per-host traffic features into fixed-size time bins
(5-minute and 15-minute windows) over multi-week traces.  All timestamps in
this library are plain ``float`` seconds since an arbitrary trace epoch
(``t = 0`` is the start of the observation period), which keeps the math
simple and avoids timezone concerns that do not matter for the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.validation import require, require_positive

#: Number of seconds in one minute.
MINUTE: float = 60.0
#: Number of seconds in one hour.
HOUR: float = 60.0 * MINUTE
#: Number of seconds in one day.
DAY: float = 24.0 * HOUR
#: Number of seconds in one week.
WEEK: float = 7.0 * DAY


@dataclass(frozen=True)
class BinSpec:
    """Specification of a fixed-width binning of the time axis.

    Parameters
    ----------
    width:
        Bin width in seconds (e.g. ``15 * MINUTE`` for the paper's default).
    origin:
        Timestamp of the left edge of bin 0.  Defaults to ``0.0``.
    """

    width: float
    origin: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.width, "width")

    def index_of(self, timestamp: float) -> int:
        """Return the index of the bin containing ``timestamp``."""
        return int((timestamp - self.origin) // self.width)

    def start_of(self, index: int) -> float:
        """Return the timestamp of the left edge of bin ``index``."""
        return self.origin + index * self.width

    def end_of(self, index: int) -> float:
        """Return the timestamp of the right edge of bin ``index``."""
        return self.origin + (index + 1) * self.width

    def span(self, index: int) -> Tuple[float, float]:
        """Return the ``(start, end)`` interval covered by bin ``index``."""
        return self.start_of(index), self.end_of(index)

    def starts(self, count: int) -> np.ndarray:
        """Left edges of bins ``0..count-1`` as a vector (vectorised ``start_of``)."""
        require(count >= 0, "count must be non-negative")
        return self.origin + np.arange(count) * self.width

    def count_until(self, duration: float) -> int:
        """Number of complete bins that fit in ``duration`` seconds."""
        require(duration >= 0, "duration must be non-negative")
        return int(duration // self.width)


#: The paper's default binning (15-minute windows).
DEFAULT_BIN = BinSpec(width=15 * MINUTE)


def bin_index(timestamp: float, width: float, origin: float = 0.0) -> int:
    """Return the index of the bin of size ``width`` containing ``timestamp``."""
    require_positive(width, "width")
    return int((timestamp - origin) // width)
