"""Shared utilities: time handling, validation, deterministic RNG helpers.

These helpers are deliberately small and dependency-free so that every other
subpackage (:mod:`repro.stats`, :mod:`repro.traces`, :mod:`repro.workload`,
:mod:`repro.core`) can rely on them without import cycles.
"""

from repro.utils.timeutils import (
    BinSpec,
    MINUTE,
    HOUR,
    DAY,
    WEEK,
    bin_index,
)
from repro.utils.resources import peak_rss_bytes, peak_rss_mb
from repro.utils.validation import (
    ValidationError,
    require,
    require_in_range,
    require_non_negative,
    require_positive,
    require_probability,
    require_type,
)
from repro.utils.rng import RandomSource, derive_seed, spawn_rng

__all__ = [
    "BinSpec",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "bin_index",
    "peak_rss_bytes",
    "peak_rss_mb",
    "ValidationError",
    "require",
    "require_in_range",
    "require_non_negative",
    "require_positive",
    "require_probability",
    "require_type",
    "RandomSource",
    "derive_seed",
    "spawn_rng",
]
