"""Tail analysis helpers.

The paper's central empirical claim is that the *tail* of each host's feature
distribution — where the anomaly-detection thresholds live — varies enormously
across the population.  These helpers quantify that tail spread (the ratio of
extreme per-host thresholds) for the workload calibration tests and for
Figure 1 (:mod:`repro.experiments.fig1_tail_diversity`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.validation import require


def tail_ratio(per_host_thresholds: Sequence[float]) -> float:
    """Ratio of the largest to the smallest per-host threshold.

    The paper reports this spread covers 3-4 orders of magnitude for most
    features (Figure 1); the experiment drivers report ``log10(tail_ratio)``.
    """
    values = np.asarray(per_host_thresholds, dtype=float)
    values = values[values > 0]
    require(values.size >= 2, "tail_ratio requires at least two positive thresholds")
    return float(np.max(values) / np.min(values))


def orders_of_magnitude(per_host_thresholds: Sequence[float]) -> float:
    """Spread of per-host thresholds expressed in orders of magnitude (log10)."""
    return float(np.log10(tail_ratio(per_host_thresholds)))

