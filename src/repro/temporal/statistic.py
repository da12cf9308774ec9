"""Population-level distribution-shift statistics.

The drift-triggered :class:`~repro.temporal.schedule.RetrainSchedule` needs a
single cheap number answering "how different does this week's traffic look
from the week(s) the deployed thresholds were trained on?".  The statistic
here compares the *pooled* (population-wide) per-feature distributions at a
few tail quantiles — the quantities thresholds are actually computed from —
and averages the absolute log10 shift:

    D = mean over features f, quantiles q of | log10((Q_f,q(now) + 1) / (Q_f,q(base) + 1)) |

``D = 0.05`` therefore means the monitored tails moved ~12% on average; the
``+1`` keeps mostly-idle features well-defined.  Pooling across hosts keeps
the cost at one percentile call over the population's ``(hosts, bins)``
block per feature — negligible next to a threshold re-optimisation — and
matches what a central console could compute from its agents' summaries
without per-host state.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, population_block, shared_grid
from repro.utils.timeutils import WEEK
from repro.utils.validation import require

#: Tail quantiles the drift statistic compares (the grouping statistic's 99th
#: plus two body anchors).
DEFAULT_DRIFT_QUANTILES: Tuple[float, ...] = (50.0, 90.0, 99.0)


def _pooled_quantiles(
    matrices: Mapping[int, FeatureMatrix],
    feature: Feature,
    start_week: int,
    end_week: int,
    quantiles: Sequence[float],
) -> np.ndarray:
    # The window's one block (a view of a PopulationFrame), pooled whole.
    return np.percentile(population_block(matrices, feature, (start_week, end_week)), quantiles)


def pooled_baseline_quantiles(
    matrices: Mapping[int, FeatureMatrix],
    features: Iterable[Feature],
    baseline_weeks: Tuple[int, int],
    quantiles: Sequence[float] = DEFAULT_DRIFT_QUANTILES,
) -> Dict[Feature, np.ndarray]:
    """Pooled per-feature quantiles over a training window, for reuse.

    Computing the baseline once per (re)train and comparing many weeks
    against it keeps a timeline at one pooled percentile call per
    (feature, week) instead of re-pooling the whole training window every
    week.
    """
    features = tuple(features)
    require(len(matrices) > 0, "matrices must cover at least one host")
    require(len(features) > 0, "at least one feature is required")
    require(len(quantiles) > 0, "at least one quantile is required")
    start, end = baseline_weeks
    return {
        feature: _pooled_quantiles(matrices, feature, start, end, quantiles)
        for feature in features
    }


def drift_from_baseline(
    matrices: Mapping[int, FeatureMatrix],
    baseline: Mapping[Feature, np.ndarray],
    week: int,
    quantiles: Sequence[float] = DEFAULT_DRIFT_QUANTILES,
) -> float:
    """Drift statistic of completed ``week`` against precomputed ``baseline``."""
    require(len(baseline) > 0, "at least one feature is required")
    shifts = []
    for feature, base in baseline.items():
        current = _pooled_quantiles(matrices, feature, week, week + 1, quantiles)
        shifts.append(np.abs(np.log10((current + 1.0) / (base + 1.0))))
    return float(np.mean(shifts))


def weeks_covered(matrices: Mapping[int, FeatureMatrix]) -> int:
    """Whole weeks the population's one bin grid covers (the timeline's horizon).

    The grid is read on the first host's first feature.
    """
    require(len(matrices) > 0, "matrices must cover at least one host")
    num_bins, bin_spec = shared_grid(matrices, next(iter(matrices.values())).features[0])
    return int(num_bins * bin_spec.width // WEEK)


__all__ = [
    "DEFAULT_DRIFT_QUANTILES",
    "pooled_baseline_quantiles",
    "drift_from_baseline",
    "weeks_covered",
]
