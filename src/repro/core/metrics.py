"""Detector performance metrics.

The paper summarises each host's detector with an operating point
``(FP, FN)`` and compresses the two numbers into a single per-host utility

    U(T) = 1 - [w * FN + (1 - w) * FP]

where ``w`` expresses how much the enterprise cares about missed detections
relative to false alarms.  The F-measure (harmonic mean of precision and
recall) is provided as an alternative threshold-selection criterion, as in
Section 4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.validation import require, require_probability

#: The paper's default utility weight (Figure 3(a) uses w = 0.4).
DEFAULT_UTILITY_WEIGHT = 0.4


@dataclass(frozen=True)
class OperatingPoint:
    """A detector's performance: false-positive and false-negative rates.

    Attributes
    ----------
    false_positive_rate:
        ``P(benign bin raises an alarm)``.
    false_negative_rate:
        ``P(attacked bin raises no alarm)`` — a missed detection.
    """

    false_positive_rate: float
    false_negative_rate: float

    def __post_init__(self) -> None:
        require_probability(self.false_positive_rate, "false_positive_rate")
        require_probability(self.false_negative_rate, "false_negative_rate")

    @property
    def detection_rate(self) -> float:
        """``1 - FN``: probability an attacked bin raises an alarm."""
        return 1.0 - self.false_negative_rate

    def utility(self, weight: float = DEFAULT_UTILITY_WEIGHT) -> float:
        """The paper's per-host utility at this operating point."""
        return utility(
            false_negative_rate=self.false_negative_rate,
            false_positive_rate=self.false_positive_rate,
            weight=weight,
        )


def utility(false_negative_rate: float, false_positive_rate: float, weight: float) -> float:
    """``U = 1 - [w * FN + (1 - w) * FP]`` — higher is better, 1.0 is perfect."""
    require_probability(false_negative_rate, "false_negative_rate")
    require_probability(false_positive_rate, "false_positive_rate")
    require_probability(weight, "weight")
    return 1.0 - (weight * false_negative_rate + (1.0 - weight) * false_positive_rate)


def utility_from_rate_arrays(
    false_positive_rates: np.ndarray, false_negative_rates: np.ndarray, weight: float
) -> np.ndarray:
    """Vectorised :func:`utility` over arrays of operating points.

    Element-for-element identical to the scalar version (same operation
    order).  Only ``weight`` is checked here; the rates are checked where the
    arrays are built.
    """
    require_probability(weight, "weight")
    fp = np.asarray(false_positive_rates, dtype=float)
    fn = np.asarray(false_negative_rates, dtype=float)
    return 1.0 - (weight * fn + (1.0 - weight) * fp)


def precision_recall(
    true_positives: float, false_positives: float, false_negatives: float
) -> Tuple[float, float]:
    """Precision and recall from detection counts.

    Degenerate cases follow the usual conventions: precision is 1.0 when
    nothing was flagged, recall is 1.0 when there was nothing to detect.
    """
    require(true_positives >= 0, "true_positives must be non-negative")
    require(false_positives >= 0, "false_positives must be non-negative")
    require(false_negatives >= 0, "false_negatives must be non-negative")
    flagged = true_positives + false_positives
    actual = true_positives + false_negatives
    precision = true_positives / flagged if flagged > 0 else 1.0
    recall = true_positives / actual if actual > 0 else 1.0
    return precision, recall


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0.0 when both are zero)."""
    require_probability(precision, "precision")
    require_probability(recall, "recall")
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f_measure_from_rates(
    false_positive_rate: float,
    false_negative_rate: float,
    attack_prevalence: float,
) -> float:
    """F-measure computed from rates and the fraction of bins that carry attacks.

    Converts the rate-based operating point into expected per-bin counts using
    ``attack_prevalence`` (the fraction of bins containing attack traffic) and
    then applies the usual precision/recall definitions.
    """
    require_probability(false_positive_rate, "false_positive_rate")
    require_probability(false_negative_rate, "false_negative_rate")
    require_probability(attack_prevalence, "attack_prevalence")
    true_positives = attack_prevalence * (1.0 - false_negative_rate)
    false_negatives = attack_prevalence * false_negative_rate
    false_positives = (1.0 - attack_prevalence) * false_positive_rate
    precision, recall = precision_recall(true_positives, false_positives, false_negatives)
    return f_measure(precision, recall)


def f_measure_from_rate_arrays(
    false_positive_rates: np.ndarray,
    false_negative_rates: np.ndarray,
    attack_prevalence: float,
) -> np.ndarray:
    """Vectorised :func:`f_measure_from_rates` over arrays of operating points.

    Element-for-element identical to the scalar version, including the
    degenerate conventions (precision 1.0 when nothing is flagged, F-measure
    0.0 when precision and recall are both zero).
    """
    require_probability(attack_prevalence, "attack_prevalence")
    fp = np.asarray(false_positive_rates, dtype=float)
    fn = np.asarray(false_negative_rates, dtype=float)
    true_positives = attack_prevalence * (1.0 - fn)
    false_negatives = attack_prevalence * fn
    false_positives = (1.0 - attack_prevalence) * fp
    flagged = true_positives + false_positives
    actual = true_positives + false_negatives
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(flagged > 0, true_positives / flagged, 1.0)
        recall = np.where(actual > 0, true_positives / actual, 1.0)
        denominator = precision + recall
        return np.where(denominator == 0.0, 0.0, 2.0 * precision * recall / denominator)
