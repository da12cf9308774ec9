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

import numpy as np

from repro.utils.validation import require_probability

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


def f_measure_from_rate_arrays(
    false_positive_rates: np.ndarray,
    false_negative_rates: np.ndarray,
    attack_prevalence: float,
) -> np.ndarray:
    """F-measure per operating point, from rates and the fraction of bins that carry attacks.

    Converts each rate-based operating point into expected per-bin counts
    using ``attack_prevalence`` (the fraction of bins containing attack
    traffic) and then applies the usual precision/recall definitions, with
    their degenerate conventions: precision is 1.0 when nothing is flagged,
    recall is 1.0 when there is nothing to detect, and the F-measure is 0.0
    when precision and recall are both zero.
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
