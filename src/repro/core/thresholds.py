"""Threshold-selection heuristics.

Section 4 of the paper considers several heuristics for turning a (pooled,
per-group or per-host) training distribution into a detection threshold:

* **Percentile** — target a false-positive rate directly; the IT operators
  surveyed in the paper overwhelmingly use the 99th percentile.
* **Mean + k·std** — classic outlier rule.
* **Utility-maximising** — pick the threshold maximising
  ``U = 1 - [w·FN + (1-w)·FP]`` against an assumed attack-size distribution.
* **F-measure-maximising** — pick the threshold maximising the harmonic mean
  of precision and recall against the same assumed attacks.

All heuristics consume an :class:`~repro.stats.empirical.EmpiricalDistribution`
of benign per-bin counts and return a scalar threshold, so they compose with
any grouping method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.metrics import DEFAULT_UTILITY_WEIGHT, f_measure_from_rate_arrays
from repro.stats.empirical import EmpiricalDistribution
from repro.utils.validation import require, require_non_negative, require_probability

#: The percentile IT operators target in practice (per the paper's survey).
DEFAULT_PERCENTILE = 99.0


class ThresholdHeuristic:
    """Interface: map benign training data to a detection threshold.

    Two entry points exist:

    * :meth:`threshold` — compute a threshold from a single (possibly pooled)
      distribution.  Percentile and mean+std heuristics only need this.
    * :meth:`threshold_for_group` — compute the single threshold a *group* of
      hosts will share, given each member's own distribution.  The default
      pools the members and delegates to :meth:`threshold`; utility- and
      F-measure-maximising heuristics override it to pick the threshold that
      maximises the *average member* objective, which is what the paper's
      utility heuristic does when one threshold must serve many users.
    """

    name = "heuristic"

    def threshold(self, distribution: EmpiricalDistribution) -> float:
        """Return the threshold for a detector trained on ``distribution``."""
        raise NotImplementedError

    def threshold_for_group(self, distributions: Sequence[EmpiricalDistribution]) -> float:
        """Return the shared threshold for a group of member distributions."""
        require(len(distributions) > 0, "group must contain at least one distribution")
        if len(distributions) == 1:
            return self.threshold(distributions[0])
        return self.threshold(EmpiricalDistribution.pooled(list(distributions)))


@dataclass(frozen=True)
class PercentileHeuristic(ThresholdHeuristic):
    """Threshold at a fixed percentile of the benign distribution.

    Attributes
    ----------
    percentile:
        The targeted percentile, e.g. 99.0 (at most 1% false positives on the
        training data, by construction).
    """

    percentile: float = DEFAULT_PERCENTILE

    def __post_init__(self) -> None:
        require(0.0 < self.percentile < 100.0, "percentile must be in (0, 100)")

    @property
    def name(self) -> str:
        return f"percentile-{self.percentile:g}"

    def threshold(self, distribution: EmpiricalDistribution) -> float:
        return distribution.percentile(self.percentile)


@dataclass(frozen=True)
class MeanStdHeuristic(ThresholdHeuristic):
    """Threshold at ``mean + k * std`` of the benign distribution."""

    num_std: float = 3.0

    def __post_init__(self) -> None:
        require_non_negative(self.num_std, "num_std")

    @property
    def name(self) -> str:
        return f"mean+{self.num_std:g}std"

    def threshold(self, distribution: EmpiricalDistribution) -> float:
        return distribution.mean() + self.num_std * distribution.std()


def candidate_threshold_grid(
    distribution: EmpiricalDistribution, num_candidates: int
) -> np.ndarray:
    """Quantile grid of candidate thresholds spanning the distribution's range.

    The shared search grid of the utility/F-measure heuristics and the
    :mod:`repro.optimize` optimizers: upper-half quantiles of the training
    distribution, deduplicated and sorted.
    """
    quantiles = np.minimum(np.linspace(0.5, 1.0, num_candidates), 1.0)
    values = distribution.percentiles(100.0 * quantiles)
    # Include a little headroom above the max so "never alarm" is a candidate.
    return np.unique(np.append(values, distribution.max() * 1.01 + 1.0))


def _member_rate_matrices(
    distributions: Sequence[EmpiricalDistribution],
    candidates: np.ndarray,
    attack_sizes: np.ndarray,
) -> tuple:
    """Each member's training (FP, FN) at each candidate, as two ``(candidates, members)`` arrays.

    FN is the chance of missing an attack whose size is drawn uniformly from
    ``attack_sizes`` (0 when there are none).  Member values sit contiguously
    per candidate, so a mean over members sums each row pairwise.
    """
    fp = np.empty((candidates.size, len(distributions)))
    fn = np.zeros((candidates.size, len(distributions)))
    shifted = candidates[:, None] - attack_sizes[None, :] if attack_sizes.size else None
    for member_index, member in enumerate(distributions):
        fp[:, member_index] = member.exceedances(candidates)
        if shifted is not None:
            fn[:, member_index] = np.mean(1.0 - member.exceedances(shifted), axis=1)
    return fp, fn


@dataclass(frozen=True)
class UtilityHeuristic(ThresholdHeuristic):
    """Threshold maximising the paper's utility against assumed attack sizes.

    Attributes
    ----------
    weight:
        The utility weight ``w`` (importance of false negatives).
    attack_sizes:
        The attack sizes (per-bin injections) the defender plans for; the
        false-negative rate is averaged over them.  When empty, the heuristic
        degenerates to minimising the false-positive rate (threshold above
        the training maximum).
    num_candidates:
        Size of the candidate-threshold grid searched.
    """

    weight: float = DEFAULT_UTILITY_WEIGHT
    attack_sizes: Sequence[float] = field(default_factory=lambda: (10.0, 50.0, 100.0, 500.0))
    num_candidates: int = 200

    def __post_init__(self) -> None:
        require_probability(self.weight, "weight")
        require(self.num_candidates >= 2, "num_candidates must be >= 2")
        require(all(size >= 0 for size in self.attack_sizes), "attack sizes must be non-negative")

    @property
    def name(self) -> str:
        return f"utility-w{self.weight:g}"

    def threshold(self, distribution: EmpiricalDistribution) -> float:
        return self.threshold_for_group([distribution])

    def threshold_for_group(self, distributions: Sequence[EmpiricalDistribution]) -> float:
        """Threshold maximising the *average member* utility.

        For a single host this is the paper's per-host utility-optimal
        threshold; for the homogeneous and partial-diversity groupings it is
        the single value that best balances the false positives of heavy
        members against the missed detections of light members.
        """
        require(len(distributions) > 0, "group must contain at least one distribution")
        pooled = EmpiricalDistribution.pooled(list(distributions))
        candidates = candidate_threshold_grid(pooled, self.num_candidates)
        sizes = np.asarray(self.attack_sizes, dtype=float)
        false_positives, false_negatives = _member_rate_matrices(distributions, candidates, sizes)
        utilities = 1.0 - (self.weight * false_negatives + (1.0 - self.weight) * false_positives)
        mean_utilities = np.mean(utilities, axis=1)
        return float(candidates[int(np.argmax(mean_utilities))])


@dataclass(frozen=True)
class FMeasureHeuristic(ThresholdHeuristic):
    """Threshold maximising the F-measure against assumed attack sizes.

    Attributes
    ----------
    attack_sizes:
        Attack sizes the defender plans for.
    attack_prevalence:
        Assumed fraction of bins carrying attack traffic (needed to convert
        rates into precision/recall).
    num_candidates:
        Size of the candidate-threshold grid searched.
    """

    attack_sizes: Sequence[float] = field(default_factory=lambda: (10.0, 50.0, 100.0, 500.0))
    attack_prevalence: float = 0.01
    num_candidates: int = 200

    def __post_init__(self) -> None:
        require_probability(self.attack_prevalence, "attack_prevalence")
        require(self.num_candidates >= 2, "num_candidates must be >= 2")
        require(all(size >= 0 for size in self.attack_sizes), "attack sizes must be non-negative")

    @property
    def name(self) -> str:
        return "f-measure"

    def threshold(self, distribution: EmpiricalDistribution) -> float:
        return self.threshold_for_group([distribution])

    def threshold_for_group(self, distributions: Sequence[EmpiricalDistribution]) -> float:
        """Threshold maximising the average member F-measure."""
        require(len(distributions) > 0, "group must contain at least one distribution")
        pooled = EmpiricalDistribution.pooled(list(distributions))
        candidates = candidate_threshold_grid(pooled, self.num_candidates)
        sizes = np.asarray(self.attack_sizes, dtype=float)
        false_positives, false_negatives = _member_rate_matrices(distributions, candidates, sizes)
        scores = f_measure_from_rate_arrays(
            false_positives, false_negatives, self.attack_prevalence
        )
        mean_scores = np.mean(scores, axis=1)
        return float(candidates[int(np.argmax(mean_scores))])
