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
any grouping method; a policy asks for all of its groups' thresholds in one
call, which the utility and F-measure heuristics answer with one batched
search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.metrics import DEFAULT_UTILITY_WEIGHT, f_measure_from_rate_arrays
from repro.stats.empirical import EmpiricalDistribution, stacked_percentiles
from repro.utils.validation import require, require_non_negative, require_probability

#: The percentile IT operators target in practice (per the paper's survey).
DEFAULT_PERCENTILE = 99.0


class ThresholdHeuristic:
    """Interface: map benign training data to a detection threshold.

    Two entry points exist:

    * :meth:`threshold` — compute a threshold from a single (possibly pooled)
      distribution.  Percentile and mean+std heuristics only need this.
    * :meth:`thresholds_for_groups` — compute the single threshold each *group*
      of hosts will share, given each member's own distribution, for all of a
      policy's groups in one call.  The default pools each group's members and
      delegates to :meth:`threshold`; utility- and F-measure-maximising
      heuristics override it to pick the threshold that maximises the
      *average member* objective, which is what the paper's utility heuristic
      does when one threshold must serve many users, in one batched search.
    """

    name = "heuristic"

    def threshold(self, distribution: EmpiricalDistribution) -> float:
        """Return the threshold for a detector trained on ``distribution``."""
        raise NotImplementedError

    def thresholds_for_groups(
        self, groups: Sequence[Sequence[EmpiricalDistribution]]
    ) -> List[float]:
        """Return the shared threshold of each group of member distributions."""
        thresholds = []
        for members in groups:
            require(len(members) > 0, "group must contain at least one distribution")
            thresholds.append(float(self.threshold(EmpiricalDistribution.pooled(list(members)))))
        return thresholds


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


def candidate_threshold_grids(
    distributions: Sequence[EmpiricalDistribution], num_candidates: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Every distribution's candidate thresholds, flat, and how many each has.

    The shared search grid of the utility/F-measure heuristics and the
    :mod:`repro.optimize` optimizers: a training distribution's upper-half
    quantiles and a headroom value above its maximum (so "never alarm" is a
    candidate), deduplicated and sorted as ``np.unique`` does.  One pass of
    the percentile kernel covers every distribution; distribution ``i`` owns
    the ``i``-th run of ``counts[i]`` values.
    """
    quantiles = np.minimum(np.linspace(0.5, 1.0, num_candidates), 1.0)
    grids = np.empty((len(distributions), num_candidates + 1))
    grids[:, :-1] = stacked_percentiles(distributions, 100.0 * quantiles)
    # The last quantile is 1.0, so the column before the headroom is the maximum.
    grids[:, -1] = grids[:, -2] * 1.01 + 1.0
    grids.sort(axis=1)
    keep = np.ones(grids.shape, dtype=bool)
    keep[:, 1:] = grids[:, 1:] != grids[:, :-1]
    return grids[keep], np.count_nonzero(keep, axis=1)


#: Most (row, planned size or none) cells one chunk of members holds.
_CHUNK_CELLS = 1 << 15


def _best_candidates(
    groups: Sequence[Sequence[EmpiricalDistribution]],
    num_candidates: int,
    attack_sizes: Sequence[float],
    score: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> List[float]:
    """Each group's candidate with the highest mean member ``score(fp, fn)``.

    A group's candidates come from its pooled distribution.  A row is one
    (member, candidate) pair: the member's training FP at the candidate, and
    its FN against an attack whose size is drawn uniformly from
    ``attack_sizes`` (0 when there are none).  FN is exactly 0 where even the
    smallest size leaves no training bin at or below the candidate, and
    exactly 1 where the largest leaves every bin there; only the rows between
    count the bins each size leaves.  Rows are scored in chunks of members;
    each group's scores are averaged over members as one C-contiguous
    ``(candidates, members)`` block, and the first maximum wins, as
    ``np.argmax`` picks it.
    """
    if not groups:
        return []
    pooled = []
    for members in groups:
        require(len(members) > 0, "group must contain at least one distribution")
        pooled.append(EmpiricalDistribution.pooled(list(members)))
    candidates, widths = candidate_threshold_grids(pooled, num_candidates)
    del pooled
    samples = [member.samples for members in groups for member in members]
    lengths = np.array([sample.size for sample in samples])
    require(bool(np.all(lengths)), "operation requires a non-empty distribution")
    lowest = np.array([sample[0] for sample in samples])
    highest = np.array([sample[-1] for sample in samples])
    sizes = np.asarray(attack_sizes, dtype=float)

    group_sizes = np.array([len(members) for members in groups])
    group_first = np.cumsum(widths) - widths
    group_members = (np.cumsum(group_sizes) - group_sizes).tolist()
    member_first = np.repeat(group_first, group_sizes).tolist()
    member_widths = np.repeat(widths, group_sizes).tolist()
    means = np.empty(candidates.size)
    block = np.empty(0)
    for group, first, end in _member_chunks(group_sizes, widths, sizes.size):
        # The chunk's rows: each member's candidates in turn.
        chunk_widths = member_widths[first:end]
        rows = np.repeat(np.arange(end - first), chunk_widths)
        offsets = np.arange(rows.size) - np.repeat(
            np.cumsum(chunk_widths) - chunk_widths, chunk_widths
        )
        thresholds = candidates[np.asarray(member_first[first:end])[rows] + offsets]
        false_negatives = np.zeros(rows.size)
        counted = np.empty(0, dtype=np.intp)
        if sizes.size:
            misses_all = thresholds - sizes.max() >= highest[first:end][rows]
            false_negatives[misses_all] = 1.0
            counted = np.flatnonzero(
                ~misses_all & (thresholds - sizes.min() >= lowest[first:end][rows])
            )
        grids = [
            candidates[offset : offset + width]
            for offset, width in zip(member_first[first:end], chunk_widths, strict=True)
        ]
        bounds = np.searchsorted(rows[counted], np.arange(end - first + 1)).tolist()
        below, missed = _member_counts(
            samples[first:end], grids, thresholds[counted, None] - sizes, bounds
        )
        row_lengths = lengths[first:end][rows]
        if counted.size:
            # 1 - exceedance at each shifted candidate, as a per-member search computes it.
            detected = missed / row_lengths[counted, None]
            np.subtract(1.0, detected, out=detected)
            np.subtract(1.0, detected, out=detected)
            false_negatives[counted] = np.mean(detected, axis=1)
        scores = score(1.0 - below / row_lengths, false_negatives)
        if group < 0:
            # One-member groups, in candidate order: a one-member mean is the score (x / 1 == x).
            means[member_first[first] : member_first[end - 1] + member_widths[end - 1]] = scores
            continue
        width, count = int(widths[group]), int(group_sizes[group])
        done = first - group_members[group]
        if done == 0:
            block = np.empty((width, count))
        block[:, done : done + end - first] = scores.reshape(end - first, width).T
        if done + end - first == count:
            means[group_first[group] : group_first[group] + width] = np.mean(block, axis=1)
    best = np.maximum.reduceat(means, group_first)
    hits = np.flatnonzero(means == np.repeat(best, widths))
    return candidates[hits[np.searchsorted(hits, group_first)]].tolist()


def _member_chunks(
    group_sizes: np.ndarray, widths: np.ndarray, num_sizes: int
) -> Iterator[Tuple[int, int, int]]:
    """``(group, first, end)``: members ``first:end`` whose rows one chunk holds.

    A chunk is a slice of one group of several members, or (``group`` -1) a
    run of one-member groups.
    """
    member_cells = (widths * (num_sizes + 1)).tolist()
    first = run = run_cells = 0
    for group, (size, cells) in enumerate(zip(group_sizes.tolist(), member_cells, strict=True)):
        if size == 1:
            if run < first and run_cells + cells > _CHUNK_CELLS:
                yield -1, run, first
                run, run_cells = first, 0
            first, run_cells = first + 1, run_cells + cells
            continue
        if run < first:
            yield -1, run, first
        step = max(1, _CHUNK_CELLS // cells)
        for start in range(first, first + size, step):
            yield group, start, min(start + step, first + size)
        first = run = first + size
        run_cells = 0
    if run < first:
        yield -1, run, first


def _member_counts(
    samples: Sequence[np.ndarray],
    grids: Sequence[np.ndarray],
    shifted: np.ndarray,
    bounds: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Training bins at or below each member's candidates and shifted candidates.

    Member ``i`` owns ``grids[i]`` and rows ``bounds[i]:bounds[i + 1]`` of
    ``shifted``; each is one binary search of its sorted bins.
    """
    below = np.concatenate(
        [
            np.searchsorted(sample, grid, side="right")
            for sample, grid in zip(samples, grids, strict=True)
        ]
    )
    missed = np.empty(shifted.shape, dtype=np.intp)
    for sample, low, high in zip(samples, bounds[:-1], bounds[1:], strict=True):
        if high > low:
            missed[low:high] = np.searchsorted(sample, shifted[low:high], side="right")
    return below, missed


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
        return self.thresholds_for_groups([[distribution]])[0]

    def thresholds_for_groups(
        self, groups: Sequence[Sequence[EmpiricalDistribution]]
    ) -> List[float]:
        """Each group's threshold maximising its *average member* utility.

        For a single host this is the paper's per-host utility-optimal
        threshold; for the homogeneous and partial-diversity groupings it is
        the single value that best balances the false positives of heavy
        members against the missed detections of light members.
        """
        weight = self.weight
        return _best_candidates(
            groups,
            self.num_candidates,
            self.attack_sizes,
            lambda fp, fn: 1.0 - (weight * fn + (1.0 - weight) * fp),
        )


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
        return self.thresholds_for_groups([[distribution]])[0]

    def thresholds_for_groups(
        self, groups: Sequence[Sequence[EmpiricalDistribution]]
    ) -> List[float]:
        """Each group's threshold maximising its average member F-measure."""
        prevalence = self.attack_prevalence
        return _best_candidates(
            groups,
            self.num_candidates,
            self.attack_sizes,
            lambda fp, fn: f_measure_from_rate_arrays(fp, fn, prevalence),
        )
