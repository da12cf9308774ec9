"""The fused-utility objective that joint threshold optimizers score against.

Threshold heuristics pick each feature's threshold against a *per-feature*
objective; since the feature-set redesign the quantity that actually matters
is the fused per-host utility of the whole ``DetectionProtocol``.  The
optimizers therefore need a training-data surrogate for the fused test-week
utility that is cheap enough to evaluate over whole candidate grids:

* per bin, feature ``i`` alerts on benign traffic with probability
  ``P(X_i > t_i)`` (its training exceedance), and the fusion rule combines
  the per-feature indicators — so the fused false-positive rate is the
  Poisson-binomial tail :meth:`~repro.core.fusion.FusionRule.alarm_probability`
  over the per-feature exceedances (features treated as independent per bin);
* on attacked bins the planned injection shifts the attacked feature's alert
  probability to ``P(X_a > t_a - size)`` while untouched features keep their
  benign rates — a coincidental alert on an untouched feature still raises
  the fused alarm, exactly as the test-week measurement counts it;
* the vector's utility is the paper's ``U = 1 - [w*FN + (1-w)*FP]`` with the
  false-negative rate averaged over the planned attack sizes.

For a single feature (any fusion rule) this reduces to the objective the
single-feature :class:`~repro.core.thresholds.UtilityHeuristic` maximises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.fusion import FusionRule
from repro.core.metrics import DEFAULT_UTILITY_WEIGHT
from repro.features.definitions import Feature
from repro.stats.empirical import EmpiricalDistribution
from repro.utils.validation import require, require_probability

#: The attack sizes the defender plans for by default — the same planning
#: assumption as :class:`~repro.core.thresholds.UtilityHeuristic`.
DEFAULT_ATTACK_SIZES: Tuple[float, ...] = (10.0, 50.0, 100.0, 500.0)

#: One group member's training data: its per-feature benign distributions.
MemberDistributions = Mapping[Feature, EmpiricalDistribution]

#: Bound on one row block's float64 elements across the features and the
#: benign plus attacked cases, ``F * (S + 1) * rows * C``: 1 MiB (min 1 row).
ROW_BLOCK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class FusedUtilityObjective:
    """Expected fused utility of per-feature threshold vectors.

    Attributes
    ----------
    fusion:
        The fusion rule combining per-feature alerts (the protocol's rule).
    weight:
        The utility weight ``w`` (importance of false negatives).
    attack_sizes:
        Planned per-bin injection sizes; the false-negative rate is averaged
        over them.  Empty means "false positives only".
    attack_feature:
        The feature the planned attack perturbs; ``None`` selects the first
        (primary) feature of the evaluated set.
    """

    fusion: FusionRule = field(default_factory=FusionRule)
    weight: float = DEFAULT_UTILITY_WEIGHT
    attack_sizes: Tuple[float, ...] = DEFAULT_ATTACK_SIZES
    attack_feature: Optional[Feature] = None

    def __post_init__(self) -> None:
        require(isinstance(self.fusion, FusionRule), "fusion must be a FusionRule")
        require_probability(self.weight, "weight")
        require(
            all(size >= 0 for size in self.attack_sizes), "attack sizes must be non-negative"
        )

    def target_index(self, features: Sequence[Feature]) -> int:
        """Index of the attacked feature within ``features`` (default: first)."""
        if self.attack_feature is None:
            return 0
        features = tuple(features)
        require(
            self.attack_feature in features,
            f"attack feature {self.attack_feature.value!r} is not among the evaluated features",
        )
        return features.index(self.attack_feature)

    def bind(
        self, members: Sequence[MemberDistributions], features: Sequence[Feature]
    ) -> "BoundObjective":
        """This objective over the members' sorted training samples (not copied)."""
        require(len(members) > 0, "at least one member is required")
        rows = tuple(tuple(member[feature].samples for member in members) for feature in features)
        counts = np.array([[row.size for row in feature_rows] for feature_rows in rows])
        require(bool(np.all(counts > 0)), "operation requires a non-empty distribution")
        return BoundObjective(self, self.target_index(features), rows, counts)

    def member_utilities(
        self,
        members: Sequence[MemberDistributions],
        features: Sequence[Feature],
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Utility of every candidate vector for every member.

        ``candidates`` has shape ``(num_candidates, num_features)`` (a single
        vector is promoted); the result has shape
        ``(num_candidates, num_members)``, scored by one
        :meth:`BoundObjective.utilities` kernel call over the stacked members.
        """
        return self.bind(members, features).utilities(candidates)

    def group_scores(
        self,
        members: Sequence[MemberDistributions],
        features: Sequence[Feature],
        candidates: np.ndarray,
    ) -> np.ndarray:
        """Mean member utility per candidate vector, shape ``(num_candidates,)``.

        This is the quantity one shared group configuration maximises — the
        multi-feature analogue of the utility heuristic's average-member
        objective.
        """
        return np.mean(self.member_utilities(members, features, candidates), axis=1)


@dataclass(frozen=True)
class BoundObjective:
    """A :class:`FusedUtilityObjective` bound to members' sorted training rows.

    ``rows[i][r]`` is member ``r``'s sorted samples of the ``i``-th feature
    (rows may differ in length); ``sample_counts[i, r]`` is their count.
    """

    objective: FusedUtilityObjective
    target: int
    rows: Tuple[Tuple[np.ndarray, ...], ...]
    sample_counts: np.ndarray

    def select(self, indices: Sequence[int]) -> "BoundObjective":
        """The same objective over the rows at ``indices``, in that order."""
        rows = tuple(tuple(feature_rows[r] for r in indices) for feature_rows in self.rows)
        return BoundObjective(self.objective, self.target, rows, self.sample_counts[:, indices])

    def utilities(self, candidates: np.ndarray) -> np.ndarray:
        """Utility of candidate vectors for every row, C-contiguous ``(C, R)``.

        ``candidates`` is ``(C, F)`` for every row (a vector is promoted) or
        ``(R, C, F)`` per row; row blocks are bounded by :data:`ROW_BLOCK_ELEMENTS`.
        """
        candidates = np.asarray(candidates, dtype=float)
        if candidates.ndim < 3:
            candidates = np.atleast_2d(candidates)[None]
        num_features, num_rows = self.sample_counts.shape
        num_candidates = candidates.shape[1]
        require(
            candidates.shape[2] == num_features and candidates.shape[0] in (1, num_rows),
            "candidates must be (C, F) or (R, C, F) vectors over every evaluated feature",
        )
        fusion, weight, target = self.objective.fusion, self.objective.weight, self.target
        sizes = np.asarray(self.objective.attack_sizes, dtype=float)
        # (F, R, C) thresholds and the (R, S, C) values the attacked feature's
        # benign traffic must stay under for an attacked bin to go unnoticed.
        thresholds = np.ascontiguousarray(np.moveaxis(candidates, -1, 0))
        shifted = thresholds[target][:, None, :] - sizes[:, None]
        shifted = np.broadcast_to(shifted, (num_rows, sizes.size, num_candidates))
        thresholds = np.broadcast_to(thresholds, (num_features, num_rows, num_candidates))
        block = max(1, ROW_BLOCK_ELEMENTS // (num_features * (sizes.size + 1) * num_candidates))
        result = np.empty((num_candidates, num_rows))
        for start in range(0, num_rows, block):
            rows = slice(start, start + block)
            alert = np.stack([self._exceedances(i, t, rows) for i, t in enumerate(thresholds)])
            false_positive = fusion.alarm_probability(alert)  # (rows, C)
            false_negative = 0.0
            if sizes.size:
                attacked = np.repeat(alert[:, None], sizes.size, axis=1)  # (F, S, rows, C)
                attacked[target] = np.moveaxis(self._exceedances(target, shifted, rows), 1, 0)
                missed = 1.0 - fusion.alarm_probability(attacked)
                # The mean over sizes reduces the leading axis, except that a
                # lone candidate's sizes sum as one contiguous (pairwise) run,
                # exactly as a single member's (S, 1) column does.
                axis = -1 if num_candidates == 1 else 0
                missed = np.ascontiguousarray(np.moveaxis(missed, 0, axis))
                false_negative = np.mean(missed, axis=axis)
            result[:, rows] = (1.0 - (weight * false_negative + (1.0 - weight) * false_positive)).T
        return result

    def _exceedances(self, index: int, values: np.ndarray, rows: slice) -> np.ndarray:
        """``exceedances(values[r])`` of feature ``index`` for each row ``r`` in ``rows``."""
        values = values[rows]
        pairs = zip(self.rows[index][rows], values, strict=True)
        counts = np.array([row.searchsorted(v, "right") for row, v in pairs])
        sample_counts = self.sample_counts[index, rows].reshape((-1,) + (1,) * (values.ndim - 1))
        return 1.0 - counts / sample_counts
