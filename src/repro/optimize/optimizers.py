"""Threshold optimizers: choose per-feature threshold vectors jointly.

A :class:`ThresholdOptimizer` turns each group's per-member training
distributions into the per-feature threshold vector its members will run,
maximising a :class:`~repro.optimize.objective.FusedUtilityObjective`.  Three
implementations span the accuracy/cost spectrum:

* :class:`IndependentOptimizer` — wraps the existing per-feature heuristics;
  selection is bit-identical to the pre-optimizer code (each feature picked
  in isolation), with the fused objective only *scored* for reporting.
* :class:`CoordinateAscentOptimizer` — starts from the independent solution
  and cycles the features, re-optimising one feature's threshold over its
  candidate grid while the others stay fixed, until a full sweep no longer
  improves the objective.  All groups move in lockstep: one fused-utility
  kernel call over their stacked members scores every group's grid per
  (sweep, feature).  Monotone: never worse than the independent start.
* :class:`GridJointOptimizer` — exhaustive search of the joint candidate
  grid, the ground-truth baseline; capped at 3 features because the grid is
  the cartesian product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.fusion import FusionRule
from repro.core.metrics import DEFAULT_UTILITY_WEIGHT
from repro.core.thresholds import ThresholdHeuristic, candidate_threshold_grids
from repro.features.definitions import Feature
from repro.optimize.objective import (
    DEFAULT_ATTACK_SIZES,
    BoundObjective,
    FusedUtilityObjective,
    MemberDistributions,
)
from repro.stats.empirical import EmpiricalDistribution
from repro.utils.validation import require, require_probability

#: The most features the exhaustive joint grid search accepts.
MAX_JOINT_GRID_FEATURES = 3


@dataclass(frozen=True)
class GroupOptimization:
    """One group's optimised configuration plus provenance."""

    thresholds: Dict[Feature, float]
    objective_value: float
    iterations: int


@dataclass(frozen=True)
class OptimizationReport:
    """Provenance of an optimizer-driven assignment.

    Attributes
    ----------
    optimizer:
        Name of the optimizer that chose the thresholds.
    objective_value:
        Population mean of the per-host fused objective at the assigned
        thresholds (comparable across optimizers: always scored the same
        way, whatever selection produced the thresholds).
    iterations:
        Total optimisation iterations across all groups (coordinate-ascent
        sweeps; 0 for independent selection, one per group for the
        exhaustive grid).
    """

    optimizer: str
    objective_value: float
    iterations: int


def independent_thresholds(
    groups: Sequence[Sequence[MemberDistributions]],
    features: Sequence[Feature],
    heuristic: ThresholdHeuristic,
) -> List[Dict[Feature, float]]:
    """Each group's per-feature heuristic thresholds: the independent solution."""
    per_feature = {
        feature: heuristic.thresholds_for_groups(
            [[member[feature] for member in members] for members in groups]
        )
        for feature in features
    }
    return [
        {feature: per_feature[feature][index] for feature in features}
        for index in range(len(groups))
    ]


def _feature_grids(
    groups: Sequence[Sequence[MemberDistributions]],
    features: Sequence[Feature],
    num_candidates: int,
    include: Sequence[Sequence[Optional[Mapping[Feature, float]]]],
) -> List[List[np.ndarray]]:
    """Each group's per-feature candidate grids, from its pooled distributions.

    ``include[g]`` lists group ``g``'s anchor vectors (the independent start,
    a warm start from a previous optimisation); they are merged into its
    grids so the search space always contains the status quo and any
    known-good prior solution.
    """
    grids: List[List[np.ndarray]] = [[] for _ in groups]
    for feature in features:
        pooled = [
            EmpiricalDistribution.pooled([member[feature] for member in members])
            for members in groups
        ]
        values, counts = candidate_threshold_grids(pooled, num_candidates)
        split = np.split(values, np.cumsum(counts)[:-1])
        for group_grids, grid, vectors in zip(grids, split, include, strict=True):
            anchors = [vector[feature] for vector in vectors if vector is not None]
            group_grids.append(np.unique(np.append(grid, anchors)) if anchors else grid)
    return grids


def _group_scores(bound: BoundObjective, candidates: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean member utility of each group's ``(G, C, F)`` candidates, shape ``(C, G)``.

    Group ``g`` owns the next ``sizes[g]`` rows of ``bound``.  Each mean reduces
    the group's own C-contiguous ``(C, M)`` block, so it sums as a one-group array.
    """
    utilities = bound.utilities(np.repeat(candidates, sizes, axis=0))
    if np.all(sizes == sizes[0]):
        return np.mean(utilities.reshape(len(utilities), sizes.size, sizes[0]), axis=2)
    blocks = np.split(utilities, np.cumsum(sizes)[:-1], axis=1)
    return np.stack([np.mean(np.ascontiguousarray(block), axis=1) for block in blocks], axis=1)


class ThresholdOptimizer:
    """Interface: choose one group's per-feature threshold vector.

    Concrete optimizers are dataclasses carrying the objective's defender
    parameters (``weight``, ``attack_sizes``); the fusion rule joins at
    :meth:`objective` time because it belongs to the evaluated protocol, not
    the optimizer.
    """

    name = "optimizer"
    #: Joint optimizers configure the whole feature set under ONE grouping;
    #: the independent wrapper keeps the legacy per-feature groupings.
    joint = True
    weight: float = DEFAULT_UTILITY_WEIGHT
    attack_sizes: Tuple[float, ...] = DEFAULT_ATTACK_SIZES
    attack_feature: Optional[Feature] = None

    def objective(self, fusion: Optional[FusionRule] = None) -> FusedUtilityObjective:
        """The fused objective this optimizer maximises under ``fusion``.

        ``attack_feature`` names the evaluated feature the planned attack
        perturbs; ``None`` plans for the primary (first) feature.
        """
        return FusedUtilityObjective(
            fusion=fusion if fusion is not None else FusionRule.any_(),
            weight=self.weight,
            attack_sizes=tuple(self.attack_sizes),
            attack_feature=self.attack_feature,
        )

    def optimize_group(
        self,
        members: Sequence[MemberDistributions],
        features: Sequence[Feature],
        objective: FusedUtilityObjective,
        heuristic: ThresholdHeuristic,
        warm_start: Optional[Mapping[Feature, float]] = None,
    ) -> GroupOptimization:
        """Choose the threshold vector the whole group will share.

        ``warm_start`` optionally names a previously selected vector for this
        group (a rolling re-optimisation handing last deployment's solution
        back in).  Joint optimizers merge it into their candidate grids and
        start from whichever of (independent heuristic, warm start) scores
        better, which typically converges in fewer sweeps.
        """
        raise NotImplementedError

    def optimize_groups(
        self,
        groups: Sequence[Sequence[MemberDistributions]],
        features: Sequence[Feature],
        objective: FusedUtilityObjective,
        heuristic: ThresholdHeuristic,
        warm_starts: Optional[Sequence[Optional[Mapping[Feature, float]]]] = None,
    ) -> List[GroupOptimization]:
        """:meth:`optimize_group` for every group (``warm_starts``: one per group)."""
        warm_starts = warm_starts if warm_starts is not None else [None] * len(groups)
        return [
            self.optimize_group(members, features, objective, heuristic, warm_start=warm)
            for members, warm in zip(groups, warm_starts, strict=True)
        ]

    def _validate_common(self) -> None:
        require_probability(self.weight, "weight")
        require(
            all(size >= 0 for size in self.attack_sizes), "attack sizes must be non-negative"
        )


@dataclass(frozen=True)
class IndependentOptimizer(ThresholdOptimizer):
    """Per-feature heuristic selection, scored (not steered) by the objective.

    Selection is exactly the pre-optimizer behaviour — each feature's
    threshold comes from the policy's heuristic in isolation — so existing
    configurations reproduce bit for bit; the fused objective is evaluated
    only to report a value comparable with the joint optimizers.  It has no
    group search: :meth:`~repro.core.policies.ConfigurationPolicy.assign`
    selects through the policy's heuristic and scores the result.
    """

    weight: float = DEFAULT_UTILITY_WEIGHT
    attack_sizes: Tuple[float, ...] = DEFAULT_ATTACK_SIZES
    attack_feature: Optional[Feature] = None

    name = "independent"
    joint = False

    def __post_init__(self) -> None:
        self._validate_common()


@dataclass(frozen=True)
class CoordinateAscentOptimizer(ThresholdOptimizer):
    """Cycle per-feature grids, re-scoring the fused utility until converged.

    Attributes
    ----------
    num_candidates:
        Size of each feature's candidate grid.
    max_sweeps:
        Upper bound on full passes over the feature set.
    tolerance:
        A sweep improving the objective by no more than this counts as
        converged.
    """

    num_candidates: int = 48
    max_sweeps: int = 8
    tolerance: float = 1e-9
    weight: float = DEFAULT_UTILITY_WEIGHT
    attack_sizes: Tuple[float, ...] = DEFAULT_ATTACK_SIZES
    attack_feature: Optional[Feature] = None

    name = "coordinate-ascent"
    joint = True

    def __post_init__(self) -> None:
        self._validate_common()
        require(self.num_candidates >= 2, "num_candidates must be >= 2")
        require(self.max_sweeps >= 1, "max_sweeps must be >= 1")
        require(self.tolerance >= 0.0, "tolerance must be non-negative")

    def optimize_group(
        self,
        members: Sequence[MemberDistributions],
        features: Sequence[Feature],
        objective: FusedUtilityObjective,
        heuristic: ThresholdHeuristic,
        warm_start: Optional[Mapping[Feature, float]] = None,
    ) -> GroupOptimization:
        return self.optimize_groups([members], features, objective, heuristic, [warm_start])[0]

    def optimize_groups(
        self,
        groups: Sequence[Sequence[MemberDistributions]],
        features: Sequence[Feature],
        objective: FusedUtilityObjective,
        heuristic: ThresholdHeuristic,
        warm_starts: Optional[Sequence[Optional[Mapping[Feature, float]]]] = None,
    ) -> List[GroupOptimization]:
        """Coordinate ascent for every group at once, in lockstep.

        Each (sweep, feature) step scores every active group's grid, padded to
        the widest, in one kernel call; padding never wins a group's
        ``argmax``.  A group leaves after the sweep in which it converges.
        """
        features = tuple(features)
        warm_starts = warm_starts if warm_starts is not None else [None] * len(groups)
        starts = independent_thresholds(groups, features, heuristic)
        grids = _feature_grids(
            groups, features, self.num_candidates, list(zip(starts, warm_starts, strict=True))
        )
        sizes = np.array([len(members) for members in groups])
        group_of_row = np.repeat(np.arange(len(groups)), sizes)
        bound = objective.bind([member for members in groups for member in members], features)
        vectors = np.array([[start[feature] for feature in features] for start in starts])
        best = _group_scores(bound, vectors[:, None, :], sizes)[0]
        if any(warm is not None for warm in warm_starts):
            # A group without a warm start re-scores its start, which never wins.
            warm_vectors = vectors.copy()
            for g, warm in enumerate(warm_starts):
                if warm is not None:
                    warm_vectors[g] = [warm[feature] for feature in features]
            warm_scores = _group_scores(bound, warm_vectors[:, None, :], sizes)[0]
            better = warm_scores > best
            best[better], vectors[better] = warm_scores[better], warm_vectors[better]

        widths = np.array([[grid.size for grid in group_grids] for group_grids in grids])
        padded = np.zeros((len(features), len(groups), widths.max()))
        for g, group_grids in enumerate(grids):
            for i, grid in enumerate(group_grids):
                padded[i, g, : grid.size] = grid
        iterations = np.zeros(len(groups), dtype=int)
        active = np.arange(len(groups))
        while active.size and iterations[active[0]] < self.max_sweeps:
            iterations[active] += 1
            before = best[active]
            rows = bound.select(np.flatnonzero(np.isin(group_of_row, active)))
            for index in range(len(features)):
                width = widths[active, index].max()
                grid = padded[index, active, :width]
                candidates = np.repeat(vectors[active, None, :], width, axis=1)
                candidates[:, :, index] = grid
                scores = _group_scores(rows, candidates, sizes[active])
                scores[np.arange(width)[:, None] >= widths[active, index]] = -np.inf
                winners = np.argmax(scores, axis=0)
                top = scores[winners, np.arange(active.size)]
                improved = top > best[active]
                best[active[improved]] = top[improved]
                vectors[active[improved], index] = grid[improved, winners[improved]]
            active = active[best[active] - before > self.tolerance]
        return [
            GroupOptimization(dict(zip(features, vector.tolist(), strict=True)), value, int(count))
            for vector, value, count in zip(vectors, best.tolist(), iterations, strict=True)
        ]


@dataclass(frozen=True)
class GridJointOptimizer(ThresholdOptimizer):
    """Exhaustive joint grid search: the ground-truth (but priciest) baseline.

    The candidate set is the cartesian product of the per-feature grids, so
    the feature count is capped at :data:`MAX_JOINT_GRID_FEATURES`.
    """

    num_candidates: int = 16
    weight: float = DEFAULT_UTILITY_WEIGHT
    attack_sizes: Tuple[float, ...] = DEFAULT_ATTACK_SIZES
    attack_feature: Optional[Feature] = None

    name = "grid-joint"
    joint = True

    def __post_init__(self) -> None:
        self._validate_common()
        require(self.num_candidates >= 2, "num_candidates must be >= 2")

    def optimize_group(
        self,
        members: Sequence[MemberDistributions],
        features: Sequence[Feature],
        objective: FusedUtilityObjective,
        heuristic: ThresholdHeuristic,
        warm_start: Optional[Mapping[Feature, float]] = None,
    ) -> GroupOptimization:
        features = tuple(features)
        require(
            len(features) <= MAX_JOINT_GRID_FEATURES,
            f"GridJointOptimizer supports at most {MAX_JOINT_GRID_FEATURES} features "
            f"(the joint grid is exponential); got {len(features)}",
        )
        start = independent_thresholds([members], features, heuristic)[0]
        grids = _feature_grids([members], features, self.num_candidates, [(start, warm_start)])[0]
        mesh = np.meshgrid(*grids, indexing="ij")
        candidates = np.stack([axis.ravel() for axis in mesh], axis=1)
        scores = objective.group_scores(members, features, candidates)
        winner = int(np.argmax(scores))
        thresholds = {feature: float(candidates[winner, i]) for i, feature in enumerate(features)}
        return GroupOptimization(
            thresholds=thresholds, objective_value=float(scores[winner]), iterations=1
        )
