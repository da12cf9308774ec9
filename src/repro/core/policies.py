"""Configuration policies: threshold heuristic + grouping method + optimizer.

A :class:`ConfigurationPolicy` computes the detection thresholds every host
in the population should use.  The three named policies from the paper are
provided as thin wrappers with the right grouping method pre-selected;
arbitrary combinations can be built directly.

Threshold *selection* is delegated to a pluggable optimizer layer
(:mod:`repro.optimize`): without an ``optimizer`` (or with the
:class:`~repro.optimize.IndependentOptimizer`) each feature's threshold comes
from the policy's heuristic in isolation — the paper's behaviour, bit for
bit — while the joint optimizers co-optimise the whole per-feature threshold
vector for the protocol's *fused* utility under one shared grouping.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.fusion import FusionRule
from repro.core.grouping import (
    GroupAssignment,
    GroupingStrategy,
    PerHostGrouping,
    QuantileSplitGrouping,
    SingleGroupGrouping,
)
from repro.core.thresholds import DEFAULT_PERCENTILE, PercentileHeuristic, ThresholdHeuristic
from repro.features.definitions import Feature
from repro.optimize import FusedUtilityObjective, OptimizationReport, ThresholdOptimizer
from repro.stats.empirical import EmpiricalDistribution
from repro.telemetry import add_count, trace_span
from repro.utils.validation import require

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ThresholdAssignment:
    """The outcome of applying a policy: one threshold per group, plus provenance.

    A host runs its group's threshold.  The per-host thresholds are derived
    from the groups, not stored: :attr:`values` is the column in
    :attr:`host_ids` order, :meth:`column` reads it in any host order, and
    :attr:`thresholds` is the same column as a ``{host: threshold}`` mapping.

    Attributes
    ----------
    grouping:
        The group assignment the thresholds were computed under.
    group_thresholds:
        The threshold computed for each group (indexed like
        ``grouping.groups``).
    policy_name:
        Name of the policy that produced the assignment.
    """

    grouping: GroupAssignment
    group_thresholds: Tuple[float, ...]
    policy_name: str

    def __post_init__(self) -> None:
        require(
            len(self.group_thresholds) == self.grouping.num_groups,
            "one threshold per group is required",
        )

    @functools.cached_property
    def _layout(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sorted host ids and each one's group index."""
        groups = self.grouping.groups
        sizes = [len(group) for group in groups]
        grouped = np.fromiter(chain.from_iterable(groups), dtype=np.int64, count=sum(sizes))
        order = np.argsort(grouped)
        return grouped[order], np.repeat(np.arange(len(groups)), sizes)[order]

    def _spread(self, group_values: Sequence[float]) -> np.ndarray:
        """One value per group, read by each of its hosts, in :attr:`host_ids` order."""
        return np.asarray(group_values, dtype=float)[self._layout[1]]

    def _rounded_groups(self) -> List[float]:
        """Each group's threshold rounded to 9 decimals, so near-equal values count as one."""
        return [round(float(value), 9) for value in self.group_thresholds]

    @functools.cached_property
    def host_ids(self) -> Tuple[int, ...]:
        """Hosts covered by the assignment, sorted."""
        return tuple(self._layout[0].tolist())

    @functools.cached_property
    def values(self) -> np.ndarray:
        """Every host's threshold, a read-only float64 column in :attr:`host_ids` order."""
        column = self._spread(self.group_thresholds)
        column.flags.writeable = False
        return column

    def column(self, host_ids: Sequence[int]) -> np.ndarray:
        """The thresholds of ``host_ids``, in that order; an unknown host raises ``KeyError``."""
        ids = self._layout[0]
        wanted = np.asarray(host_ids, dtype=np.int64)
        index = np.minimum(np.searchsorted(ids, wanted), ids.size - 1)
        unknown = ids[index] != wanted
        if unknown.any():
            raise KeyError(int(wanted[np.argmax(unknown)]))
        return self.values[index]

    @property
    def thresholds(self) -> Dict[int, float]:
        """Every host's threshold as a ``{host: threshold}`` mapping, in host order."""
        return dict(zip(self.host_ids, self.values.tolist()))

    @functools.cached_property
    def distinct_threshold_count(self) -> int:
        """Number of distinct threshold values in force across the population.

        1 for homogeneous, ~number of hosts for full diversity, ~number of
        groups for partial diversity — the management-overhead proxy IT
        operators care about.  Groups partition the hosts, so the groups'
        rounded values are the hosts'.  Counted once per assignment, however
        many evaluations share it.
        """
        return len(set(self._rounded_groups()))

    def lowest_threshold_hosts(self, count: int = 10) -> Tuple[int, ...]:
        """The ``count`` hosts with the lowest thresholds ("best" detectors).

        These are the paper's Table 2 entries: hosts whose thresholds are so
        low that they can catch stealthy attacks the rest of the population
        misses.  Ties go to the lower host id.
        """
        require(count >= 1, "count must be >= 1")
        ids = self._layout[0]
        return tuple(ids[np.lexsort((ids, self.values))[:count]].tolist())


@dataclass(frozen=True)
class DetectionAssignment:
    """A policy applied to a feature set: one threshold assignment per feature.

    Attributes
    ----------
    per_feature:
        Mapping from feature to the :class:`ThresholdAssignment` the policy
        computed for it.  Every feature's assignment covers the same hosts.
    policy_name:
        Name of the policy that produced the assignments.
    optimization:
        Provenance of optimizer-driven selection (optimizer name, achieved
        objective value, iterations); ``None`` for plain heuristic
        assignments.
    """

    per_feature: Mapping[Feature, ThresholdAssignment]
    policy_name: str
    optimization: Optional[OptimizationReport] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        require(len(self.per_feature) > 0, "assignment must cover at least one feature")
        host_sets = {a.host_ids for a in self.per_feature.values()}
        require(len(host_sets) == 1, "every feature's assignment must cover the same hosts")

    @property
    def features(self) -> Tuple[Feature, ...]:
        """The features covered, in assignment order."""
        return tuple(self.per_feature)

    @property
    def host_ids(self) -> Tuple[int, ...]:
        """Hosts covered by the assignment, sorted."""
        return next(iter(self.per_feature.values())).host_ids

    def for_feature(self, feature: Feature) -> ThresholdAssignment:
        """The per-feature :class:`ThresholdAssignment` for ``feature``."""
        return self.per_feature[feature]

    @functools.cached_property
    def distinct_threshold_count(self) -> int:
        """Number of distinct threshold *configurations* across the population.

        A configuration is the full per-feature threshold vector a host must
        run; for a single feature this reduces to the count of distinct
        scalar thresholds — the management-overhead proxy IT operators care
        about.  Each feature's groups are rounded once and spread to their
        hosts, whose per-feature tuples are then counted, once per
        assignment however many evaluations share it.
        """
        columns = [a._spread(a._rounded_groups()).tolist() for a in self.per_feature.values()]
        return len(set(zip(*columns)))


class ConfigurationPolicy:
    """A policy = threshold heuristic + grouping strategy + optional optimizer.

    Parameters
    ----------
    heuristic:
        How a training distribution is turned into a threshold (and where
        joint optimizers start their search).
    grouping:
        How the population is partitioned; each group's threshold is computed
        from the pooled distribution of its members (exactly one host for
        full diversity, the whole population for homogeneous).
    name:
        Display name; defaults to "<grouping>/<heuristic>".
    optimizer:
        How thresholds are *selected* across the protocol's feature set (see
        :mod:`repro.optimize`).  ``None`` keeps the pure heuristic path; an
        :class:`~repro.optimize.IndependentOptimizer` selects identically but
        additionally reports the fused objective; the joint optimizers
        co-optimise the per-feature threshold vector per group.
    """

    def __init__(
        self,
        heuristic: ThresholdHeuristic,
        grouping: GroupingStrategy,
        name: Optional[str] = None,
        optimizer: Optional[ThresholdOptimizer] = None,
    ) -> None:
        self._heuristic = heuristic
        self._grouping = grouping
        self._name = name or f"{grouping.name}/{heuristic.name}"
        self._optimizer = optimizer

    @property
    def name(self) -> str:
        """Display name of the policy."""
        return self._name

    @property
    def heuristic(self) -> ThresholdHeuristic:
        """The threshold heuristic in use."""
        return self._heuristic

    @property
    def grouping(self) -> GroupingStrategy:
        """The grouping strategy in use."""
        return self._grouping

    @property
    def optimizer(self) -> Optional[ThresholdOptimizer]:
        """The threshold optimizer in use (None = pure heuristic selection)."""
        return self._optimizer

    def compute_thresholds(
        self,
        training_distributions: Mapping[int, EmpiricalDistribution],
        grouping_statistic_percentile: float = DEFAULT_PERCENTILE,
    ) -> ThresholdAssignment:
        """Compute every host's threshold from per-host training distributions.

        Parameters
        ----------
        training_distributions:
            Per-host empirical distributions of the feature, built from the
            training week.
        grouping_statistic_percentile:
            The percentile of each host's training distribution used as the
            grouping statistic (the paper groups on the 99th percentile).
        """
        require(len(training_distributions) > 0, "training data must cover at least one host")
        statistics = {
            host_id: distribution.percentile(grouping_statistic_percentile)
            for host_id, distribution in training_distributions.items()
        }
        assignment = self._grouping.assign(statistics)
        group_thresholds = self._heuristic.thresholds_for_groups(
            [[training_distributions[host_id] for host_id in group] for group in assignment.groups]
        )
        return ThresholdAssignment(
            grouping=assignment,
            group_thresholds=tuple(group_thresholds),
            policy_name=self._name,
        )

    def assign(
        self,
        training_distributions: Mapping[Feature, Mapping[int, EmpiricalDistribution]],
        grouping_statistic_percentile: float = DEFAULT_PERCENTILE,
        fusion: Optional[FusionRule] = None,
        warm_start: Optional[DetectionAssignment] = None,
    ) -> DetectionAssignment:
        """Compute per-host thresholds for every feature of a detection protocol.

        Without an optimizer the per-feature thresholds are chosen
        independently from one training week: each feature's grouping
        statistic and group thresholds come from that feature's own training
        distributions (reusing the vectorized grid search of the
        utility/F-measure heuristics per feature).  With an optimizer,
        selection is delegated to it: the :class:`~repro.optimize.IndependentOptimizer`
        keeps the independent path bit for bit (scoring the fused objective
        only for reporting), while the joint optimizers co-optimise the whole
        per-feature threshold vector per group — one shared grouping built
        from the primary feature's statistics — against the fused utility
        under ``fusion``.

        Parameters
        ----------
        training_distributions:
            Per-feature, per-host empirical distributions built from the
            training week (see
            :func:`~repro.core.evaluation.detection_training_distributions`).
        grouping_statistic_percentile:
            The percentile of each host's training distribution used as the
            grouping statistic (the paper groups on the 99th percentile).
        fusion:
            The protocol's fusion rule, defining the fused objective the
            optimizer scores/maximises.  ``None`` (the heuristic-only
            default) means ``any``-fusion when an optimizer is present.
        warm_start:
            A previously computed :class:`DetectionAssignment` for the same
            feature set (e.g. last deployment's, during rolling
            re-optimisation).  Joint optimizers seed each group's candidate
            grids and starting vector from it when the groupings align;
            heuristic and independent selection ignore it (their answer does
            not depend on a starting point).
        """
        require(len(training_distributions) > 0, "training data must cover at least one feature")
        host_sets = {frozenset(dists) for dists in training_distributions.values()}
        require(len(host_sets) == 1, "every feature's training data must cover the same hosts")
        add_count("optimize.assignments")
        if self._optimizer is not None and self._optimizer.joint:
            return self._assign_jointly(
                training_distributions,
                grouping_statistic_percentile,
                self._optimizer.objective(fusion),
                warm_start=warm_start,
            )
        per_feature = {
            feature: self.compute_thresholds(
                distributions, grouping_statistic_percentile=grouping_statistic_percentile
            )
            for feature, distributions in training_distributions.items()
        }
        if self._optimizer is None:
            return DetectionAssignment(per_feature=per_feature, policy_name=self._name)
        # Independent selection: the heuristic path above IS the answer;
        # score its fused objective so the report stays comparable with the
        # joint optimizers.
        report = self._score_assignment(
            per_feature, training_distributions, self._optimizer.objective(fusion)
        )
        return DetectionAssignment(
            per_feature=per_feature, policy_name=self._name, optimization=report
        )

    def _assign_jointly(
        self,
        training_distributions: Mapping[Feature, Mapping[int, EmpiricalDistribution]],
        grouping_statistic_percentile: float,
        objective: FusedUtilityObjective,
        warm_start: Optional[DetectionAssignment] = None,
    ) -> DetectionAssignment:
        """Co-optimise every group's per-feature threshold vector in one call.

        One grouping — built from the *primary* (first) feature's grouping
        statistics, as the console would deploy it — is shared by every
        feature, and each group's whole threshold vector is chosen by the
        optimizer against the fused objective (seeded per group from
        ``warm_start`` when its grouping lines up with the new one).
        """
        features = tuple(training_distributions)
        primary = training_distributions[features[0]]
        statistics = {
            host_id: distribution.percentile(grouping_statistic_percentile)
            for host_id, distribution in primary.items()
        }
        grouping = self._grouping.assign(statistics)
        warm_vectors = self._warm_start_vectors(warm_start, features, grouping.num_groups)

        group_thresholds: Dict[Feature, List[float]] = {feature: [] for feature in features}
        total_iterations = 0
        weighted_objective = 0.0
        num_hosts = 0
        with trace_span(
            "optimize.joint", optimizer=self._optimizer.name, num_groups=grouping.num_groups
        ):
            groups = [
                [
                    {feature: training_distributions[feature][host_id] for feature in features}
                    for host_id in group
                ]
                for group in grouping.groups
            ]
            optimized_groups = self._optimizer.optimize_groups(
                groups, features, objective, self._heuristic, warm_starts=warm_vectors
            )
            for group, optimized in zip(grouping.groups, optimized_groups, strict=True):
                total_iterations += optimized.iterations
                # The group's objective value IS the mean member utility at the
                # chosen vector, so the population mean is the size-weighted mean
                # of the per-group values — no re-scoring needed.
                weighted_objective += optimized.objective_value * len(group)
                num_hosts += len(group)
                for feature in features:
                    group_thresholds[feature].append(optimized.thresholds[feature])
        add_count("optimize.iterations", total_iterations)
        logger.debug(
            "joint optimization (%s): %d group(s), %d iteration(s), objective %.4f",
            self._optimizer.name,
            grouping.num_groups,
            total_iterations,
            weighted_objective / num_hosts,
        )

        per_feature = {
            feature: ThresholdAssignment(
                grouping=grouping,
                group_thresholds=tuple(group_thresholds[feature]),
                policy_name=self._name,
            )
            for feature in features
        }
        report = OptimizationReport(
            optimizer=self._optimizer.name,
            objective_value=weighted_objective / num_hosts,
            iterations=total_iterations,
        )
        return DetectionAssignment(
            per_feature=per_feature, policy_name=self._name, optimization=report
        )

    @staticmethod
    def _warm_start_vectors(
        warm_start: Optional[DetectionAssignment],
        features: Tuple[Feature, ...],
        num_groups: int,
    ) -> Optional[List[Dict[Feature, float]]]:
        """Per-group warm-start vectors from a previous assignment, or None.

        The previous solution only transfers when it covers the same feature
        set and the same number of groups (the grouping strategies order
        groups deterministically, so index ``g`` is the "same" group across
        consecutive retrains even as membership shifts at the margins).
        """
        if warm_start is None or set(warm_start.features) != set(features):
            return None
        per_feature = {
            feature: warm_start.for_feature(feature).group_thresholds for feature in features
        }
        if any(len(values) != num_groups for values in per_feature.values()):
            return None
        return [
            {feature: float(per_feature[feature][index]) for feature in features}
            for index in range(num_groups)
        ]

    def _score_assignment(
        self,
        per_feature: Mapping[Feature, ThresholdAssignment],
        training_distributions: Mapping[Feature, Mapping[int, EmpiricalDistribution]],
        objective: FusedUtilityObjective,
    ) -> OptimizationReport:
        """Population mean of the per-host fused objective at the assignment.

        Used by the independent path, whose per-feature groupings carry no
        fused score of their own; computed the same way the joint path's
        group values aggregate, so the reported value is directly comparable
        across optimizers.  One kernel call scores every host at its own
        vector; the utilities are then summed per shared vector, in
        first-appearance order.
        """
        features = tuple(training_distributions)
        host_ids = next(iter(per_feature.values())).host_ids
        members = [
            {feature: training_distributions[feature][host_id] for feature in features}
            for host_id in host_ids
        ]
        vectors = np.stack([per_feature[feature].values for feature in features], axis=1)
        utilities = objective.bind(members, features).utilities(vectors[:, None, :])[0]
        by_vector: Dict[Tuple[float, ...], List[int]] = {}
        for index, vector in enumerate(map(tuple, vectors)):
            by_vector.setdefault(vector, []).append(index)
        total = sum(float(np.sum(utilities[indices])) for indices in by_vector.values())
        return OptimizationReport(
            optimizer=self._optimizer.name,
            objective_value=total / len(host_ids),
            iterations=0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ConfigurationPolicy({self._name})"


class HomogeneousPolicy(ConfigurationPolicy):
    """The monoculture policy: one global threshold for every host."""

    def __init__(
        self,
        heuristic: Optional[ThresholdHeuristic] = None,
        optimizer: Optional[ThresholdOptimizer] = None,
    ) -> None:
        super().__init__(
            heuristic=heuristic if heuristic is not None else PercentileHeuristic(),
            grouping=SingleGroupGrouping(),
            name="homogeneous",
            optimizer=optimizer,
        )


class FullDiversityPolicy(ConfigurationPolicy):
    """The full-diversity policy: every host computes its own threshold."""

    def __init__(
        self,
        heuristic: Optional[ThresholdHeuristic] = None,
        optimizer: Optional[ThresholdOptimizer] = None,
    ) -> None:
        super().__init__(
            heuristic=heuristic if heuristic is not None else PercentileHeuristic(),
            grouping=PerHostGrouping(),
            name="full-diversity",
            optimizer=optimizer,
        )


class PartialDiversityPolicy(ConfigurationPolicy):
    """The partial-diversity policy: a small number of per-group thresholds.

    Defaults to the paper's 8-group configuration (top 15% of hosts split
    into 4 groups, remaining 85% into 4 groups).
    """

    def __init__(
        self,
        heuristic: Optional[ThresholdHeuristic] = None,
        num_groups: int = 8,
        heavy_fraction: float = 0.15,
        optimizer: Optional[ThresholdOptimizer] = None,
    ) -> None:
        require(num_groups >= 2 and num_groups % 2 == 0, "num_groups must be an even number >= 2")
        grouping = QuantileSplitGrouping(
            heavy_fraction=heavy_fraction, groups_per_side=num_groups // 2
        )
        super().__init__(
            heuristic=heuristic if heuristic is not None else PercentileHeuristic(),
            grouping=grouping,
            name=f"{num_groups}-partial",
            optimizer=optimizer,
        )
