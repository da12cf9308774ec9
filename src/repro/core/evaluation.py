"""Policy evaluation: the paper's weekly train/test protocol, feature-set first.

Thresholds are learned on one week of data and applied to the next (week 1
trains week 2, week 3 trains week 4).  On the test week the harness measures,
per host, the false-positive rate on benign traffic and — when an attack is
overlaid — the false-negative rate on attacked bins, then condenses the pair
into the per-host utility.  Aggregates across the population (mean utility,
alarm volume at the console, fraction of hosts raising an alarm) feed the
figure and table reproductions.

The evaluation API is built around feature *sets*: a
:class:`DetectionProtocol` names the monitored features and the
:class:`~repro.core.fusion.FusionRule` combining their per-bin alert
indicators, and :func:`evaluate_policy` measures both the per-feature
operating points and the fused per-host (FP, FN)/utility.

Measurement is vectorised: one kernel scores every host of a test-week bin
grid as whole ``(num_hosts, num_bins)`` array operations per feature —
threshold exceedance, attack overlay and fusion votes.  Every generated
population is one grid; hosts on different grids (clipped or shifted series)
are scored one grid at a time and joined in input order.  Training is one
sort of the same kind of ``(num_hosts, num_bins)`` block per feature-week.
A :class:`~repro.features.timeseries.PopulationFrame` (a population loaded
from a one-shard cache layout) is one grid, and both kernels read its
blocks as views of the mapped shard instead of stacking per-host rows.
Always-on naive attacks of many sizes are scored from one sorted test-week
block per grid instead (:func:`naive_false_negatives`).

The result is one :class:`HostPerformanceTable`: per-host results stay numpy
columns, which the population aggregates read directly, and a
:class:`HostPerformance` is built only when one host is looked up.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import AttackBuilder, VictimBatch
from repro.core.fusion import FusionRule
from repro.core.metrics import DEFAULT_UTILITY_WEIGHT, OperatingPoint, utility_from_rate_arrays
from repro.core.policies import ConfigurationPolicy, DetectionAssignment
from repro.core.thresholds import DEFAULT_PERCENTILE
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, PopulationFrame, TimeSeries
from repro.stats.empirical import EmpiricalDistribution
from repro.telemetry import add_count, trace_span
from repro.utils.timeutils import WEEK, BinSpec
from repro.utils.validation import ValidationError, require, require_probability

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DetectionProtocol:
    """Parameters of one train/test evaluation run over a feature set.

    Attributes
    ----------
    features:
        The monitored features, in evaluation order.  A single
        :class:`Feature` or any iterable of features is accepted and
        normalised to a tuple.
    fusion:
        The :class:`~repro.core.fusion.FusionRule` combining the per-feature
        alert indicators of each bin into the fused alarm.  The default
        (``any``) makes a one-feature protocol exactly the legacy
        single-feature evaluation.
    train_week, test_week:
        0-based week indices for learning and applying thresholds.
    utility_weight:
        The ``w`` used when condensing (FP, FN) into a utility.
    grouping_statistic_percentile:
        Percentile of the training distribution used as the grouping
        statistic for partial-diversity policies.
    train_on_active_bins:
        When True (the default, matching a Bro-style pipeline where a bin
        with no connections simply has no log entries), each host's training
        distribution is built from its *non-zero* bins only.  Mostly-idle
        laptops therefore learn thresholds from their active periods, which
        makes their personal thresholds conservative relative to a full week
        that includes idle time — one of the reasons measured test-week
        false-positive rates sit below the nominal 1% target.  Test-week
        rates are always measured over every bin.
    """

    features: Tuple[Feature, ...]
    fusion: FusionRule = field(default_factory=FusionRule)
    train_week: int = 0
    test_week: int = 1
    utility_weight: float = DEFAULT_UTILITY_WEIGHT
    grouping_statistic_percentile: float = DEFAULT_PERCENTILE
    train_on_active_bins: bool = True

    def __post_init__(self) -> None:
        features = self.features
        if isinstance(features, Feature):
            features = (features,)
        features = tuple(features)
        object.__setattr__(self, "features", features)
        require(len(features) > 0, "protocol must monitor at least one feature")
        require(all(isinstance(f, Feature) for f in features), "features must be Feature members")
        require(len(set(features)) == len(features), "features must be distinct")
        require(isinstance(self.fusion, FusionRule), "fusion must be a FusionRule")
        require(self.train_week >= 0, "train_week must be non-negative")
        require(self.test_week >= 0, "test_week must be non-negative")
        require(self.train_week != self.test_week, "train and test weeks must differ")
        require_probability(self.utility_weight, "utility_weight")

    @property
    def num_features(self) -> int:
        """Number of monitored features."""
        return len(self.features)

    @property
    def primary_feature(self) -> Feature:
        """The first monitored feature (the attack's default target)."""
        return self.features[0]

    @property
    def feature(self) -> Feature:
        """Single-feature convenience accessor (legacy call sites)."""
        require(
            len(self.features) == 1,
            "protocol.feature is only defined for single-feature protocols; use .features",
        )
        return self.features[0]


@dataclass(frozen=True)
class HostPerformance:
    """One host's measured performance under a policy on the test week.

    The per-feature view carries one operating point per monitored feature;
    the fused view applies the protocol's fusion rule to each bin's
    per-feature alert indicators and measures (FP, FN) on the fused alarms.
    For a single-feature protocol the two views coincide exactly.

    Attributes
    ----------
    host_id:
        The evaluated host.
    thresholds:
        The per-feature thresholds the policy assigned to this host.
    feature_operating_points:
        Measured per-feature (FP, FN) on the test week.
    feature_false_alarm_counts:
        Benign test bins raising a per-feature alert, per feature.
    feature_alarm_raised:
        Per-feature detection indicator: True when at least one bin attacked
        *in that feature* exceeded its threshold, False when attacked but
        never detected, None when that feature carried no attack traffic.
    operating_point:
        Fused (FP, FN) on the test week.
    false_alarm_count:
        Number of benign test bins raising the *fused* alarm (Table 3's raw
        ingredient).
    alarm_raised:
        True when at least one attacked bin raised the fused alarm
        (Figure 4(a)'s per-host indicator); False when an attack was present
        but never detected; None when no attack was overlaid.
    """

    host_id: int
    thresholds: Mapping[Feature, float]
    feature_operating_points: Mapping[Feature, OperatingPoint]
    feature_false_alarm_counts: Mapping[Feature, int]
    operating_point: OperatingPoint
    false_alarm_count: int
    alarm_raised: Optional[bool] = None
    feature_alarm_raised: Mapping[Feature, Optional[bool]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(len(self.thresholds) > 0, "performance must cover at least one feature")
        require(
            set(self.thresholds) == set(self.feature_operating_points),
            "thresholds and per-feature operating points must cover the same features",
        )

    @property
    def features(self) -> Tuple[Feature, ...]:
        """Monitored features."""
        return tuple(self.thresholds)

    @property
    def threshold(self) -> float:
        """Single-feature convenience: the only threshold in force."""
        require(
            len(self.thresholds) == 1,
            "performance.threshold is only defined for single-feature protocols; use .thresholds",
        )
        return float(next(iter(self.thresholds.values())))

    def threshold_of(self, feature: Feature) -> float:
        """Threshold in force for ``feature``."""
        return float(self.thresholds[feature])

    def feature_point(self, feature: Feature) -> OperatingPoint:
        """Per-feature operating point for ``feature``."""
        return self.feature_operating_points[feature]

    @property
    def false_positive_rate(self) -> float:
        """Fused benign-bin alarm rate."""
        return self.operating_point.false_positive_rate

    @property
    def false_negative_rate(self) -> float:
        """Fused missed-detection rate on attacked bins."""
        return self.operating_point.false_negative_rate

    @property
    def detection_rate(self) -> float:
        """``1 - FN`` of the fused alarm."""
        return self.operating_point.detection_rate

    def utility(self, weight: float = DEFAULT_UTILITY_WEIGHT) -> float:
        """Per-host utility of the fused alarm at ``weight``."""
        return self.operating_point.utility(weight)


def _frozen_column(values, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as a numpy column."""
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column


def _require_probability_column(column: np.ndarray, name: str) -> None:
    """:func:`require_probability` on every entry of ``column`` in one pass."""
    outside = ~((column >= 0.0) & (column <= 1.0))
    if outside.any():
        require_probability(float(column[np.argmax(outside)]), name)


@dataclass(frozen=True, eq=False)
class AlarmColumns:
    """One alarm's per-host results as columns, entry ``i`` for the table's ``i``-th host.

    The alarm is either one feature's detector or the protocol's fused alarm.

    Attributes
    ----------
    false_alarm_counts:
        Benign test bins raising the alarm.
    false_positive_rates, false_negative_rates:
        The alarm's (FP, FN) on the test week.  Each column is checked to hold
        probabilities when the columns are built, as :class:`OperatingPoint`
        checks one pair.
    attacked:
        Whether any test bin carried attack traffic for this alarm.  There the
        alarm was raised when FN is below 1 and missed when FN is 1; a host
        that was not attacked has FN 0.
    """

    false_alarm_counts: np.ndarray
    false_positive_rates: np.ndarray
    false_negative_rates: np.ndarray
    attacked: np.ndarray

    def __post_init__(self) -> None:
        dtypes = {
            "false_alarm_counts": np.int64,
            "false_positive_rates": float,
            "false_negative_rates": float,
            "attacked": bool,
        }
        for name, dtype in dtypes.items():
            object.__setattr__(self, name, _frozen_column(getattr(self, name), dtype))
        require(
            self.attacked.ndim == 1 and len({getattr(self, name).shape for name in dtypes}) == 1,
            "alarm columns must be 1-D and of equal length",
        )
        _require_probability_column(self.false_positive_rates, "false_positive_rate")
        _require_probability_column(self.false_negative_rates, "false_negative_rate")

    @classmethod
    def from_bin_counts(
        cls,
        false_alarm_counts: np.ndarray,
        num_bins: int,
        missed_bins: np.ndarray,
        attacked_bins: np.ndarray,
    ) -> "AlarmColumns":
        """Columns from per-host bin counts over a ``num_bins``-bin test week.

        FP is ``false_alarm_counts / num_bins`` and FN is ``missed_bins /
        attacked_bins`` (0 where no bin was attacked).  Dividing int64 columns
        rounds each quotient correctly, so both equal the per-host path's
        scalar ``int / int``.
        """
        counts = np.asarray(false_alarm_counts, dtype=np.int64)
        attacked = np.asarray(attacked_bins, dtype=np.int64)
        fn = np.zeros(counts.shape)
        np.divide(np.asarray(missed_bins, dtype=np.int64), attacked, out=fn, where=attacked > 0)
        return cls(counts, counts / num_bins, fn, attacked > 0)

    def utilities(self, weight: float) -> np.ndarray:
        """Per-host utility of this alarm at ``weight``."""
        return utility_from_rate_arrays(
            self.false_positive_rates, self.false_negative_rates, weight
        )

    def total_false_alarms(self) -> int:
        """Benign alarms summed over the hosts."""
        return int(self.false_alarm_counts.sum())

    def fraction_raising_alarm(self) -> float:
        """Fraction of attacked hosts whose alarm fired on an attacked bin.

        Hosts that were not attacked are left out of the denominator; 0.0 when
        no host was attacked.
        """
        if not self.attacked.any():
            return 0.0
        return float(np.mean(self.false_negative_rates[self.attacked] < 1.0))

    def point(self, index: int) -> OperatingPoint:
        """Entry ``index`` as an :class:`OperatingPoint`."""
        return OperatingPoint(
            false_positive_rate=float(self.false_positive_rates[index]),
            false_negative_rate=float(self.false_negative_rates[index]),
        )

    def alarm_raised(self, index: int) -> Optional[bool]:
        """Entry ``index``'s alarm: raised (True), missed (False) or not attacked (None)."""
        if not self.attacked[index]:
            return None
        return bool(self.false_negative_rates[index] < 1.0)


class HostPerformanceTable(Mapping[int, HostPerformance]):
    """Every host's measured performance on one test week, held as columns.

    A read-only mapping from host id to :class:`HostPerformance`, iterated in
    measurement order.  The results live in numpy columns: each feature's
    thresholds, one :class:`AlarmColumns` per feature and one for the fused
    alarm (the same object for a one-feature protocol).  Population
    aggregates read the columns; looking up one host builds its
    :class:`HostPerformance`.  A table equals any mapping holding the same
    :class:`HostPerformance` values.
    """

    def __init__(
        self,
        host_ids: Sequence[int],
        thresholds: Mapping[Feature, np.ndarray],
        feature_columns: Mapping[Feature, AlarmColumns],
        fused: AlarmColumns,
    ) -> None:
        self._host_ids = tuple(host_ids)
        self._index = {host_id: index for index, host_id in enumerate(self._host_ids)}
        self._thresholds = {
            feature: _frozen_column(values, float) for feature, values in thresholds.items()
        }
        self._feature_columns = dict(feature_columns)
        self._fused = fused
        require(len(self._index) == len(self._host_ids), "host ids must be distinct")
        shape = (len(self._host_ids),)
        require(
            all(column.shape == shape for column in self._thresholds.values())
            and all(alarm.attacked.shape == shape for alarm in (*feature_columns.values(), fused)),
            "every column must hold one entry per host",
        )

    @classmethod
    def concatenate(
        cls, tables: Sequence["HostPerformanceTable"], host_ids: Sequence[int]
    ) -> "HostPerformanceTable":
        """The rows of ``tables`` as one table, in ``host_ids`` order.

        The tables cover disjoint hosts and the same features.
        """
        position = {
            host_id: index
            for index, host_id in enumerate(h for table in tables for h in table.host_ids)
        }
        order = [position[host_id] for host_id in host_ids]

        def joined(columns: Sequence[np.ndarray]) -> np.ndarray:
            return np.concatenate(columns)[order]

        def joined_alarm(alarms: Sequence[AlarmColumns]) -> AlarmColumns:
            names = [column.name for column in fields(AlarmColumns)]
            return AlarmColumns(*(joined([getattr(a, name) for a in alarms]) for name in names))

        features = list(tables[0]._feature_columns)
        return cls(
            host_ids,
            thresholds={
                feature: joined([table._thresholds[feature] for table in tables])
                for feature in features
            },
            feature_columns={
                feature: joined_alarm([table.feature_columns(feature) for table in tables])
                for feature in features
            },
            fused=joined_alarm([table.fused for table in tables]),
        )

    @property
    def host_ids(self) -> Tuple[int, ...]:
        """Hosts in measurement order (the mapping's iteration order)."""
        return self._host_ids

    @property
    def fused(self) -> AlarmColumns:
        """Columns of the fused alarm."""
        return self._fused

    def feature_columns(self, feature: Feature) -> AlarmColumns:
        """Columns of one feature's detector."""
        return self._feature_columns[feature]

    def __len__(self) -> int:
        return len(self._host_ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._host_ids)

    def __contains__(self, host_id: object) -> bool:
        return host_id in self._index

    def __getitem__(self, host_id: int) -> HostPerformance:
        index = self._index[host_id]
        per_feature = self._feature_columns
        return HostPerformance(
            host_id=self._host_ids[index],
            thresholds={
                feature: float(column[index]) for feature, column in self._thresholds.items()
            },
            feature_operating_points={
                feature: columns.point(index) for feature, columns in per_feature.items()
            },
            feature_false_alarm_counts={
                feature: int(columns.false_alarm_counts[index])
                for feature, columns in per_feature.items()
            },
            operating_point=self._fused.point(index),
            false_alarm_count=int(self._fused.false_alarm_counts[index]),
            alarm_raised=self._fused.alarm_raised(index),
            feature_alarm_raised={
                feature: columns.alarm_raised(index) for feature, columns in per_feature.items()
            },
        )


@dataclass(frozen=True)
class PolicyEvaluation:
    """Population-wide outcome of evaluating one policy on one feature set.

    ``performances`` is the :class:`HostPerformanceTable` the measurement
    returned; the aggregates below read its columns.
    """

    policy_name: str
    protocol: DetectionProtocol
    assignment: DetectionAssignment
    performances: HostPerformanceTable

    def __post_init__(self) -> None:
        require(len(self.performances) > 0, "evaluation must cover at least one host")

    @property
    def host_ids(self) -> Tuple[int, ...]:
        """Evaluated hosts, sorted."""
        return tuple(sorted(self.performances))

    @property
    def features(self) -> Tuple[Feature, ...]:
        """The evaluated feature set."""
        return self.protocol.features

    @property
    def optimization(self):
        """Optimizer provenance of the threshold selection (None when heuristic-only).

        An :class:`~repro.optimize.OptimizationReport` carrying the optimizer
        name, the achieved fused-objective value and the convergence
        iteration count.
        """
        return self.assignment.optimization

    def _utility_column(self, weight: Optional[float]) -> np.ndarray:
        w = weight if weight is not None else self.protocol.utility_weight
        return self.performances.fused.utilities(w)

    def _by_host(self, column: np.ndarray) -> Dict[int, float]:
        return dict(zip(self.performances.host_ids, column.tolist(), strict=True))

    def utilities(self, weight: Optional[float] = None) -> Dict[int, float]:
        """Per-host fused utilities at ``weight`` (defaults to the protocol's weight)."""
        return self._by_host(self._utility_column(weight))

    def mean_utility(self, weight: Optional[float] = None) -> float:
        """Average fused utility across the population (Figure 3(b)'s y-axis)."""
        return float(np.mean(self._utility_column(weight)))

    def false_positive_rates(self) -> Dict[int, float]:
        """Per-host fused false-positive rates."""
        return self._by_host(self.performances.fused.false_positive_rates)

    def detection_rates(self) -> Dict[int, float]:
        """Per-host fused detection rates (1 - FN)."""
        return self._by_host(1.0 - self.performances.fused.false_negative_rates)

    def feature_operating_points(self, feature: Feature) -> Dict[int, OperatingPoint]:
        """Per-host operating points of one feature's detector."""
        columns = self.performances.feature_columns(feature)
        return {
            host_id: columns.point(index)
            for index, host_id in enumerate(self.performances.host_ids)
        }

    def total_false_alarms(self) -> int:
        """Total fused benign alarms across the population on the test week."""
        return self.performances.fused.total_false_alarms()

    def fraction_raising_alarm(self) -> float:
        """Fraction of hosts whose fused alarm fired on at least one attacked bin.

        Only meaningful when an attack was overlaid; hosts with no attack are
        excluded from the denominator.
        """
        return self.performances.fused.fraction_raising_alarm()


def training_distributions(
    matrices: Mapping[int, FeatureMatrix],
    feature: Feature,
    week: int,
    active_bins_only: bool = True,
) -> Dict[int, EmpiricalDistribution]:
    """Per-host empirical distributions of ``feature`` over training ``week``.

    With ``active_bins_only`` (the default) zero-count bins are excluded from
    the training distribution, matching a connection-log-driven pipeline; a
    host with no active bins at all falls back to its full (all-zero) series
    so that a threshold can still be computed.

    Only the requested feature is trained — a single-feature protocol never
    pays for the five features it does not train on.
    """
    return _train_blocks(matrices, (feature,), week, week + 1, active_bins_only)[feature]


def detection_training_distributions(
    matrices: Mapping[int, FeatureMatrix],
    features: Iterable[Feature],
    week: int,
    active_bins_only: bool = True,
) -> Dict[Feature, Dict[int, EmpiricalDistribution]]:
    """:func:`training_distributions` for every feature of a protocol."""
    return _train_blocks(matrices, features, week, week + 1, active_bins_only)


def detection_training_window_distributions(
    matrices: Mapping[int, FeatureMatrix],
    features: Iterable[Feature],
    start_week: int,
    end_week: int,
    active_bins_only: bool = True,
) -> Dict[Feature, Dict[int, EmpiricalDistribution]]:
    """Training distributions pooled over the contiguous weeks ``[start, end)``.

    The rolling-training-window form of
    :func:`detection_training_distributions`: re-optimisation schedules train
    on the last ``k`` completed weeks rather than a single fixed one.  A
    one-week window is bit-identical to the single-week helper (the slice is
    the same bins).  Out-of-range windows raise :class:`ValueError` as
    :meth:`~repro.features.timeseries.TimeSeries.week_range` does.
    """
    return _train_blocks(matrices, features, start_week, end_week, active_bins_only)


def _train_blocks(
    matrices: Mapping[int, FeatureMatrix],
    features: Iterable[Feature],
    start_week: int,
    end_week: int,
    active_bins_only: bool,
) -> Dict[Feature, Dict[int, EmpiricalDistribution]]:
    """The training kernel: per feature and bin grid, one sort of a ``(hosts, bins)`` block.

    Each host's distribution wraps its row of the sorted block without a
    copy.  With ``active_bins_only`` that row is its suffix after the last
    ``<= 0`` bin (a sorted row's positive bins), or the whole row when no bin
    is positive.  Each distribution equals, bit for bit, the constructor's
    over the host's own window (sorting a row sorts the same values).  Hosts
    come back in ``matrices`` order.
    """
    distributions: Dict[Feature, Dict[int, EmpiricalDistribution]] = {
        feature: {} for feature in features
    }
    for feature, trained in distributions.items():
        windows = list(_window_blocks(matrices, feature, start_week, end_week))
        for host_ids, width, window in windows:
            block = np.sort(window, axis=1)
            # Sorted rows put -inf first and +inf and NaN last.
            if not np.isfinite(block[:, [0, -1]]).all():
                raise ValidationError("samples must be finite")
            block.flags.writeable = False
            starts = np.zeros(len(host_ids), dtype=np.intp)
            if active_bins_only:
                starts = np.count_nonzero(block <= 0, axis=1)
                starts[starts == block.shape[1]] = 0
            # Tag the measurement bin width so grouping never silently pools
            # per-bin counts observed over incompatible windows.
            for row, (host_id, start) in enumerate(zip(host_ids, starts.tolist())):
                trained[host_id] = EmpiricalDistribution.from_sorted(block[row, start:], width)
        if len(windows) > 1:
            distributions[feature] = {host_id: trained[host_id] for host_id in matrices}
    return distributions


def evaluate_policy(
    matrices: Mapping[int, FeatureMatrix],
    policy: ConfigurationPolicy,
    protocol: DetectionProtocol,
    attack_builder: Optional[AttackBuilder] = None,
) -> PolicyEvaluation:
    """Run the full train/test evaluation of ``policy`` over a feature set.

    Parameters
    ----------
    matrices:
        Per-host benign feature matrices covering at least
        ``max(train_week, test_week) + 1`` weeks.
    policy:
        The configuration policy under evaluation; its thresholds are
        computed per feature from the same training week.
    protocol:
        Train/test weeks, the feature set, the fusion rule and the utility
        weight.
    attack_builder:
        Optional :data:`~repro.attacks.base.AttackBuilder` producing the
        amounts to overlay on every host's *test* week; it is handed each
        host's thresholds in force.  When None, only false positives are
        measured and the false-negative rate is reported as 0.
    """
    require(len(matrices) > 0, "matrices must cover at least one host")
    features = protocol.features

    with trace_span("core.evaluate", policy=policy.name, num_hosts=len(matrices)):
        with trace_span("core.train"):
            training = detection_training_distributions(
                matrices,
                features,
                protocol.train_week,
                active_bins_only=protocol.train_on_active_bins,
            )
        with trace_span("core.assign"):
            assignment = policy.assign(
                training,
                grouping_statistic_percentile=protocol.grouping_statistic_percentile,
                fusion=protocol.fusion,
            )

        performances = measure_assignment(
            matrices, assignment, protocol, attack_builder=attack_builder
        )
        logger.debug(
            "evaluated policy %s over %d host(s), %d feature(s)",
            policy.name,
            len(matrices),
            len(features),
        )

    return PolicyEvaluation(
        policy_name=policy.name,
        protocol=protocol,
        assignment=assignment,
        performances=performances,
    )


def measure_assignment(
    matrices: Mapping[int, FeatureMatrix],
    assignment,
    protocol: DetectionProtocol,
    attack_builder: Optional[AttackBuilder] = None,
    test_week: Optional[int] = None,
    attack_assignment=None,
) -> HostPerformanceTable:
    """Measure an already computed threshold assignment on one test week.

    This is the measurement half of :func:`evaluate_policy` (which is
    ``assign`` + ``measure``): given the per-feature
    :class:`~repro.core.policies.DetectionAssignment` in force, score every
    host's per-feature and fused (FP, FN) on ``test_week`` (defaults to the
    protocol's).  The timeline evaluator (:mod:`repro.temporal`) calls it
    once per deployed week, so a W-week timeline pays for training and
    threshold selection only when the schedule actually retrains — not once
    per week.

    ``attack_assignment`` optionally names a *different* assignment whose
    thresholds are handed to the attack builder: a mimicry attacker that
    profiled the deployment once keeps evading those stale thresholds even
    after the defender retrains (the schedule-tracking attacker passes the
    in-force assignment instead).  ``None`` hands the builder the measuring
    assignment's thresholds, exactly as the one-shot evaluation does.

    The result is a :class:`HostPerformanceTable` over the hosts of
    ``matrices``, in their order.  Hosts are scored one test-week bin grid at
    a time (see :func:`_grid_groups`); every generated population is a
    single grid.
    """
    require(len(matrices) > 0, "matrices must cover at least one host")
    week = protocol.test_week if test_week is None else int(test_week)
    require(week >= 0, "test_week must be non-negative")

    with trace_span("core.measure", num_hosts=len(matrices), test_week=week):
        add_count("core.host_weeks_measured", len(matrices))
        tables = [
            _measure_assignment_batched(
                matrices, host_ids, assignment, protocol, attack_builder, week, attack_assignment
            )
            for host_ids in _grid_groups(matrices, protocol.primary_feature)
        ]
        if len(tables) == 1:
            return tables[0]
        return HostPerformanceTable.concatenate(tables, list(matrices))


def naive_false_negatives(
    matrices: Mapping[int, FeatureMatrix],
    assignment,
    protocol: DetectionProtocol,
    sizes: Sequence[float],
) -> np.ndarray:
    """Each host's FN under an always-on naive attack of each size, as ``(hosts, sizes)``.

    Column ``j`` equals, bit for bit, the FN column :func:`measure_assignment`
    returns for the one-feature ``protocol`` under ``NaiveAttacker(feature,
    sizes[j]).builder()``; rows are C-contiguous, in ``matrices`` order.  A bin
    is missed where ``v + s <= t``, the kernel's own predicate, monotone along a
    sorted row: one sort per grid, then a binary search per (host, size).  (Not
    a search for ``t - s``: at ``v = 29``, ``s = 8.8`` and ``t = 37.8`` the bin
    is missed, but ``37.8 - 8.8 < 29``.)  Size 0 attacks no bin: its FN is 0.
    """
    require(protocol.num_features == 1, "naive_false_negatives needs a one-feature protocol")
    sizes = np.asarray(sizes, dtype=float)
    require(bool(np.all(sizes >= 0)), "attack sizes must be non-negative")
    feature, week = protocol.primary_feature, protocol.test_week
    position = {host_id: index for index, host_id in enumerate(matrices)}
    false_negatives = np.zeros((len(position), sizes.size))
    with trace_span("core.measure_sizes", num_hosts=len(matrices), num_sizes=sizes.size):
        for host_ids, _, block in _window_blocks(matrices, feature, week, week + 1):
            ordered = np.sort(block, axis=1)
            num_bins = ordered.shape[1]
            thresholds = _threshold_vector(assignment, feature, host_ids)[:, None]
            # Missed bins: the longest prefix of each sorted row that a size
            # leaves at or below the threshold, grown by halving steps.
            missed = np.zeros((len(host_ids), sizes.size), dtype=np.int64)
            step = 1 << (num_bins.bit_length() - 1)
            while step:
                grown = missed + step
                values = np.take_along_axis(ordered, np.minimum(grown, num_bins) - 1, axis=1)
                missed[(grown <= num_bins) & (values + sizes <= thresholds)] += step
                step >>= 1
            # int64 / int64, the division AlarmColumns.from_bin_counts does.
            rows = [position[host_id] for host_id in host_ids]
            false_negatives[rows] = np.where(sizes > 0, missed / num_bins, 0.0)
    return false_negatives


def _grid_groups(matrices: Mapping[int, FeatureMatrix], feature: Feature) -> List[Sequence[int]]:
    """Hosts grouped by bin grid: series length and :class:`BinSpec`, origin included.

    Hosts of one group share their week slice bounds, so one kernel pass
    reads them as one block.  A :class:`PopulationFrame` is one grid.
    """
    if isinstance(matrices, PopulationFrame):
        return [matrices.host_ids]
    groups: Dict[Tuple[int, BinSpec], List[int]] = {}
    for host_id, matrix in matrices.items():
        series = matrix.series(feature)
        groups.setdefault((series.num_bins, series.bin_spec), []).append(host_id)
    return list(groups.values())


def _window_blocks(
    matrices: Mapping[int, FeatureMatrix], feature: Feature, start_week: int, end_week: int
) -> Iterator[Tuple[Sequence[int], float, np.ndarray]]:
    """Per bin grid: its hosts, bin width, and ``feature`` over weeks ``[start, end)`` as a block.

    The window is checked once per grid, on one host: the hosts share it.
    """
    for host_ids in _grid_groups(matrices, feature):
        reference = matrices[host_ids[0]].series(feature)
        first, last = _window_bounds(reference, start_week, end_week)
        yield host_ids, reference.bin_width, _block(matrices, host_ids, feature, first, last)


def _window_bounds(series: TimeSeries, start_week: int, end_week: int) -> Tuple[int, int]:
    """The [first, last) bin indices :meth:`TimeSeries.week_range` slices.

    Raises as ``week_range`` does when ``series`` does not cover the window.
    """
    series.week_range(start_week, end_week)
    spec = series.bin_spec
    first = max(spec.index_of(start_week * WEEK), 0)
    last = min(spec.index_of(end_week * WEEK - 1e-9) + 1, series.num_bins)
    return first, last


def _threshold_vector(assignment, feature: Feature, host_ids: Sequence[int]) -> np.ndarray:
    """Per-host thresholds of ``feature`` as a ``(num_hosts,)`` vector.

    Read straight from the assignment's host -> threshold mapping (the floats
    ``threshold_of`` returns), without a method call per host.
    """
    thresholds = assignment.for_feature(feature).thresholds
    return np.fromiter(map(thresholds.__getitem__, host_ids), dtype=float, count=len(host_ids))


def _block(
    matrices: Mapping[int, FeatureMatrix],
    host_ids: Sequence[int],
    feature: Feature,
    first: int,
    last: int,
) -> np.ndarray:
    """Bins ``[first, last)`` of ``feature``, one row per host of ``host_ids``.

    A read-only view of a :class:`PopulationFrame` over exactly these hosts;
    otherwise the hosts' rows stacked into a new array.
    """
    if isinstance(matrices, PopulationFrame) and tuple(host_ids) == matrices.host_ids:
        return matrices.block(feature, first, last)
    return np.stack(
        [np.asarray(matrices[host_id].series(feature).values)[first:last] for host_id in host_ids]
    )


def _attack_amounts(
    builder: AttackBuilder,
    host_ids: Sequence[int],
    matrices: Mapping[int, FeatureMatrix],
    bin_spec: BinSpec,
    first: int,
    last: int,
    values: Dict[Feature, np.ndarray],
    attack_thresholds: Mapping[Feature, np.ndarray],
) -> Dict[Feature, np.ndarray]:
    """Per-feature ``(num_hosts, num_bins)`` amounts the builder injects.

    Amounts for features the protocol does not monitor are dropped.
    """
    num_bins = last - first

    def provider(feature: Feature) -> np.ndarray:
        if feature in values:
            return values[feature]
        return _block(matrices, host_ids, feature, first, last)

    batch = VictimBatch(
        host_ids=host_ids,
        bin_spec=bin_spec,
        num_bins=num_bins,
        thresholds=attack_thresholds,
        values_provider=provider,
    )
    amounts: Dict[Feature, np.ndarray] = {}
    for feature, rows in (builder(batch) or {}).items():
        if feature not in values:
            continue
        rows = np.asarray(rows, dtype=float)
        require(
            rows.shape == (len(host_ids), num_bins),
            "batch attack amounts must be (num_hosts, num_bins)",
        )
        amounts[feature] = rows
    return amounts


def _measure_assignment_batched(
    matrices: Mapping[int, FeatureMatrix],
    host_ids: Sequence[int],
    assignment,
    protocol: DetectionProtocol,
    builder: Optional[AttackBuilder],
    week: int,
    attack_assignment,
) -> HostPerformanceTable:
    """The measurement kernel: ``host_ids``, which share one bin grid, straight into columns.

    Every per-host quantity is computed as an array operation over
    ``(num_hosts, num_bins)`` blocks (views of a :class:`PopulationFrame`,
    which nothing here writes); each row equals, bit for bit, scoring that
    host alone (element-wise comparisons and additions are the same scalar
    operations, just batched).
    """
    features = protocol.features
    reference = matrices[host_ids[0]].series(features[0])
    # The hosts share one grid: one host's week check covers them all.
    first, last = _window_bounds(reference, week, week + 1)
    num_bins = last - first

    values: Dict[Feature, np.ndarray] = {
        feature: _block(matrices, host_ids, feature, first, last) for feature in features
    }
    thresholds: Dict[Feature, np.ndarray] = {
        feature: _threshold_vector(assignment, feature, host_ids) for feature in features
    }
    exceed: Dict[Feature, np.ndarray] = {
        feature: values[feature] > thresholds[feature][:, None] for feature in features
    }
    counts: Dict[Feature, np.ndarray] = {
        feature: np.count_nonzero(exceed[feature], axis=1) for feature in features
    }

    amounts: Dict[Feature, np.ndarray] = {}
    if builder is not None:
        if attack_assignment is None:
            attack_thresholds = thresholds
        else:
            attack_thresholds = {
                feature: _threshold_vector(attack_assignment, feature, host_ids)
                for feature in features
            }
        amounts = _attack_amounts(
            builder,
            host_ids,
            matrices,
            reference.bin_spec,
            first,
            last,
            values,
            attack_thresholds,
        )

    no_bins = np.zeros(len(host_ids), dtype=np.int64)
    feature_columns: Dict[Feature, AlarmColumns] = {}
    for feature in features:
        attacked_bins = missed_bins = no_bins
        if feature in amounts:
            attacked = amounts[feature] > 0
            attacked_bins = np.count_nonzero(attacked, axis=1)
            missed_bins = np.count_nonzero(
                ((values[feature] + amounts[feature]) <= thresholds[feature][:, None]) & attacked,
                axis=1,
            )
        feature_columns[feature] = AlarmColumns.from_bin_counts(
            counts[feature], num_bins, missed_bins, attacked_bins
        )

    if len(features) == 1:
        # Any fusion rule needs exactly 1 vote of 1: the fused alarm IS the
        # feature's detector.
        fused = feature_columns[features[0]]
    else:
        votes = np.zeros((len(host_ids), num_bins), dtype=np.int64)
        for feature in features:
            votes += exceed[feature]
        required = protocol.fusion.required_votes(len(features))
        fused_counts = np.count_nonzero(votes >= required, axis=1)
        fused_attacked_bins = fused_missed = no_bins
        if amounts:
            union = np.zeros((len(host_ids), num_bins), dtype=bool)
            for rows in amounts.values():
                union |= rows > 0
            fused_attacked_bins = np.count_nonzero(union, axis=1)
            attack_votes = np.zeros((len(host_ids), num_bins), dtype=np.int64)
            for feature in features:
                observed = (
                    values[feature] + amounts[feature]
                    if feature in amounts
                    else values[feature]
                )
                attack_votes += observed > thresholds[feature][:, None]
            fused_missed = np.count_nonzero((attack_votes < required) & union, axis=1)
        fused = AlarmColumns.from_bin_counts(
            fused_counts, num_bins, fused_missed, fused_attacked_bins
        )
    return HostPerformanceTable(host_ids, thresholds, feature_columns, fused)
