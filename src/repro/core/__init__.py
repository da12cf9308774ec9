"""Core contribution: HIDS configuration policies and their evaluation.

A *policy* pairs a threshold-selection heuristic with a grouping method:

* **Homogeneous** (monoculture): every host gets the global threshold
  computed from the pooled population distribution — today's IT practice.
* **Full diversity**: every host computes its own threshold locally.
* **Partial diversity**: hosts are partitioned into a small number of groups
  (8 in the paper), one threshold per group.

The evaluation machinery measures, for each host, the false-positive /
false-negative operating point, the per-host utility
``U = 1 - [w * FN + (1 - w) * FP]``, alarm volumes at the central IT console,
and how much traffic attackers can hide under each policy.
"""

from repro.core.thresholds import (
    FMeasureHeuristic,
    MeanStdHeuristic,
    PercentileHeuristic,
    ThresholdHeuristic,
    UtilityHeuristic,
)
from repro.core.grouping import (
    GroupAssignment,
    GroupingStrategy,
    PerHostGrouping,
    QuantileSplitGrouping,
    SingleGroupGrouping,
)
from repro.core.policies import (
    ConfigurationPolicy,
    DetectionAssignment,
    FullDiversityPolicy,
    HomogeneousPolicy,
    PartialDiversityPolicy,
    ThresholdAssignment,
)
from repro.core.fusion import FUSION_RULES, FusionRule
from repro.core.metrics import OperatingPoint, utility
from repro.core.evaluation import (
    DetectionProtocol,
    HostPerformance,
    HostPerformanceTable,
    PolicyEvaluation,
    detection_training_distributions,
    detection_training_window_distributions,
    evaluate_policy,
    measure_assignment,
    training_distributions,
)
from repro.core.experiment import ExperimentContext, PolicyComparison
from repro.core.sampling import SampleSpec, bootstrap_mean_interval, sample_host_ids

__all__ = [
    "ThresholdHeuristic",
    "PercentileHeuristic",
    "MeanStdHeuristic",
    "FMeasureHeuristic",
    "UtilityHeuristic",
    "GroupingStrategy",
    "GroupAssignment",
    "SingleGroupGrouping",
    "PerHostGrouping",
    "QuantileSplitGrouping",
    "ConfigurationPolicy",
    "HomogeneousPolicy",
    "FullDiversityPolicy",
    "PartialDiversityPolicy",
    "ThresholdAssignment",
    "OperatingPoint",
    "utility",
    "FusionRule",
    "FUSION_RULES",
    "DetectionAssignment",
    "DetectionProtocol",
    "HostPerformance",
    "HostPerformanceTable",
    "PolicyEvaluation",
    "evaluate_policy",
    "measure_assignment",
    "training_distributions",
    "detection_training_distributions",
    "detection_training_window_distributions",
    "ExperimentContext",
    "PolicyComparison",
    "SampleSpec",
    "bootstrap_mean_interval",
    "sample_host_ids",
]
