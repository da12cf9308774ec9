"""Statistical substrate.

Everything the detection core and workload generator need that would normally
be pulled from scipy/sklearn is implemented here explicitly: empirical
distributions and percentiles, tail-index estimation, summary statistics and
a small k-means implementation used by the grouping policies.
"""

from repro.stats.empirical import (
    EmpiricalDistribution,
    common_bin_width,
    ecdf,
)
from repro.stats.tail import hill_estimator, tail_ratio
from repro.stats.kmeans import KMeansResult, kmeans
from repro.stats.summary import SummaryStatistics, summarize

__all__ = [
    "EmpiricalDistribution",
    "common_bin_width",
    "ecdf",
    "hill_estimator",
    "tail_ratio",
    "KMeansResult",
    "kmeans",
    "SummaryStatistics",
    "summarize",
]
