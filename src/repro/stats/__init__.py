"""Statistical substrate.

Everything the detection core and workload generator need that would normally
be pulled from scipy/sklearn is implemented here explicitly: empirical
distributions and percentiles, tail spread, summary statistics and
a small k-means implementation used by the grouping policies.
"""

from repro.stats.empirical import EmpiricalDistribution, common_bin_width
from repro.stats.tail import tail_ratio
from repro.stats.kmeans import KMeansResult, kmeans
from repro.stats.summary import SummaryStatistics, summarize

__all__ = [
    "EmpiricalDistribution",
    "common_bin_width",
    "tail_ratio",
    "KMeansResult",
    "kmeans",
    "SummaryStatistics",
    "summarize",
]
