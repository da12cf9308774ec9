"""Feature extraction (Bro-lite).

The paper tracks six additive traffic features per host (Table 1), counted in
fixed-width time bins.  This package defines those features, extracts them
from connection records, and provides the binned time-series containers the
detection core operates on.
"""

from repro.features.definitions import (
    Feature,
    FeatureDefinition,
    FEATURES,
    PAPER_FEATURES,
)
from repro.features.timeseries import FeatureMatrix, PopulationFrame, TimeSeries
from repro.features.extractor import FeatureExtractor, extract_feature_matrix

__all__ = [
    "Feature",
    "FeatureDefinition",
    "FEATURES",
    "PAPER_FEATURES",
    "TimeSeries",
    "FeatureMatrix",
    "PopulationFrame",
    "FeatureExtractor",
    "extract_feature_matrix",
]
