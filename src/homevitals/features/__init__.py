"""Feature catalogs and extractors for the stress and blood-pressure models."""

from .pressure import (
    BP_FEATURE_NAMES,
    BP_REDUCED_NAMES,
    MIN_SEGMENT_S,
    STAT_NAMES,
    STREAM_NAMES,
    bp_feature_vector,
    bp_reduced_features,
)
from .selection import (
    BH_ALPHA,
    benjamini_hochberg,
    mann_whitney_u,
    select_features,
)
from .stress import (
    BVP_FEATURE_NAMES,
    CHANNEL_COMBINATIONS,
    EDA_FEATURE_NAMES,
    IBI_FEATURE_NAMES,
    ST_FEATURE_NAMES,
    bvp_features,
    eda_features,
    ibi_features,
    st_features,
    stress_feature_matrix,
)
from .vectors import FeatureMatrix, SelectionResult

__all__ = [
    "BH_ALPHA",
    "BP_FEATURE_NAMES",
    "BP_REDUCED_NAMES",
    "BVP_FEATURE_NAMES",
    "CHANNEL_COMBINATIONS",
    "EDA_FEATURE_NAMES",
    "FeatureMatrix",
    "IBI_FEATURE_NAMES",
    "MIN_SEGMENT_S",
    "ST_FEATURE_NAMES",
    "STAT_NAMES",
    "STREAM_NAMES",
    "SelectionResult",
    "benjamini_hochberg",
    "bp_feature_vector",
    "bp_reduced_features",
    "bvp_features",
    "eda_features",
    "ibi_features",
    "mann_whitney_u",
    "select_features",
    "st_features",
    "stress_feature_matrix",
]
