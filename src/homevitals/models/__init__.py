"""From-scratch learners and metrics: CART trees, random forest, MLP and
AdaBoost.R2 regressors, subject-wise splitting, and the evaluation suite."""

from .boosting import AdaBoostR2
from .forest import RandomForestClassifier
from .metrics import (
    BP_ERROR_BOUND_MMHG,
    ClassificationMetrics,
    RegressionMetrics,
    classification_metrics,
    regression_metrics,
    roc_auc,
    roc_points,
    trapezoid_auc,
)
from .mlp import MlpRegressor
from .serialize import (
    canonical_json,
    check_feature_schema,
    document_version,
    dumps_model,
    load_document,
    model_document,
)
from .split import subject_split
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "AdaBoostR2",
    "BP_ERROR_BOUND_MMHG",
    "ClassificationMetrics",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "MlpRegressor",
    "RandomForestClassifier",
    "RegressionMetrics",
    "canonical_json",
    "check_feature_schema",
    "classification_metrics",
    "document_version",
    "dumps_model",
    "load_document",
    "model_document",
    "regression_metrics",
    "roc_auc",
    "roc_points",
    "subject_split",
    "trapezoid_auc",
]
