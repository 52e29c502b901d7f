"""Evaluation metrics: per-class/micro/macro F1, accuracy, rank-based ROC-AUC
with exportable curve points, and the regression triple (MAE, SD of absolute
error, percentage of errors under 5 mmHg)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from ..errors import InputError, UndefinedMetric

BP_ERROR_BOUND_MMHG = 5.0


@dataclass(frozen=True)
class ClassificationMetrics:
    f1_positive: float
    f1_negative: float
    macro_f1: float
    micro_f1: float
    accuracy: float
    roc_auc: float | None = None


@dataclass(frozen=True)
class RegressionMetrics:
    mae: float
    sd: float
    pct_within_5mmhg: float


def _check_binary(y: np.ndarray, what: str) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1:
        raise InputError(f"{what} must be 1-D")
    if y.size and not np.isin(np.unique(y), (0, 1)).all():
        raise InputError(f"{what} must contain only 0/1 labels")
    return y.astype(np.int64)


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def classification_metrics(y_true, y_pred, scores=None) -> ClassificationMetrics:
    """Binary classification metrics; positive class is 1 (stressed)."""
    y_true = _check_binary(y_true, "y_true")
    y_pred = _check_binary(y_pred, "y_pred")
    if y_true.shape != y_pred.shape:
        raise InputError(f"length mismatch: {y_true.size} vs {y_pred.size}")
    if y_true.size == 0:
        raise InputError("empty inputs")
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    f1_pos = _f1(tp, fp, fn)
    f1_neg = _f1(tn, fn, fp)
    # Micro-averaged F1 pools per-class counts; in single-label problems the
    # pooled false positives equal the pooled false negatives, so it reduces
    # to accuracy.
    micro_tp = tp + tn
    micro_fp = fp + fn
    micro_fn = fn + fp
    micro = _f1(micro_tp, micro_fp, micro_fn)
    auc = roc_auc(y_true, scores) if scores is not None else None
    return ClassificationMetrics(
        f1_positive=f1_pos,
        f1_negative=f1_neg,
        macro_f1=(f1_pos + f1_neg) / 2.0,
        micro_f1=micro,
        accuracy=(tp + tn) / y_true.size,
        roc_auc=auc,
    )


def roc_auc(y_true, scores) -> float:
    """Probability that a random positive outranks a random negative (ties 1/2)."""
    y_true = _check_binary(y_true, "y_true")
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape:
        raise InputError(f"length mismatch: {y_true.size} vs {scores.size}")
    n_pos = int(y_true.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("ROC-AUC needs both classes present")
    # Average ranks give tied pairs exactly half credit.
    ranks = rankdata(scores)
    rank_sum_pos = float(ranks[y_true == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_points(y_true, scores) -> list[tuple[float, float]]:
    """(FPR, TPR) staircase from (0,0) to (1,1), one step per distinct score."""
    y_true = _check_binary(y_true, "y_true")
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(y_true.sum())
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetric("ROC curve needs both classes present")
    order = np.argsort(-scores, kind="stable")
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        block = y_true[order[i : j + 1]]
        tp += int(block.sum())
        fp += int(block.size - block.sum())
        points.append((fp / n_neg, tp / n_pos))
        i = j + 1
    return points


def trapezoid_auc(points: list[tuple[float, float]]) -> float:
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def regression_metrics(y_true, y_pred) -> RegressionMetrics:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise InputError("y_true and y_pred must be equal-length 1-D arrays")
    if y_true.size == 0:
        raise InputError("empty inputs")
    abs_err = np.abs(y_pred - y_true)
    sd = float(abs_err.std(ddof=1)) if abs_err.size > 1 else 0.0
    return RegressionMetrics(
        mae=float(abs_err.mean()),
        sd=sd,
        pct_within_5mmhg=float(100.0 * np.mean(abs_err < BP_ERROR_BOUND_MMHG)),
    )
