"""Supervised feature selection over a labeled matrix.

Each feature gets a two-sided Mann-Whitney U test between the classes; the
p-values are Benjamini-Hochberg corrected at BH_ALPHA and every surviving
feature is selected, ranked by p-value. The experiments report the selected
count per channel combination; the models train on every column.

The U test is rank-based, so the ranking is invariant under any strictly
monotone per-feature rescaling.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import rankdata

from ..errors import InputError, LabelMissing
from .vectors import FeatureMatrix, SelectionResult

BH_ALPHA = 0.05


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(group_a: np.ndarray, group_b: np.ndarray) -> tuple[float, float]:
    """Two-sided U test via the normal approximation with tie correction.

    Returns (U statistic of group_a, p-value). Matches the asymptotic method
    with continuity correction.
    """
    a = np.asarray(group_a, dtype=np.float64)
    b = np.asarray(group_b, dtype=np.float64)
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        raise InputError("both groups must be non-empty")
    combined = np.concatenate([a, b])
    r1 = float(rankdata(combined)[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    n = n1 + n2
    tie_sizes = np.unique(combined, return_counts=True)[1]
    tie_term = int((tie_sizes**3 - tie_sizes).sum())
    variance = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:  # all values identical
        return u1, 1.0
    mean = n1 * n2 / 2.0
    u_big = max(u1, n1 * n2 - u1)
    z = (u_big - mean - 0.5) / math.sqrt(variance)
    return u1, min(1.0, 2.0 * _normal_sf(z))


def benjamini_hochberg(p_values: np.ndarray, alpha: float = BH_ALPHA) -> np.ndarray:
    """Boolean mask of discoveries at false-discovery rate alpha."""
    p = np.asarray(p_values, dtype=np.float64)
    m = p.size
    order = np.argsort(p, kind="stable")
    keep = np.zeros(m, dtype=bool)
    max_i = -1
    for rank, idx in enumerate(order, start=1):
        if p[idx] <= rank / m * alpha:
            max_i = rank
    if max_i >= 0:
        keep[order[:max_i]] = True
    return keep


def select_features(matrix: FeatureMatrix) -> SelectionResult:
    if matrix.labels is None:
        raise LabelMissing("feature selection needs a labeled matrix")
    X = matrix.X
    y = matrix.labels.astype(np.int64)
    names = matrix.names
    mask0 = y == 0
    mask1 = y == 1
    if not mask0.any() or not mask1.any():
        raise LabelMissing("feature selection needs both classes present")
    p_values = np.array(
        [mann_whitney_u(X[mask1, j], X[mask0, j])[1] for j in range(len(names))]
    )
    keep = benjamini_hochberg(p_values)
    order = np.argsort(p_values, kind="stable")
    ranked = tuple(names[i] for i in order)
    scores = tuple(float(1.0 - p_values[i]) for i in order)
    selected = tuple(names[i] for i in order if keep[i])
    return SelectionResult(ranked_names=ranked, scores=scores, selected=selected)
