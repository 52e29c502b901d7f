"""Subject-wise train/test splitting: partitions whole subjects so no subject
contributes rows to both sides, hitting the closest achievable row fraction."""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SplitImpossible

if TYPE_CHECKING:  # pragma: no cover
    from ..features.vectors import FeatureMatrix


def subject_split(
    matrix: "FeatureMatrix", test_fraction: float = 0.25, seed: int = 0
) -> tuple["FeatureMatrix", "FeatureMatrix"]:
    """Shuffle subjects, then take the prefix whose row count lands closest to
    the target test fraction (at least one subject on each side)."""
    rows_of = Counter(matrix.subject_ids)  # in first-seen order
    subjects = list(rows_of)
    if len(subjects) < 2:
        raise SplitImpossible(f"need >= 2 subjects, got {len(subjects)}")
    if not 0.0 < test_fraction < 1.0:
        raise SplitImpossible(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    order = [subjects[i] for i in rng.permutation(len(subjects))]
    total = len(matrix)
    best_k, best_gap = 1, float("inf")
    cum = 0
    for k, sid in enumerate(order[:-1], start=1):  # leave >= 1 subject for train
        cum += rows_of[sid]
        gap = abs(cum / total - test_fraction)
        if gap < best_gap:
            best_k, best_gap = k, gap
    test_subjects = set(order[:best_k])
    test_idx = [i for i, s in enumerate(matrix.subject_ids) if s in test_subjects]
    train_idx = [i for i, s in enumerate(matrix.subject_ids) if s not in test_subjects]
    return matrix.select_rows(train_idx), matrix.select_rows(test_idx)
