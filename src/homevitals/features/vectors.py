"""Feature containers: feature matrices held as one array (a row per window
or segment, a column per catalog name) with each row's subject id and an
optional label column, and selection results.

Feature names are the stable public contract: model artifacts record them and
queries check them before predicting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import InputError


class FeatureMatrix:
    """Read-only float64 X (a row per window or segment, a column per name),
    each row's subject id and optional read-only labels, held as arrays."""

    def __init__(
        self,
        names: Sequence[str],
        X: np.ndarray,
        subject_ids: Sequence[str],
        labels: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        names, subject_ids = tuple(names), tuple(subject_ids)
        X = np.array(X, dtype=np.float64)
        if X.ndim != 2:
            raise InputError(f"X must be 2-D, got shape {X.shape}")
        if len(set(names)) != len(names):
            raise InputError("feature names must be unique")
        if X.shape[1] != len(names):
            raise InputError(f"X has {X.shape[1]} columns for {len(names)} names")
        if len(subject_ids) != X.shape[0]:
            raise InputError(f"{len(subject_ids)} subject ids for {X.shape[0]} rows")
        if not all(subject_ids):
            raise InputError("subject ids must be non-empty")
        bad = ~np.isfinite(X)
        if bad.any():
            name = names[int(np.flatnonzero(bad)[0]) % X.shape[1]]
            raise InputError(f"non-finite feature value for '{name}'")
        self._set(names, X, subject_ids, labels)

    def _set(self, names, X: np.ndarray, subject_ids: tuple[str, ...], labels) -> None:
        """Hold X, which nothing else writes to, and a copy of the labels."""
        if not subject_ids:
            raise InputError("feature matrix needs at least one row")
        if labels is not None:
            labels = np.array(labels, dtype=np.float64)
            if labels.shape != (len(subject_ids),):
                raise InputError(
                    f"labels length {labels.size} does not match {len(subject_ids)} rows"
                )
            labels.setflags(write=False)
        X.setflags(write=False)
        self.names, self.X, self.subject_ids, self.labels = tuple(names), X, subject_ids, labels

    @classmethod
    def _of(cls, names, X: np.ndarray, subject_ids: tuple[str, ...], labels) -> "FeatureMatrix":
        matrix = cls.__new__(cls)
        matrix._set(names, X, subject_ids, labels)
        return matrix

    def __len__(self) -> int:
        return len(self.subject_ids)

    def with_labels(self, labels: Sequence[float] | np.ndarray) -> "FeatureMatrix":
        return self._of(self.names, self.X, self.subject_ids, labels)

    def select_rows(self, indices: Sequence[int] | np.ndarray) -> "FeatureMatrix":
        idx = list(indices)
        labels = None if self.labels is None else self.labels[idx]
        return self._of(self.names, self.X[idx], tuple(self.subject_ids[i] for i in idx), labels)

    def select_columns(self, names: Sequence[str]) -> "FeatureMatrix":
        names = tuple(names)
        missing = [n for n in names if n not in self.names]
        if missing:
            raise InputError(f"unknown feature names: {missing}")
        if len(set(names)) != len(names):
            raise InputError("feature names must be unique")
        cols = [self.names.index(n) for n in names]
        # take() keeps X C-contiguous, as X[:, cols] would not.
        return self._of(names, self.X.take(cols, axis=1), self.subject_ids, self.labels)

    @staticmethod
    def concat(parts: Iterable["FeatureMatrix"]) -> "FeatureMatrix":
        parts = list(parts)
        if not parts:
            raise InputError("nothing to concatenate")
        labeled = parts[0].labels is not None
        for p in parts:
            if (p.labels is not None) != labeled:
                raise InputError("cannot mix labeled and unlabeled matrices")
            if p.names != parts[0].names:
                raise InputError("all rows must share one feature-name list")
        return FeatureMatrix._of(
            parts[0].names,
            np.concatenate([p.X for p in parts]),
            tuple(sid for p in parts for sid in p.subject_ids),
            np.concatenate([p.labels for p in parts]) if labeled else None,
        )


@dataclass(frozen=True)
class SelectionResult:
    """Ranked feature names (best first) with aligned scores and the chosen subset."""

    ranked_names: tuple[str, ...]
    scores: tuple[float, ...]
    selected: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.ranked_names) != len(self.scores):
            raise InputError("ranked_names and scores must align")
        if not set(self.selected) <= set(self.ranked_names):
            raise InputError("selected must be a subset of ranked_names")
        if any(a < b for a, b in zip(self.scores, self.scores[1:])):
            raise InputError("scores must be non-increasing in rank order")
