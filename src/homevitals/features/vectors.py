"""Feature containers: named per-window/per-segment vectors, rectangular
matrices with subject provenance, and selection results.

Feature names are the stable public contract: model artifacts record them and
queries check them before predicting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import InputError


@dataclass(frozen=True)
class FeatureVector:
    subject_id: str
    origin: str
    names: tuple[str, ...]
    values: np.ndarray
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64).copy()
        if values.ndim != 1 or values.size != len(self.names):
            raise InputError(
                f"feature vector has {values.size} values for {len(self.names)} names"
            )
        if len(set(self.names)) != len(self.names):
            raise InputError("feature names must be unique")
        if values.size and not np.all(np.isfinite(values)):
            bad = self.names[int(np.flatnonzero(~np.isfinite(values))[0])]
            raise InputError(f"non-finite feature value for '{bad}'")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "flags", tuple(self.flags))

    def __getitem__(self, name: str) -> float:
        try:
            return float(self.values[self.names.index(name)])
        except ValueError as exc:
            raise KeyError(name) from exc

    @staticmethod
    def concat(parts: Sequence["FeatureVector"]) -> "FeatureVector":
        if not parts:
            raise InputError("nothing to concatenate")
        first = parts[0]
        names: list[str] = []
        flags: list[str] = []
        for p in parts:
            if p.subject_id != first.subject_id or p.origin != first.origin:
                raise InputError("cannot concatenate vectors from different origins")
            names.extend(p.names)
            flags.extend(p.flags)
        return FeatureVector(
            subject_id=first.subject_id,
            origin=first.origin,
            names=tuple(names),
            values=np.concatenate([p.values for p in parts]),
            flags=tuple(dict.fromkeys(flags)),
        )


class FeatureMatrix:
    """Rectangular collection of FeatureVectors plus an optional label/target column."""

    def __init__(
        self,
        rows: Sequence[FeatureVector],
        labels: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        rows = list(rows)
        if not rows:
            raise InputError("feature matrix needs at least one row")
        names = rows[0].names
        for r in rows:
            if r.names != names:
                raise InputError("all rows must share one feature-name list")
            if not r.subject_id:
                raise InputError("subject ids must be non-empty")
        self._names = names
        self._rows = rows
        self._X = np.vstack([r.values for r in rows])
        self._X.setflags(write=False)
        if labels is not None:
            labels = np.asarray(labels, dtype=np.float64).copy()
            if labels.shape != (len(rows),):
                raise InputError(
                    f"labels length {labels.size} does not match {len(rows)} rows"
                )
            labels.setflags(write=False)
        self._labels = labels

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def X(self) -> np.ndarray:
        return self._X

    @property
    def labels(self) -> np.ndarray | None:
        return self._labels

    @property
    def subject_ids(self) -> list[str]:
        return [r.subject_id for r in self._rows]

    @property
    def rows(self) -> list[FeatureVector]:
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def with_labels(self, labels: Sequence[float]) -> "FeatureMatrix":
        return FeatureMatrix(self._rows, labels)

    def select_rows(self, indices: Sequence[int] | np.ndarray) -> "FeatureMatrix":
        idx = list(indices)
        labels = None if self._labels is None else self._labels[idx]
        return FeatureMatrix([self._rows[i] for i in idx], labels)

    def select_columns(self, names: Sequence[str]) -> "FeatureMatrix":
        missing = [n for n in names if n not in self._names]
        if missing:
            raise InputError(f"unknown feature names: {missing}")
        cols = [self._names.index(n) for n in names]
        rows = [
            FeatureVector(r.subject_id, r.origin, tuple(names), r.values[cols], r.flags)
            for r in self._rows
        ]
        return FeatureMatrix(rows, self._labels)

    @staticmethod
    def concat(parts: Iterable["FeatureMatrix"]) -> "FeatureMatrix":
        parts = list(parts)
        if not parts:
            raise InputError("nothing to concatenate")
        rows: list[FeatureVector] = []
        labels: list[np.ndarray] = []
        has_labels = parts[0].labels is not None
        for p in parts:
            if (p.labels is not None) != has_labels:
                raise InputError("cannot mix labeled and unlabeled matrices")
            rows.extend(p.rows)
            if has_labels:
                labels.append(p.labels)
        return FeatureMatrix(rows, np.concatenate(labels) if has_labels else None)


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
