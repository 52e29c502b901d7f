"""Cortisol-anchored stress labels.

Each analysis window maps to the first cortisol timepoint at or after its
midpoint, because cortisol lags the stressor; windows past the last sample
map to it. A window is labeled stressed when that sample's concentration is
at least (1 + threshold) times the subject's T1 baseline.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BaselineMissing, InputError
from .signals.series import Window, read_csv_table, write_csv_table

log = logging.getLogger(__name__)

TIMEPOINT_SPACING_MS = 20 * 60 * 1000
TIMEPOINT_SPACING_TOLERANCE_MS = 60 * 1000


class Timepoint(Enum):
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"


class StressState(Enum):
    NOT_STRESSED = 0
    STRESSED = 1


class Phase(Enum):
    WAITING = "Waiting"
    PRE_STRESS = "PreStress"
    ANTICIPATORY_STRESS = "AnticipatoryStress"
    STRESS = "Stress"
    RECOVERY_1 = "Recovery1"
    RECOVERY_2 = "Recovery2"


@dataclass(frozen=True)
class CortisolSample:
    subject_id: str
    timepoint: Timepoint
    t_ms: int
    concentration_ugdl: float

    def __post_init__(self) -> None:
        if not self.subject_id:
            raise InputError("subject_id must be non-empty")
        if not 0 <= self.concentration_ugdl < np.inf:
            raise InputError("concentration must be non-negative and finite")


@dataclass(frozen=True)
class SessionTimeline:
    """Phase boundaries in epoch ms; recording spans PreStress..Recovery1."""

    boundaries: tuple[tuple[Phase, int], ...]

    def __post_init__(self) -> None:
        times = [t for _, t in self.boundaries]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise InputError("phase boundaries must be strictly increasing")

    def start_of(self, phase: Phase) -> int:
        for p, t in self.boundaries:
            if p == phase:
                return t
        raise InputError(f"phase {phase} not in timeline")

    def end_of(self, phase: Phase) -> int:
        found = False
        for p, t in self.boundaries:
            if found:
                return t
            found = p == phase
        raise InputError(f"phase {phase} has no successor boundary")

    @property
    def recording_span_ms(self) -> tuple[int, int]:
        return self.start_of(Phase.PRE_STRESS), self.end_of(Phase.RECOVERY_1)


@dataclass(frozen=True)
class StressLabel:
    window_index: int
    label: StressState
    source_timepoint: Timepoint


@dataclass(frozen=True)
class LabelRule:
    """Stressed when concentration >= baseline * (1 + threshold)."""

    threshold: float = 0.10

    def __post_init__(self) -> None:
        if not 0 <= self.threshold < np.inf:
            raise InputError(f"threshold must be non-negative and finite, got {self.threshold}")


def check_session_samples(samples: Sequence[CortisolSample]) -> list[CortisolSample]:
    """Validate one subject's samples: unique timepoints, ~20 min spacing."""
    if not samples:
        raise InputError("no cortisol samples")
    subjects = {s.subject_id for s in samples}
    if len(subjects) != 1:
        raise InputError(f"samples span multiple subjects: {sorted(subjects)}")
    seen = [s.timepoint for s in samples]
    if len(set(seen)) != len(seen):
        raise InputError("duplicate timepoints for subject")
    ordered = sorted(samples, key=lambda s: list(Timepoint).index(s.timepoint))
    for a, b in zip(ordered, ordered[1:]):
        gap = b.t_ms - a.t_ms
        if abs(gap - TIMEPOINT_SPACING_MS) > TIMEPOINT_SPACING_TOLERANCE_MS:
            raise InputError(
                f"{a.timepoint.value}->{b.timepoint.value} gap {gap / 60000:.1f} min "
                "is not 20 min +- 60 s"
            )
    return ordered


def label_windows(
    samples: Sequence[CortisolSample],
    windows: Sequence[Window],
    rule: LabelRule | None = None,
) -> list[StressLabel]:
    """One label per window; windows past the last sample map to it."""
    rule = rule or LabelRule()
    ordered = check_session_samples(samples)
    if len(ordered) < 2:
        raise InputError("need at least 2 cortisol samples per subject")
    baseline = next((s for s in ordered if s.timepoint == Timepoint.T1), None)
    if baseline is None:
        raise BaselineMissing("subject has no T1 baseline sample")

    labels: list[StressLabel] = []
    for w in windows:
        mid = w.midpoint_ms
        anchor = next((s for s in ordered if s.t_ms >= mid), ordered[-1])
        stressed = anchor.concentration_ugdl >= baseline.concentration_ugdl * (
            1.0 + rule.threshold
        )
        labels.append(
            StressLabel(
                window_index=w.index,
                label=StressState.STRESSED if stressed else StressState.NOT_STRESSED,
                source_timepoint=anchor.timepoint,
            )
        )
    return labels


def labels_to_targets(labels: Sequence[StressLabel]) -> np.ndarray:
    return np.asarray([l.label.value for l in labels], dtype=np.int64)


CORTISOL_CSV_HEADER = ("subject_id", "timepoint", "t_ms", "concentration_ugdl")


def _cortisol_row(row: list[str]) -> CortisolSample:
    return CortisolSample(row[0], Timepoint(row[1]), int(row[2]), float(row[3]))


def save_cortisol_csv(samples: Sequence[CortisolSample], path: str | Path) -> None:
    rows = ((s.subject_id, s.timepoint.value, s.t_ms, float(s.concentration_ugdl)) for s in samples)
    write_csv_table(path, CORTISOL_CSV_HEADER, rows)


def load_cortisol_csv(path: str | Path) -> list[CortisolSample]:
    return read_csv_table(path, CORTISOL_CSV_HEADER, _cortisol_row)
