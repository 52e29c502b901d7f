"""Labeled training rows and the model settings, one way for the service
trainers and the offline experiments: cortisol-labeled stress windows, and
fixed-length PPG segments with the mean SBP/DBP over each segment's time span.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateTraining, InputError
from .features import BP_REDUCED_NAMES, FeatureMatrix, bp_reduced_features, stress_feature_matrix
from .labeling import CortisolSample, LabelRule, label_windows, labels_to_targets
from .signals import MS_PER_S, ChannelBundle, SampleSeries, WindowSpec, make_windows

# The stress forest, each BP regression tree (alone or boosted), the BP
# boosting rounds, and the length of the BP segments trained on and queried.
FOREST_PARAMS = {"n_trees": 100, "max_depth": 12, "min_samples_leaf": 3}
BP_TREE_PARAMS = {"max_depth": 12, "min_samples_leaf": 3}
BP_BOOST_ROUNDS = 30
BP_SEGMENT_S = 40.0


def stress_rows(
    bundle: ChannelBundle,
    samples: Sequence[CortisolSample],
    spec: WindowSpec,
    rule: LabelRule | None = None,
) -> FeatureMatrix:
    """All 47 stress features of every window of the bundle, labeled by cortisol."""
    windows = make_windows(bundle, spec)
    labels = labels_to_targets(label_windows(samples, windows, rule))
    return stress_feature_matrix(windows).with_labels(labels)


def segment_targets(
    ppg: SampleSeries, sbp: SampleSeries, dbp: SampleSeries, start_idx: int, stop_idx: int
) -> tuple[float, float] | None:
    """Mean SBP/DBP over the time span of PPG samples [start_idx, stop_idx).

    Each series is placed in time by its own rate and start. None when either
    pressure series has no sample in the span.
    """
    means = []
    for target in (sbp, dbp):
        offset_s = (ppg.start_ms - target.start_ms) / MS_PER_S
        lo = int(np.floor((offset_s + start_idx / ppg.rate_hz) * target.rate_hz))
        hi = max(lo + 1, int(np.ceil((offset_s + stop_idx / ppg.rate_hz) * target.rate_hz)))
        lo, hi = max(lo, 0), min(hi, len(target))
        if hi <= lo:
            return None
        means.append(float(target.values[lo:hi].mean()))
    return means[0], means[1]


def check_pressure_rate(rate_hz: float) -> None:
    """InputError unless segment_targets can index a pressure series sampled
    at rate_hz. Times are int64 ms, so a segment lies under 2**64 ms from the
    series' start; its sample index must then be a finite float, kept here
    with a factor-of-1000 margin for the arithmetic's rounding."""
    if not math.isfinite(2.0**64 * float(rate_hz)):
        raise InputError(f"a pressure series at {rate_hz} Hz has sample indices past float range")


def bp_rows(
    ppg: SampleSeries, sbp: SampleSeries, dbp: SampleSeries
) -> list[tuple[np.ndarray, float, float]]:
    """(reduced BP features, SBP, DBP) for each whole BP_SEGMENT_S segment of
    the PPG; segments the pressure series miss are left out. Each segment is
    low-passed by the one PPG design, order 4 at 8 Hz for the PPG's rate,
    which signals.ppg_lowpass designs once per rate and shares."""
    out = []
    seg_len = int(BP_SEGMENT_S * ppg.rate_hz)
    for k in range(len(ppg) // seg_len):
        i0, i1 = k * seg_len, (k + 1) * seg_len
        targets = segment_targets(ppg, sbp, dbp, i0, i1)
        if targets is not None:
            out.append((bp_reduced_features(ppg.slice_samples(i0, i1)), *targets))
    return out


def bp_training_rows(
    subject_rows: Iterable[tuple[str, Sequence[tuple[np.ndarray, float, float]]]],
) -> tuple[FeatureMatrix, np.ndarray, np.ndarray]:
    """The matrix over BP_REDUCED_NAMES of every (subject id, bp_rows) pair's
    rows, in order, with its SBP and DBP targets. DegenerateTraining when no
    segment has targets."""
    segments = [(subject_id, *row) for subject_id, rows in subject_rows for row in rows]
    if not segments:
        raise DegenerateTraining("no whole BP segment with pressure targets")
    subject_ids, rows, sbp_targets, dbp_targets = zip(*segments)
    matrix = FeatureMatrix(BP_REDUCED_NAMES, rows, subject_ids)
    return matrix, np.asarray(sbp_targets), np.asarray(dbp_targets)
