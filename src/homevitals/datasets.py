"""Labeled training rows and the model settings, one way for the service
trainers and the offline experiments: cortisol-labeled stress windows, and
fixed-length PPG segments with the mean SBP/DBP over each segment's time span.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .features import (
    FeatureMatrix,
    FeatureVector,
    bp_lowpass,
    bp_reduced_features,
    stress_feature_matrix,
)
from .labeling import CortisolSample, LabelRule, label_windows, labels_to_targets
from .signals import ChannelBundle, SampleSeries, WindowSpec, make_windows

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
        offset_s = (ppg.start_ms - target.start_ms) / 1000.0
        lo = int(np.floor((offset_s + start_idx / ppg.rate_hz) * target.rate_hz))
        hi = max(lo + 1, int(np.ceil((offset_s + stop_idx / ppg.rate_hz) * target.rate_hz)))
        lo, hi = max(lo, 0), min(hi, len(target))
        if hi <= lo:
            return None
        means.append(float(target.values[lo:hi].mean()))
    return means[0], means[1]


def bp_rows(
    ppg: SampleSeries, sbp: SampleSeries, dbp: SampleSeries, subject_id: str,
    origin_prefix: str = "",
) -> list[tuple[FeatureVector, float, float]]:
    """(reduced BP features, SBP, DBP) for each whole BP_SEGMENT_S segment of
    the PPG; segments the pressure series miss are left out. Every segment
    shares the PPG's rate, so the low-pass is designed once, at the first
    segment kept, and filters them all."""
    out = []
    lowpass = None
    seg_len = int(BP_SEGMENT_S * ppg.rate_hz)
    for k in range(len(ppg) // seg_len):
        i0, i1 = k * seg_len, (k + 1) * seg_len
        targets = segment_targets(ppg, sbp, dbp, i0, i1)
        if targets is not None:
            if lowpass is None:
                lowpass = bp_lowpass(ppg.rate_hz)
            segment = ppg.slice_samples(i0, i1)
            origin = f"{origin_prefix}{k}"
            row = bp_reduced_features(segment, origin, subject_id, lowpass)
            out.append((row, *targets))
    return out
