"""Cortisol labeling: ratio rule, timepoint mapping, invariances."""

import numpy as np
import pytest

from helpers import make_bundle
from homevitals.errors import BaselineMissing, InputError
from homevitals.labeling import (
    CortisolSample,
    StressState,
    Timepoint,
    label_windows,
    labels_to_targets,
    load_cortisol_csv,
    save_cortisol_csv,
)
from homevitals.signals import WindowSpec, make_windows

TWENTY_MIN_MS = 20 * 60 * 1000


def cortisol(concentrations, subject="S00", t1_ms=5 * 60 * 1000):
    return [
        CortisolSample(subject, tp, t1_ms + i * TWENTY_MIN_MS, c)
        for i, (tp, c) in enumerate(zip(Timepoint, concentrations))
    ]


@pytest.fixture(scope="module")
def session_windows():
    # 50-minute recording -> windows spanning all timepoint anchors.
    bundle = make_bundle(duration_s=3000.0)
    return make_windows(bundle, WindowSpec(90.0, 45.0))


class TestLabelWindows:
    def test_flat_concentrations_never_stressed(self, session_windows):
        labels = label_windows(cortisol([0.2] * 5), session_windows)
        assert len(labels) == len(session_windows)
        assert all(l.label is StressState.NOT_STRESSED for l in labels)

    def test_threshold_boundary_inclusive(self, session_windows):
        # 0.12 >= 0.10 * 1.1 -> stressed at that anchor
        labels = label_windows(cortisol([0.10, 0.12, 0.10, 0.10, 0.10]), session_windows)
        t2 = [l for l in labels if l.source_timepoint is Timepoint.T2]
        assert t2 and all(l.label is StressState.STRESSED for l in t2)

    def test_below_threshold_not_stressed(self, session_windows):
        labels = label_windows(cortisol([0.10, 0.105, 0.10, 0.10, 0.10]), session_windows)
        assert all(l.label is StressState.NOT_STRESSED for l in labels)

    def test_windows_past_last_sample_map_to_it(self, session_windows):
        # T1 at 5 min, so T5 sits at 85 min; recording ends at 50 min. Move
        # T1 very early so late windows overrun T5.
        samples = cortisol([0.1, 0.1, 0.1, 0.1, 0.5], t1_ms=-60 * 60 * 1000)
        labels = label_windows(samples, session_windows)
        assert all(l.source_timepoint is Timepoint.T5 for l in labels)
        assert all(l.label is StressState.STRESSED for l in labels)

    def test_missing_baseline(self, session_windows):
        samples = cortisol([0.1] * 5)[1:]  # drop T1
        with pytest.raises(BaselineMissing):
            label_windows(samples, session_windows)

    def test_scale_invariance(self, session_windows):
        base = cortisol([0.10, 0.14, 0.12, 0.10, 0.09])
        scaled = cortisol([3 * c.concentration_ugdl for c in base])
        a = labels_to_targets(label_windows(base, session_windows))
        b = labels_to_targets(label_windows(scaled, session_windows))
        assert np.array_equal(a, b)

    def test_monotone_in_concentration(self, session_windows):
        low = label_windows(cortisol([0.10, 0.11, 0.10, 0.10, 0.10]), session_windows)
        high = label_windows(cortisol([0.10, 0.18, 0.10, 0.10, 0.10]), session_windows)
        for l, h in zip(low, high):
            if l.label is StressState.STRESSED:
                assert h.label is StressState.STRESSED

    def test_exactly_one_label_per_window(self, session_windows):
        labels = label_windows(cortisol([0.1, 0.2, 0.15, 0.1, 0.1]), session_windows)
        assert sorted(l.window_index for l in labels) == [w.index for w in session_windows]

    def test_spacing_validated(self, session_windows):
        samples = cortisol([0.1] * 5)
        broken = samples[:1] + [
            CortisolSample("S00", Timepoint.T2, samples[0].t_ms + TWENTY_MIN_MS + 120_000, 0.1)
        ]
        with pytest.raises(InputError):
            label_windows(broken + samples[2:], session_windows)


def test_cortisol_csv_round_trip(tmp_path):
    samples = cortisol([0.1, 0.21234567891, 0.15, 0.1, 0.08])
    path = tmp_path / "cortisol.csv"
    save_cortisol_csv(samples, path)
    back = load_cortisol_csv(path)
    assert back == samples
