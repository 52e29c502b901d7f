"""Training-row assembly shared by the service trainers and the experiments."""

import numpy as np
import pytest

from helpers import make_bundle
from homevitals.datasets import bp_rows, segment_targets, stress_rows
from homevitals.features import BP_REDUCED_NAMES
from homevitals.labeling import CortisolSample, Timepoint
from homevitals.signals import Channel, FilterConfig, SampleSeries, WindowSpec
from homevitals.simulate import simulate_bp_records

MIN_MS = 60_000


def pressure(values, rate_hz=1.0, start_ms=0):
    return SampleSeries(Channel.DERIVED, rate_hz, start_ms, np.asarray(values, dtype=float))


class TestSegmentTargets:
    def test_targets_align_by_each_series_rate_and_start(self):
        # 125 Hz PPG starting with its 1 Hz targets: seconds [0, 40).
        unit = simulate_bp_records(1, "short_term", seed=6)[0].units[0]
        sbp, dbp = segment_targets(unit.ppg, unit.sbp, unit.dbp, 0, 40 * 125)
        assert sbp == pytest.approx(unit.sbp.values[:40].mean())
        assert dbp == pytest.approx(unit.dbp.values[:40].mean())

        # 62.5 Hz PPG starting 10 s after the targets: its second 40 s segment
        # spans target seconds [50, 90).
        ppg = SampleSeries(Channel.PPG, 62.5, 10_000, np.zeros(62 * 125))
        seconds = np.arange(200.0)
        seg = int(40 * 62.5)
        sbp, dbp = segment_targets(
            ppg, pressure(seconds), pressure(2 * seconds), seg, 2 * seg
        )
        assert sbp == pytest.approx(seconds[50:90].mean())
        assert dbp == pytest.approx(2 * seconds[50:90].mean())

    def test_target_rate_other_than_1_hz(self):
        ppg = SampleSeries(Channel.PPG, 125.0, 0, np.zeros(125 * 10))
        half_seconds = np.arange(40.0)
        two_hz = pressure(half_seconds, rate_hz=2.0)
        sbp, _ = segment_targets(ppg, two_hz, pressure(half_seconds), 0, 125 * 4)
        assert sbp == pytest.approx(half_seconds[:8].mean())

    def test_uncovered_span_has_no_targets(self):
        ppg = SampleSeries(Channel.PPG, 125.0, 0, np.zeros(125 * 100))
        late = pressure(np.full(100, 120.0), start_ms=60_000)
        assert segment_targets(ppg, late, late, 0, 125 * 40) is None
        assert segment_targets(ppg, late, late, 125 * 40, 125 * 80) == (120.0, 120.0)


class TestBpRows:
    def test_one_reduced_row_per_whole_segment(self):
        unit = simulate_bp_records(1, "short_term", seed=6)[0].units[0]
        ppg = unit.ppg.slice_samples(0, 125 * 130)
        segments = bp_rows(
            ppg, unit.sbp, unit.dbp, 40.0, FilterConfig.for_rate(125.0), "R00", "0:"
        )
        rows, sbp, dbp = zip(*segments)
        assert len(rows) == len(sbp) == len(dbp) == 3
        assert [r.origin for r in rows] == ["0:0", "0:1", "0:2"]
        assert all(r.names == BP_REDUCED_NAMES and r.subject_id == "R00" for r in rows)
        assert sbp[1] == pytest.approx(unit.sbp.values[40:80].mean())
        assert dbp[2] == pytest.approx(unit.dbp.values[80:120].mean())

    def test_segments_without_targets_are_left_out(self):
        unit = simulate_bp_records(1, "short_term", seed=6)[0].units[0]
        ppg = unit.ppg.slice_samples(0, 125 * 120)
        short = pressure(unit.sbp.values[:40])
        segments = bp_rows(ppg, short, short, 40.0, FilterConfig.for_rate(125.0), "R00")
        assert [row.origin for row, _, _ in segments] == ["0"]
        assert segments[0][1] == pytest.approx(unit.sbp.values[:40].mean())


class TestStressRows:
    def test_labeled_47_column_rows_per_window(self):
        bundle = make_bundle(duration_s=180.0, subject="S00")
        t1 = -10 * MIN_MS
        samples = [
            CortisolSample("S00", Timepoint.T1, t1, 0.2),
            CortisolSample("S00", Timepoint.T2, t1 + 20 * MIN_MS, 0.4),
        ]
        matrix = stress_rows(bundle, samples, WindowSpec(90.0, 45.0))
        assert matrix.X.shape == (3, 47)
        assert matrix.labels.tolist() == [1.0, 1.0, 1.0]
        assert set(matrix.subject_ids) == {"S00"}
