"""Training-row assembly shared by the service trainers and the experiments."""

import hashlib

import numpy as np
import pytest

from helpers import make_bundle
from homevitals.datasets import bp_rows, segment_targets, stress_rows
from homevitals.experiments import build_bp_dataset, build_stress_dataset, stress_fusion_experiment
from homevitals.features import BP_REDUCED_NAMES, bp_reduced_features
from homevitals.labeling import CortisolSample, Timepoint
from homevitals.signals import Channel, SampleSeries, WindowSpec, dsp
from homevitals.simulate import simulate_bp_records

MIN_MS = 60_000


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


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
        segments = bp_rows(ppg, unit.sbp, unit.dbp, "R00", "0:")
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
        segments = bp_rows(ppg, short, short, "R00")
        assert [row.origin for row, _, _ in segments] == ["0"]
        assert segments[0][1] == pytest.approx(unit.sbp.values[:40].mean())

    def test_one_filter_design_per_record(self, monkeypatch):
        # A 30-min 125 Hz record has 45 segments at one rate; the low-pass is
        # designed once for all of them, and the rows equal those of segments
        # that each design their own.
        unit = simulate_bp_records(1, "short_term", seed=6)[0].units[0]
        reference = [
            bp_reduced_features(unit.ppg.slice_samples(i0, i0 + 5000), f"0:{k}", "R00")
            for k, i0 in enumerate(range(0, len(unit.ppg), 5000))
        ]
        calls = []
        butter = dsp.butter
        monkeypatch.setattr(dsp, "butter", lambda *a, **kw: calls.append(a) or butter(*a, **kw))
        rows = [row for row, _, _ in bp_rows(unit.ppg, unit.sbp, unit.dbp, "R00", "0:")]
        assert len(calls) == 1 and len(rows) == len(reference) == 45
        for row, ref in zip(rows, reference):
            assert (row.subject_id, row.origin, row.names, row.flags) == (
                ref.subject_id, ref.origin, ref.names, ref.flags
            )
            assert row.values.tobytes() == ref.values.tobytes()

    def test_build_bp_dataset_rows_are_pinned(self):
        # Digests of the rows, names and targets the experiments train on, so
        # any drift in BP features or target alignment fails here.
        matrix, sbp, dbp = build_bp_dataset(4, seed=100)
        assert matrix.X.shape == (180, 10)
        assert digest(matrix.X.tobytes()) == "4c639607c439913a"
        assert digest("\n".join(matrix.names).encode()) == "54205d58a5c2be0e"
        assert digest(sbp.tobytes()) == "148869ed140d5671"
        assert digest(dbp.tobytes()) == "54ec46fa2b409c01"


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

    def test_build_stress_dataset_rows_are_pinned(self):
        # Per combination: (X digest, names digest, selected feature count).
        # Every combination shares one label column.
        pinned = {
            ("EDA",): ("0614d43e651f8995", "ff69ac4fa0620a6d", 10),
            ("EDA", "BVP"): ("63eb1e79a0d003a0", "5af66012c1af03d7", 24),
            ("EDA", "BVP", "IBI"): ("252815f85b18c257", "e08b77d4fba0c46c", 30),
            ("EDA", "BVP", "IBI", "ST"): ("9f3fce74a2866261", "4edb3a8f9e36af30", 35),
        }
        datasets = build_stress_dataset(4, cohort_seed=0)
        results = stress_fusion_experiment(datasets, split_seeds=range(1))
        assert list(datasets) == list(pinned)
        for combo, (x_digest, names_digest, selected) in pinned.items():
            matrix = datasets[combo]
            assert matrix.X.shape[0] == 260
            assert digest(matrix.X.tobytes()) == x_digest, combo
            assert digest("\n".join(matrix.names).encode()) == names_digest, combo
            assert digest(matrix.labels.tobytes()) == "d3cc43b096db8769", combo
            assert results[combo].selected_features == selected, combo
