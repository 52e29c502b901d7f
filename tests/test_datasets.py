"""Training-row assembly shared by the service trainers and the experiments."""

import hashlib

import numpy as np
import pytest

from helpers import make_bundle
from homevitals.datasets import BP_SEGMENT_S, bp_rows, bp_training_rows, segment_targets, stress_rows
from homevitals.errors import DegenerateTraining
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
        segments = bp_rows(ppg, unit.sbp, unit.dbp)
        rows, sbp, dbp = zip(*segments)
        assert len(rows) == len(sbp) == len(dbp) == 3
        assert all(r.shape == (len(BP_REDUCED_NAMES),) for r in rows)
        for k, row in enumerate(rows):
            segment = ppg.slice_samples(k * 5000, (k + 1) * 5000)
            assert row.tobytes() == bp_reduced_features(segment).tobytes()
        assert sbp[1] == pytest.approx(unit.sbp.values[40:80].mean())
        assert dbp[2] == pytest.approx(unit.dbp.values[80:120].mean())

    def test_segments_without_targets_are_left_out(self):
        unit = simulate_bp_records(1, "short_term", seed=6)[0].units[0]
        ppg = unit.ppg.slice_samples(0, 125 * 120)
        short = pressure(unit.sbp.values[:40])
        segments = bp_rows(ppg, short, short)
        assert len(segments) == 1
        first = bp_reduced_features(ppg.slice_samples(0, 5000))
        assert segments[0][0].tobytes() == first.tobytes()
        assert segments[0][1] == pytest.approx(unit.sbp.values[:40].mean())

    def test_one_filter_design_per_rate(self, monkeypatch):
        # Two 30-min 125 Hz records (45 segments each) and a query-length
        # segment share one low-pass design per process, and their rows equal
        # those of the segments taken one at a time.
        units = [record.units[0] for record in simulate_bp_records(2, "short_term", seed=6)]
        seg_len = int(BP_SEGMENT_S * 125)
        reference = [
            bp_reduced_features(unit.ppg.slice_samples(i0, i0 + seg_len))
            for unit in units
            for i0 in range(0, len(unit.ppg), seg_len)
        ]
        query = units[0].ppg.slice_samples(len(units[0].ppg) - seg_len, len(units[0].ppg))
        query_row = bp_reduced_features(query)
        dsp.ppg_lowpass.cache_clear()
        calls = []
        butter = dsp.butter
        monkeypatch.setattr(dsp, "butter", lambda *a, **kw: calls.append(a) or butter(*a, **kw))
        rows = [row for unit in units for row, _, _ in bp_rows(unit.ppg, unit.sbp, unit.dbp)]
        assert bp_reduced_features(query).tobytes() == query_row.tobytes()
        assert calls == [(4, 8.0 / (125.0 / 2.0))]
        assert len(rows) == len(reference) == 90
        for row, ref in zip(rows, reference):
            assert row.tobytes() == ref.tobytes()

    def test_build_bp_dataset_rows_carry_their_record_ids(self):
        matrix, sbp, _ = build_bp_dataset(2, seed=100)
        records = simulate_bp_records(2, "short_term", seed=100)
        assert list(dict.fromkeys(matrix.subject_ids)) == [r.record_id for r in records]
        assert len(matrix.subject_ids) == len(sbp)

    def test_training_rows_stack_the_units_rows_in_unit_order(self):
        units = [
            (record.record_id, unit.ppg.slice_samples(0, 125 * 90), unit.sbp, unit.dbp)
            for record in simulate_bp_records(2, "short_term", seed=6)
            for unit in record.units[:1]
        ]
        matrix, sbp, dbp = bp_training_rows(units)
        expected = [(sid, *row) for sid, ppg, s, d in units for row in bp_rows(ppg, s, d)]
        assert len(expected) == 4
        assert tuple(matrix.names) == BP_REDUCED_NAMES
        assert list(matrix.subject_ids) == [e[0] for e in expected]
        assert matrix.X.tobytes() == np.stack([e[1] for e in expected]).tobytes()
        assert sbp.tolist() == [e[2] for e in expected]
        assert dbp.tolist() == [e[3] for e in expected]

    def test_training_rows_without_targets_are_degenerate_training(self):
        ppg = simulate_bp_records(1, "short_term", seed=6)[0].units[0].ppg
        late = pressure(np.full(10, 120.0), start_ms=ppg.end_ms + 60_000)
        for units in ([], [("S0", ppg, late, late)]):
            with pytest.raises(DegenerateTraining, match="no whole BP segment"):
                bp_training_rows(units)

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
