"""Generator self-checks: calibration, determinism, and effect directions."""

import numpy as np
import pytest

from homevitals.labeling import Timepoint
from homevitals.signals import WindowSpec, make_windows
from homevitals.simulate import (
    BpMode,
    COHORT_CORTISOL_MEANS_UGDL,
    COHORT_CORTISOL_T1_SD_UGDL,
    bp_record,
    cohort_sessions,
    default_session_script,
    generate_cohort,
    simulate_bp_records,
    simulate_session,
)
from homevitals.simulate.bp_records import SHORT_TERM_UNIT_S, _make_unit
from homevitals.simulate.stress_session import EDA_NOISE_US, EDA_RECOVERY_TAU_S, stress_envelope


@pytest.fixture(scope="module")
def cohort():
    return generate_cohort(40, seed=0)


@pytest.fixture(scope="module")
def one_session(cohort):
    profiles, script = cohort
    strong = max(profiles, key=lambda p: p.stress_amplitude)
    return simulate_session(strong, script, seed=42), strong


class TestSimulateSession:
    def test_rates_and_invariants(self, one_session):
        (bundle, samples), _ = one_session
        assert bundle.eda.rate_hz == 4.0
        assert bundle.bvp.rate_hz == 64.0
        assert bundle.st.rate_hz == 4.0
        assert bundle.duration_s == pytest.approx(3000.0)
        assert len(samples) == 5
        assert np.all(np.diff(bundle.ibi.t_ms) > 0)

    def test_deterministic(self, cohort):
        profiles, script = cohort
        b1, c1 = simulate_session(profiles[0], script, seed=7)
        b2, c2 = simulate_session(profiles[0], script, seed=7)
        assert np.array_equal(b1.eda.values, b2.eda.values)
        assert np.array_equal(b1.bvp.values, b2.bvp.values)
        assert np.array_equal(b1.ibi.ibi_s, b2.ibi.ibi_s)
        assert c1 == c2

    def test_zero_gain_means_match_across_phases(self, cohort):
        profiles, script = cohort
        flat = profiles[0].without_stress_response()
        bundle, _ = simulate_session(flat, script, seed=3)
        eda = bundle.eda.values
        ps, stress = eda[:2400], eda[4800:7200]
        assert abs(ps.mean() - stress.mean()) < 3 * EDA_NOISE_US

    def test_positive_gains_shift_channels(self, cohort):
        # Direction check across 100 seeds: EDA up, mean IBI down under stress.
        profiles, script = cohort
        strong = max(profiles, key=lambda p: p.stress_amplitude)
        eda_up = ibi_down = 0
        trials = 100
        for seed in range(trials):
            bundle, _ = simulate_session(strong, script, seed=seed)
            eda = bundle.eda.values
            eda_up += eda[4800:7200].mean() > eda[:2400].mean()
            ibi = bundle.ibi
            ps_mask = ibi.t_ms < 600_000
            stress_mask = (ibi.t_ms >= 1_200_000) & (ibi.t_ms < 1_800_000)
            ibi_down += ibi.ibi_s[stress_mask].mean() < ibi.ibi_s[ps_mask].mean()
        assert eda_up >= 0.95 * trials
        assert ibi_down >= 0.95 * trials

    def test_cohort_sessions_seed_subject_i_with_1000_plus_i(self):
        profiles, script = generate_cohort(3, seed=5)
        sessions = list(cohort_sessions(3, seed=5))
        assert [p for p, _, _ in sessions] == profiles
        for i, (profile, bundle, samples) in enumerate(sessions):
            expected_bundle, expected_samples = simulate_session(profile, script, seed=1000 + i)
            assert bundle.eda.values.tobytes() == expected_bundle.eda.values.tobytes()
            assert bundle.ibi.ibi_s.tobytes() == expected_bundle.ibi.ibi_s.tobytes()
            assert samples == expected_samples

    def test_cohort_cortisol_calibration(self):
        samples = []
        for _profile, _bundle, cs in cohort_sessions(40, seed=0):
            samples.extend(cs)
        by_tp = {
            tp: np.array([s.concentration_ugdl for s in samples if s.timepoint is tp])
            for tp in Timepoint
        }
        for tp, target in zip(Timepoint, COHORT_CORTISOL_MEANS_UGDL):
            got = by_tp[tp].mean()
            assert abs(got - target) / target < 0.15, tp
        t1_sd = by_tp[Timepoint.T1].std(ddof=1)
        assert abs(t1_sd - COHORT_CORTISOL_T1_SD_UGDL) / COHORT_CORTISOL_T1_SD_UGDL < 0.15

    def test_envelope_shape(self):
        script = default_session_script()
        t = np.array([0.0, 599.0, 900.0, 1500.0, 1799.0, 1800.0 + EDA_RECOVERY_TAU_S])
        e = stress_envelope(t, script, EDA_RECOVERY_TAU_S)
        assert e[0] == 0.0 and e[1] == 0.0
        assert 0.4 < e[2] < 0.6
        assert e[3] == 1.0 and e[4] == 1.0
        assert e[5] == pytest.approx(np.exp(-1.0), rel=1e-3)

    def test_windows_fit_session(self, one_session):
        (bundle, _), _ = one_session
        windows = make_windows(bundle, WindowSpec())
        assert len(windows) == 65


class TestSimulateBpRecords:
    def test_short_term_shape(self):
        records = simulate_bp_records(2, "short_term", seed=1)
        assert len(records) == 2
        unit = records[0].units[0]
        assert len(records[0].units) == 1
        assert len(unit.ppg) == 30 * 60 * 125
        assert unit.sbp.rate_hz == 1.0

    def test_long_term_three_hour_units(self):
        records = simulate_bp_records(1, BpMode.LONG_TERM, seed=2)
        units = records[0].units
        assert len(units) == 3
        for unit in units:
            assert unit.duration_s == pytest.approx(3600.0)
        starts = [u.ppg.start_ms for u in units]
        assert starts == sorted(starts) and len(set(starts)) == 3

    def test_sbp_dominates_dbp_everywhere(self):
        for record in simulate_bp_records(3, "short_term", seed=3):
            for unit in record.units:
                assert np.all(unit.sbp.values >= unit.dbp.values)

    def test_deterministic(self):
        a = simulate_bp_records(1, "short_term", seed=5)[0]
        b = simulate_bp_records(1, "short_term", seed=5)[0]
        assert np.array_equal(a.units[0].ppg.values, b.units[0].ppg.values)
        assert np.array_equal(a.units[0].sbp.values, b.units[0].sbp.values)


    @pytest.mark.parametrize("mode", list(BpMode))
    def test_records_are_the_per_record_entry_point_in_order(self, mode):
        def series_bytes(record):
            return [
                (s.channel, s.rate_hz, s.start_ms, s.values.tobytes())
                for unit in record.units
                for s in (unit.ppg, unit.sbp, unit.dbp)
            ]

        records = simulate_bp_records(3, mode, seed=7)
        for i, record in enumerate(records):
            alone = bp_record(i, mode, seed=7)
            assert alone.record_id == record.record_id == f"R{i:02d}"
            assert series_bytes(alone) == series_bytes(record)
        later = simulate_bp_records(5, mode, seed=7)[2]
        assert series_bytes(later) == series_bytes(records[2])

    def test_record_i_draws_from_child_i_of_the_spawned_seeds(self):
        rng = np.random.default_rng(np.random.SeedSequence(7).spawn(3)[2])
        base_sbp = float(rng.uniform(110.0, 150.0))
        unit = _make_unit(SHORT_TERM_UNIT_S, 0, base_sbp, rng)
        record = bp_record(2, "short_term", seed=7)
        assert record.units[0].ppg.values.tobytes() == unit.ppg.values.tobytes()
        assert record.units[0].sbp.values.tobytes() == unit.sbp.values.tobytes()
