"""The simulators add their pulses in one array pass. The per-beat loops they
replace are kept here as oracles: every output byte, and the state each
leaves the generator in, must match them."""

import numpy as np
import pytest

from homevitals.simulate import bp_records, generate_cohort, simulate_bp_records, stress_session
from homevitals.simulate.bp_records import (
    DBP_RANGE_MMHG,
    DUTY_BASE,
    DUTY_PER_DBP,
    HR_BASE_BPM,
    HR_PER_SBP,
    PPG_RATE_HZ,
)
from homevitals.simulate.stress_session import (
    BVP_CONSTRICTION,
    BVP_NOISE,
    BVP_RATE_HZ,
    EDA_RATE_HZ,
    HR_GAIN_BPM,
    HRV_DAMPING,
    HRV_JITTER_S,
    ou_process,
    subject_session,
)


def reference_ppg_from_pressures(sbp, dbp, rng):
    duration_s = sbp.size
    n = int(duration_s * PPG_RATE_HZ)
    t = np.arange(n) / PPG_RATE_HZ
    values = 0.03 * np.sin(2 * np.pi * 0.05 * t + rng.uniform(0, 2 * np.pi))
    values += 0.012 * rng.normal(size=n)
    beat_t = 0.0
    last = duration_s - 1
    while True:
        sec = min(int(beat_t), last)
        hr = HR_BASE_BPM + HR_PER_SBP * sbp[sec] + 0.6 * rng.normal()
        ibi = 60.0 / hr
        end_t = beat_t + ibi
        if end_t >= duration_s:
            break
        duty = DUTY_BASE + DUTY_PER_DBP * (dbp[sec] - DBP_RANGE_MMHG[0])
        i0 = int(np.ceil(beat_t * PPG_RATE_HZ))
        i1 = min(n, int(np.ceil(end_t * PPG_RATE_HZ)))
        if i1 > i0:
            phase = (t[i0:i1] - beat_t) / ibi
            pulse = np.exp(-((phase - 0.3) ** 2) / (2 * duty**2))
            pulse += 0.35 * np.exp(-((phase - 0.3 - 2.2 * duty) ** 2) / (2 * (0.7 * duty) ** 2))
            values[i0:i1] += (1.0 + 0.02 * rng.normal()) * pulse
        beat_t = end_t
    return values


def reference_beat_sequence(profile, duration_s, env_hr, env_hrv, rng):
    n4 = env_hr.size
    hr_wander = ou_process(n4, EDA_RATE_HZ, 240.0, 1.8, rng)
    hrv_wander = ou_process(n4, EDA_RATE_HZ, 240.0, 0.10, rng)
    beats = []
    t = float(rng.uniform(0.2, 0.6))
    amp = profile.stress_amplitude
    last = n4 - 1
    while True:
        i = min(int(t * EDA_RATE_HZ), last)
        hr = profile.baseline_hr_bpm + HR_GAIN_BPM * amp * float(env_hr[i]) + float(hr_wander[i])
        scale = max(0.2, 1.0 + float(hrv_wander[i]))
        jitter = HRV_JITTER_S * scale * (1.0 - HRV_DAMPING * amp * float(env_hrv[i]))
        ibi = float(np.clip(60.0 / hr + jitter * rng.normal(), 0.31, 1.99))
        if t + ibi >= duration_s:
            break
        t += ibi
        beats.append((t, ibi))
    return beats


def reference_bvp_stream(beats, duration_s, profile, env_hr, rng):
    n = int(duration_s * BVP_RATE_HZ)
    t = np.arange(n) / BVP_RATE_HZ
    values = 0.1 * np.sin(2 * np.pi * 0.08 * t)
    values += BVP_NOISE * rng.normal(size=n)
    last = env_hr.size - 1
    amp_wander = ou_process(env_hr.size, EDA_RATE_HZ, 240.0, 0.05, rng)
    beat_idx = np.array([min(int(bt * EDA_RATE_HZ), last) for bt, _ in beats])
    constriction = (
        1.0 - BVP_CONSTRICTION * profile.stress_amplitude * env_hr[beat_idx]
    ) * (1.0 + amp_wander[beat_idx])
    beat_amplitudes = constriction * (1.0 + 0.07 * rng.normal(size=len(beats)))
    for (beat_t, ibi), amp in zip(beats, beat_amplitudes):
        start_t = beat_t - ibi
        i0 = max(0, int(np.ceil(start_t * BVP_RATE_HZ)))
        i1 = min(n, int(np.ceil(beat_t * BVP_RATE_HZ)))
        if i1 <= i0:
            continue
        phase = (t[i0:i1] - start_t) / ibi
        pulse = np.exp(-((phase - 0.25) ** 2) / (2 * 0.09**2))
        pulse += 0.25 * np.exp(-((phase - 0.55) ** 2) / (2 * 0.07**2))
        values[i0:i1] += amp * pulse
    return values


def record_arrays(records):
    return [
        values
        for record in records
        for unit in record.units
        for values in (unit.ppg.values, unit.sbp.values, unit.dbp.values)
    ]


def assert_same_bytes(actual, expected):
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert a.dtype == e.dtype and a.tobytes() == e.tobytes()


@pytest.mark.parametrize("mode", ["short_term", "long_term"])
def test_bp_records_match_per_beat_loop_over_seeds(mode, monkeypatch):
    # Units are cut to a few minutes so 50 seeds stay cheap; the full-length
    # records are pinned in test_simulate_pins.
    monkeypatch.setattr(bp_records, "SHORT_TERM_UNIT_S", 240)
    monkeypatch.setattr(bp_records, "LONG_TERM_UNIT_S", 90)
    for seed in range(50):
        fast = record_arrays(simulate_bp_records(2, mode, seed=seed))
        with monkeypatch.context() as m:
            m.setattr(bp_records, "_ppg_from_pressures", reference_ppg_from_pressures)
            slow = record_arrays(simulate_bp_records(2, mode, seed=seed))
        assert_same_bytes(fast, slow)


def test_full_length_bp_record_matches_per_beat_loop(monkeypatch):
    fast = record_arrays(simulate_bp_records(1, "short_term", seed=11))
    monkeypatch.setattr(bp_records, "_ppg_from_pressures", reference_ppg_from_pressures)
    assert_same_bytes(fast, record_arrays(simulate_bp_records(1, "short_term", seed=11)))


@pytest.mark.parametrize(
    "sbp, beats",
    [([0.0], 0), ([0.0, 0.0], 1), ([120.0], 1), ([120.0, 150.0], 3), ([175.0] * 3, 5)],
)
def test_short_pressure_inputs_match_per_beat_loop(sbp, beats):
    sbp = np.asarray(sbp, dtype=np.float64)
    dbp = np.minimum(0.5 * sbp + 14.0, 100.0)
    fast_rng, slow_rng = np.random.default_rng(4), np.random.default_rng(4)
    fast = bp_records._ppg_from_pressures(sbp, dbp, fast_rng)
    slow = reference_ppg_from_pressures(sbp, dbp, slow_rng)
    assert fast.tobytes() == slow.tobytes()
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    # After the baseline's draws: one HR draw per beat plus the one that ends
    # the record, and one gain draw per beat.
    counter = np.random.default_rng(4)
    counter.uniform()
    counter.normal(size=fast.size)
    for _ in range(2 * beats + 1):
        counter.normal()
    assert counter.bit_generator.state == fast_rng.bit_generator.state


@pytest.mark.parametrize("cohort_seed", [0, 3, 8])
def test_stress_sessions_match_per_beat_loops(cohort_seed, monkeypatch):
    profiles, script = generate_cohort(3, seed=cohort_seed)
    for index, profile in enumerate(profiles):
        bundle, samples = subject_session(profile, script, index)
        with monkeypatch.context() as m:
            m.setattr(stress_session, "_beat_sequence", reference_beat_sequence)
            m.setattr(stress_session, "_bvp_stream", reference_bvp_stream)
            ref_bundle, ref_samples = subject_session(profile, script, index)
        for channel in ("eda", "bvp", "st"):
            a, e = getattr(bundle, channel).values, getattr(ref_bundle, channel).values
            assert a.tobytes() == e.tobytes(), (cohort_seed, index, channel)
        assert bundle.ibi.t_ms.tobytes() == ref_bundle.ibi.t_ms.tobytes()
        assert bundle.ibi.ibi_s.tobytes() == ref_bundle.ibi.ibi_s.tobytes()
        assert samples == ref_samples


def test_bvp_spans_that_share_a_sample_add_in_beat_order():
    # The second span starts 0.05 s before the first beat, so both cover
    # samples 61-63; the third is too short to hold a sample.
    beats = [(1.0, 0.8), (1.9, 0.95), (1.9001, 0.0001), (2.6, 0.6999)]
    profile = generate_cohort(1, seed=0)[0][0]
    env_hr = np.linspace(0.0, 1.0, 16)
    fast_rng, slow_rng = np.random.default_rng(9), np.random.default_rng(9)
    fast = stress_session._bvp_stream(beats, 4.0, profile, env_hr, fast_rng)
    slow = reference_bvp_stream(beats, 4.0, profile, env_hr, slow_rng)
    assert fast.tobytes() == slow.tobytes()
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
