"""Synthetic wristband session: EDA/BVP/ST streams, beat events, and cortisol
samples for one subject following a session script.

Stress raises the tonic conductance level and the conductance-response rate,
shortens beat intervals (higher heart rate, damped variability, constricted
pulse amplitude), and lowers skin temperature. Every effect scales with the
profile's stress amplitude and a phase envelope (ramp over anticipation, full
during stress, exponential recovery), but each channel recovers on its own
time constant: conductance settles first, heart rate next, heart-rate
variability later, temperature last. Adding sensors therefore extends how far
into recovery the stress state remains observable, which is exactly the
fusion effect the classifier experiments measure. Outputs are bit-identical
for a fixed (profile, script, seed) triple.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..labeling import CortisolSample, Phase, Timepoint
from ..signals import WRISTBAND_RATES_HZ, Channel, ChannelBundle, IbiSeries, SampleSeries
from ..signals.dsp import single_pass_filter
from .profiles import CORTISOL_RESPONSE_SHAPE, SessionScript, SyntheticProfile, generate_cohort

EDA_RATE_HZ = WRISTBAND_RATES_HZ[Channel.EDA]
BVP_RATE_HZ = WRISTBAND_RATES_HZ[Channel.BVP]
ST_RATE_HZ = WRISTBAND_RATES_HZ[Channel.ST]

#: Conductance responses fire at SCR_RATE_BASE_HZ at rest. At full stress, per
#: unit of stress amplitude, heart rate rises by HR_GAIN_BPM, tonic conductance
#: by EDA_GAIN_US and the response rate by SCR_RATE_GAIN_HZ, and skin
#: temperature drops by ST_DROP_C.
HR_GAIN_BPM = 15.0
EDA_GAIN_US = 0.9
SCR_RATE_BASE_HZ = 0.04
SCR_RATE_GAIN_HZ = 0.14
ST_DROP_C = 1.1

#: Per-sample measurement noise, the beat-interval jitter scale, and the
#: log-normal spread of each cortisol concentration.
EDA_NOISE_US = 0.04
BVP_NOISE = 0.05
ST_NOISE_C = 0.04
HRV_JITTER_S = 0.04
CORTISOL_NOISE = 0.03

#: Per-channel recovery time constants (seconds after the stressor ends).
EDA_RECOVERY_TAU_S = 300.0
HR_RECOVERY_TAU_S = 550.0
HRV_RECOVERY_TAU_S = 950.0
ST_RECOVERY_TAU_S = 1700.0

#: Fractional pulse-amplitude reduction at full stress (vasoconstriction).
BVP_CONSTRICTION = 0.22
#: Fractional HRV reduction at full stress.
HRV_DAMPING = 0.7

SCR_RISE_S = 0.8
SCR_DECAY_S = 3.0


def stress_envelope(
    t_s: np.ndarray, script: SessionScript, recovery_tau_s: float = HR_RECOVERY_TAU_S
) -> np.ndarray:
    """0 before anticipation, linear ramp to 1 across it, 1 during stress,
    exponential decay through recovery. t_s is seconds from recording start."""
    origin = script.recording_start_ms
    as_start = (script.timeline.start_of(Phase.ANTICIPATORY_STRESS) - origin) / 1000.0
    stress_start = (script.timeline.start_of(Phase.STRESS) - origin) / 1000.0
    stress_end = (script.timeline.start_of(Phase.RECOVERY_1) - origin) / 1000.0
    e = np.zeros_like(t_s)
    ramp = (t_s >= as_start) & (t_s < stress_start)
    e[ramp] = (t_s[ramp] - as_start) / (stress_start - as_start)
    hold = (t_s >= stress_start) & (t_s < stress_end)
    e[hold] = 1.0
    decay = t_s >= stress_end
    e[decay] = np.exp(-(t_s[decay] - stress_end) / recovery_tau_s)
    return e


def ou_process(
    n: int, rate_hz: float, tau_s: float, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Mean-reverting noise via a one-pole recursion on white driving noise."""
    a = float(np.exp(-1.0 / (rate_hz * tau_s)))
    drive = rng.normal(size=n) * sigma * np.sqrt(1.0 - a * a)
    return single_pass_filter(np.array([1.0]), np.array([1.0, -a]), drive)


def span_samples(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sample indices of the spans [first[k], first[k] + counts[k]), span after
    span, so per-span values spread with np.repeat(values, counts) line up."""
    return np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())


def _scr_template(rate_hz: float) -> np.ndarray:
    t = np.arange(0.0, SCR_DECAY_S * 4, 1.0 / rate_hz)
    rising = np.minimum(t / SCR_RISE_S, 1.0)
    return rising * np.exp(-np.maximum(t - SCR_RISE_S, 0.0) / SCR_DECAY_S)


def _eda_stream(
    profile: SyntheticProfile,
    duration_s: float,
    envelope: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    n = int(duration_s * EDA_RATE_HZ)
    amp = profile.stress_amplitude
    tonic = profile.baseline_eda_us + EDA_GAIN_US * amp * envelope
    values = tonic + ou_process(n, EDA_RATE_HZ, 30.0, 0.05, rng)
    values += EDA_NOISE_US * rng.normal(size=n)
    template = _scr_template(EDA_RATE_HZ)
    # One Bernoulli draw per second against the phase-dependent response rate.
    seconds = np.arange(int(duration_s))
    second_env = envelope[(seconds * EDA_RATE_HZ).astype(int)]
    rate = SCR_RATE_BASE_HZ + SCR_RATE_GAIN_HZ * amp * second_env
    fires = rng.random(seconds.size) < rate
    for sec in seconds[fires]:
        start = int(sec * EDA_RATE_HZ)
        stop = min(n, start + template.size)
        scr_amp = rng.uniform(0.25, 0.7)
        values[start:stop] += scr_amp * template[: stop - start]
    return np.maximum(values, 0.01)


def _st_stream(
    profile: SyntheticProfile,
    duration_s: float,
    envelope: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    n = int(duration_s * ST_RATE_HZ)
    level = profile.baseline_st_c - ST_DROP_C * profile.stress_amplitude * envelope
    level = level + ou_process(n, ST_RATE_HZ, 120.0, 0.05, rng)
    return level + ST_NOISE_C * rng.normal(size=n)


def _beat_sequence(
    profile: SyntheticProfile,
    duration_s: float,
    env_hr: np.ndarray,
    env_hrv: np.ndarray,
    rng: np.random.Generator,
) -> list[tuple[float, float]]:
    """(beat time s, preceding interval s) pairs over the recording.

    Slow autonomic wander rides on both the rate and the variability scale;
    it stays correlated across a whole analysis window, so window averaging
    cannot remove it and weak late-recovery effects stay genuinely hard.
    """
    n4 = env_hr.size
    hr_wander = ou_process(n4, EDA_RATE_HZ, 240.0, 1.8, rng).tolist()
    hrv_wander = ou_process(n4, EDA_RATE_HZ, 240.0, 0.10, rng).tolist()
    env_hr_s, env_hrv_s = env_hr.tolist(), env_hrv.tolist()
    beats: list[tuple[float, float]] = []
    t = float(rng.uniform(0.2, 0.6))
    amp = profile.stress_amplitude
    last = n4 - 1
    while True:
        i = min(int(t * EDA_RATE_HZ), last)
        hr = profile.baseline_hr_bpm + HR_GAIN_BPM * amp * env_hr_s[i] + hr_wander[i]
        scale = max(0.2, 1.0 + hrv_wander[i])
        jitter = HRV_JITTER_S * scale * (1.0 - HRV_DAMPING * amp * env_hrv_s[i])
        ibi = min(max(60.0 / hr + jitter * rng.normal(), 0.31), 1.99)
        if t + ibi >= duration_s:
            break
        t += ibi
        beats.append((t, ibi))
    return beats


def _bvp_stream(
    beats: list[tuple[float, float]],
    duration_s: float,
    profile: SyntheticProfile,
    env_hr: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Baseline wander and noise plus one two-Gaussian pulse per beat, each
    over the samples of its preceding interval. The pulses are added in one
    np.add.at pass: a span starts at beat_t - ibi, which need not equal the
    previous beat's time to the bit, so neighbouring spans may share a sample,
    and np.add.at adds repeated indices in beat order as a per-beat loop
    would."""
    n = int(duration_s * BVP_RATE_HZ)
    t = np.arange(n) / BVP_RATE_HZ
    values = 0.1 * np.sin(2 * np.pi * 0.08 * t)  # slow baseline wander
    values += BVP_NOISE * rng.normal(size=n)
    last = env_hr.size - 1
    # Contact-pressure drift modulates amplitude on window-scale correlations.
    amp_wander = ou_process(env_hr.size, EDA_RATE_HZ, 240.0, 0.05, rng)
    beat_t, ibi = np.array(beats, dtype=np.float64).reshape(-1, 2).T
    beat_idx = np.minimum((beat_t * EDA_RATE_HZ).astype(np.int64), last)
    constriction = (
        1.0 - BVP_CONSTRICTION * profile.stress_amplitude * env_hr[beat_idx]
    ) * (1.0 + amp_wander[beat_idx])
    beat_amplitudes = constriction * (1.0 + 0.07 * rng.normal(size=len(beats)))
    start_t = beat_t - ibi
    i0 = np.maximum(0, np.ceil(start_t * BVP_RATE_HZ).astype(np.int64))
    i1 = np.minimum(n, np.ceil(beat_t * BVP_RATE_HZ).astype(np.int64))
    counts = np.maximum(i1 - i0, 0)
    idx = span_samples(i0, counts)
    phase = (t[idx] - np.repeat(start_t, counts)) / np.repeat(ibi, counts)
    pulse = np.exp(-((phase - 0.25) ** 2) / (2 * 0.09**2))
    pulse += 0.25 * np.exp(-((phase - 0.55) ** 2) / (2 * 0.07**2))
    np.add.at(values, idx, np.repeat(beat_amplitudes, counts) * pulse)
    return values


def _cortisol_samples(
    profile: SyntheticProfile,
    script: SessionScript,
    rng: np.random.Generator,
) -> list[CortisolSample]:
    samples = []
    for tp, t_ms, response, decline in zip(
        Timepoint,
        script.cortisol_times_ms,
        CORTISOL_RESPONSE_SHAPE,
        script.cortisol_decline,
    ):
        concentration = (
            profile.cortisol_baseline_ugdl
            * (1.0 + profile.stress_amplitude * response)
            * decline
            * float(np.exp(CORTISOL_NOISE * rng.normal()))
        )
        samples.append(
            CortisolSample(
                subject_id=profile.subject_id,
                timepoint=tp,
                t_ms=int(t_ms),
                concentration_ugdl=concentration,
            )
        )
    return samples


def simulate_session(
    profile: SyntheticProfile,
    script: SessionScript,
    seed: int = 0,
) -> tuple[ChannelBundle, list[CortisolSample]]:
    rng = np.random.default_rng(seed)
    duration_s = script.recording_duration_s
    origin_ms = script.recording_start_ms

    t4 = np.arange(int(duration_s * EDA_RATE_HZ)) / EDA_RATE_HZ
    env_eda = stress_envelope(t4, script, EDA_RECOVERY_TAU_S)
    env_hr = stress_envelope(t4, script, HR_RECOVERY_TAU_S)
    env_hrv = stress_envelope(t4, script, HRV_RECOVERY_TAU_S)
    env_st = stress_envelope(t4, script, ST_RECOVERY_TAU_S)
    eda = _eda_stream(profile, duration_s, env_eda, rng)
    st = _st_stream(profile, duration_s, env_st, rng)
    beats = _beat_sequence(profile, duration_s, env_hr, env_hrv, rng)
    bvp = _bvp_stream(beats, duration_s, profile, env_hr, rng)
    ibi = IbiSeries.from_pairs(
        [(origin_ms + int(round(bt * 1000)), interval) for bt, interval in beats]
    )
    bundle = ChannelBundle(
        subject_id=profile.subject_id,
        eda=SampleSeries(Channel.EDA, EDA_RATE_HZ, origin_ms, eda),
        bvp=SampleSeries(Channel.BVP, BVP_RATE_HZ, origin_ms, bvp),
        st=SampleSeries(Channel.ST, ST_RATE_HZ, origin_ms, st),
        ibi=ibi,
        session_start_ms=origin_ms,
    )
    return bundle, _cortisol_samples(profile, script, rng)


def cohort_sessions(
    n_subjects: int, seed: int
) -> Iterator[tuple[SyntheticProfile, ChannelBundle, list[CortisolSample]]]:
    """(profile, bundle, cortisol samples) for each subject of the cohort
    that `seed` draws, with subject i's `subject_session`."""
    profiles, script = generate_cohort(n_subjects, seed=seed)
    for i, profile in enumerate(profiles):
        yield (profile, *subject_session(profile, script, i))


def subject_session(
    profile: SyntheticProfile, script: SessionScript, index: int
) -> tuple[ChannelBundle, list[CortisolSample]]:
    """Session of subject `index` of a generated cohort, seeded with
    1000 + index whatever the cohort seed."""
    return simulate_session(profile, script, seed=1000 + index)
