"""MIMIC-like synthetic records: a 125 Hz PPG stream whose morphology is a
deterministic function of latent systolic/diastolic trajectories, paired with
those trajectories at 1 Hz.

Because the preprocessing pipeline min-max normalizes and quantizes the
waveform, absolute amplitude carries nothing downstream. Blood pressure is
therefore encoded in properties that survive it: heart rate tracks systolic
pressure and the pulse's duty cycle tracks diastolic pressure, so spectral
peak locations and amplitude ratios recover both targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import InputError
from ..signals import DEFAULT_PPG_RATE_HZ, Channel, SampleSeries
from .stress_session import ou_process, span_samples

PPG_RATE_HZ = DEFAULT_PPG_RATE_HZ
TARGET_RATE_HZ = 1.0

SHORT_TERM_UNIT_S = 30 * 60
LONG_TERM_UNIT_S = 60 * 60
#: Long-term units are drawn from the beginning, middle, and end of a nominal
#: six-hour record.
LONG_TERM_UNIT_OFFSETS_S = (0, int(2.5 * 3600), 5 * 3600)

SBP_RANGE_MMHG = (95.0, 175.0)
DBP_RANGE_MMHG = (55.0, 105.0)
MIN_PULSE_PRESSURE_MMHG = 15.0

HR_BASE_BPM = 40.0
HR_PER_SBP = 0.45
DUTY_BASE = 0.08
DUTY_PER_DBP = 0.0024


class BpMode(Enum):
    SHORT_TERM = "short_term"
    LONG_TERM = "long_term"


@dataclass(frozen=True)
class BpUnit:
    ppg: SampleSeries
    sbp: SampleSeries
    dbp: SampleSeries

    @property
    def duration_s(self) -> float:
        return self.ppg.duration_s


@dataclass(frozen=True)
class BpRecord:
    record_id: str
    units: tuple[BpUnit, ...]


def _latent_pressures(
    duration_s: int, base_sbp: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    t = np.arange(duration_s, dtype=np.float64)
    sbp = (
        base_sbp
        + 16.0 * np.sin(2 * np.pi * t / 700.0 + rng.uniform(0, 2 * np.pi))
        + 7.0 * np.sin(2 * np.pi * t / 97.0 + rng.uniform(0, 2 * np.pi))
        + ou_process(t.size, 1.0, 120.0, 3.0, rng)
    )
    sbp = np.clip(sbp, *SBP_RANGE_MMHG)
    dbp = (
        0.5 * sbp
        + 14.0
        + 5.0 * np.sin(2 * np.pi * t / 550.0 + rng.uniform(0, 2 * np.pi))
        + ou_process(t.size, 1.0, 90.0, 2.0, rng)
    )
    dbp = np.clip(dbp, *DBP_RANGE_MMHG)
    dbp = np.minimum(dbp, sbp - MIN_PULSE_PRESSURE_MMHG)
    return sbp, dbp


def _ppg_from_pressures(
    sbp: np.ndarray, dbp: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Baseline wander and noise plus one two-Gaussian pulse per beat.

    Beat times, the heart-rate draw and the gain draw are sequential, so a
    scalar loop computes them in Python floats; the pulses are then added in
    one array pass. Beat k covers samples [ceil(t_k fs), ceil(t_{k+1} fs)) with
    t_{k+1} the same float on both sides, so the spans never overlap and each
    sample gets one addition, as a per-beat loop would give it. The per-beat
    widths are squared as scalars (libm pow), not as arrays (x * x), because
    the two can differ in the last bit.
    """
    duration_s = sbp.size
    n = int(duration_s * PPG_RATE_HZ)
    t = np.arange(n) / PPG_RATE_HZ
    values = 0.03 * np.sin(2 * np.pi * 0.05 * t + rng.uniform(0, 2 * np.pi))
    values += 0.012 * rng.normal(size=n)
    sbp_s, dbp_s = sbp.tolist(), dbp.tolist()
    # One row per beat whose span holds a sample: first sample, sample count,
    # start time, interval, gain, and the pulse shape: the first Gaussian's
    # width term, the second's offset and its width term.
    beats = []
    beat_t = 0.0
    last = duration_s - 1
    while True:
        sec = min(int(beat_t), last)
        hr = HR_BASE_BPM + HR_PER_SBP * sbp_s[sec] + 0.6 * rng.normal()
        ibi = 60.0 / hr
        end_t = beat_t + ibi
        if end_t >= duration_s:
            break
        duty = DUTY_BASE + DUTY_PER_DBP * (dbp_s[sec] - DBP_RANGE_MMHG[0])
        i0 = math.ceil(beat_t * PPG_RATE_HZ)
        i1 = min(n, math.ceil(end_t * PPG_RATE_HZ))
        if i1 > i0:
            gain = 1.0 + 0.02 * rng.normal()
            shape = (2 * duty**2, 2.2 * duty, 2 * (0.7 * duty) ** 2)
            beats.append((i0, i1 - i0, beat_t, ibi, gain, *shape))
        beat_t = end_t
    if not beats:
        return values
    table = np.array(beats)
    first, counts = table[:, 0].astype(np.int64), table[:, 1].astype(np.int64)
    idx = span_samples(first, counts)
    start, ibi, gain, width1, shift2, width2 = np.repeat(table[:, 2:].T, counts, axis=1)
    phase = (t[idx] - start) / ibi
    pulse = np.exp(-((phase - 0.3) ** 2) / width1)
    pulse += 0.35 * np.exp(-((phase - 0.3 - shift2) ** 2) / width2)
    values[idx] += gain * pulse
    return values


def _make_unit(
    duration_s: int, start_ms: int, base_sbp: float, rng: np.random.Generator
) -> BpUnit:
    sbp, dbp = _latent_pressures(duration_s, base_sbp, rng)
    ppg = _ppg_from_pressures(sbp, dbp, rng)
    return BpUnit(
        ppg=SampleSeries(Channel.PPG, PPG_RATE_HZ, start_ms, ppg),
        sbp=SampleSeries(Channel.DERIVED, TARGET_RATE_HZ, start_ms, sbp),
        dbp=SampleSeries(Channel.DERIVED, TARGET_RATE_HZ, start_ms, dbp),
    )


def simulate_bp_records(
    n_records: int = 20,
    mode: BpMode | str = BpMode.SHORT_TERM,
    seed: int = 0,
) -> list[BpRecord]:
    """Short-term: one 30-minute unit per record. Long-term: three contiguous
    one-hour units per record, offset to the beginning/middle/end."""
    mode = BpMode(mode)
    if n_records < 1:
        raise InputError("n_records must be >= 1")
    records = []
    seeds = np.random.SeedSequence(seed).spawn(n_records)
    for i, record_seed in enumerate(seeds):
        rng = np.random.default_rng(record_seed)
        base_sbp = float(rng.uniform(110.0, 150.0))
        if mode is BpMode.SHORT_TERM:
            units = (_make_unit(SHORT_TERM_UNIT_S, 0, base_sbp, rng),)
        else:
            units = tuple(
                _make_unit(LONG_TERM_UNIT_S, offset * 1000, base_sbp, rng)
                for offset in LONG_TERM_UNIT_OFFSETS_S
            )
        records.append(BpRecord(record_id=f"R{i:02d}", units=units))
    return records

