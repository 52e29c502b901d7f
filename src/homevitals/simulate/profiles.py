"""Subject profiles and session scripts for the synthetic cohort.

The cohort's cortisol trajectories are calibrated so per-timepoint means land
on the reference targets while per-subject responder amplitudes still spread
enough for the ratio labeling rule to mark the strong responders stressed.
The same amplitude scales every channel's stress effect, which ties labels to
signal structure and makes the classification task learnable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import InputError
from ..labeling import Phase, SessionTimeline

MIN_MS = 60_000

#: Calibration targets (ug/dL) for the synthetic cohort's cortisol summary:
#: per-timepoint mean and the T1 spread, T1..T5 sampled 20 minutes apart.
COHORT_CORTISOL_MEANS_UGDL = (0.185, 0.189, 0.172, 0.154, 0.137)
COHORT_CORTISOL_T1_SD_UGDL = 0.138

#: Relative cortisol response per timepoint for a unit-amplitude responder.
#: Cortisol lags the stressor, peaking at the first post-stress sample.
CORTISOL_RESPONSE_SHAPE = (0.0, 0.8, 1.2, 0.35, 0.05)


@dataclass(frozen=True)
class SyntheticProfile:
    """The per-subject values the cohort varies; the physiology constants
    every subject shares live in `stress_session`."""

    subject_id: str
    stress_amplitude: float = 0.8
    baseline_hr_bpm: float = 70.0
    baseline_eda_us: float = 2.0
    baseline_st_c: float = 33.5
    cortisol_baseline_ugdl: float = 0.185

    def __post_init__(self) -> None:
        if self.stress_amplitude < 0:
            raise InputError("stress_amplitude must be non-negative")

    def without_stress_response(self) -> "SyntheticProfile":
        return replace(self, stress_amplitude=0.0)


@dataclass(frozen=True)
class SessionScript:
    """Phase layout and cortisol sampling times."""

    timeline: SessionTimeline
    cortisol_times_ms: tuple[int, int, int, int, int]
    cortisol_decline: tuple[float, float, float, float, float]

    @property
    def recording_duration_s(self) -> float:
        start, end = self.timeline.recording_span_ms
        return (end - start) / 1000.0

    @property
    def recording_start_ms(self) -> int:
        return self.timeline.recording_span_ms[0]


def default_session_timeline() -> SessionTimeline:
    """Waiting, pre-stress, anticipation, stress (speech + math), two recoveries;
    recording covers pre-stress through the first recovery (50 minutes)."""
    return SessionTimeline(
        boundaries=(
            (Phase.WAITING, -10 * MIN_MS),
            (Phase.PRE_STRESS, 0),
            (Phase.ANTICIPATORY_STRESS, 10 * MIN_MS),
            (Phase.STRESS, 20 * MIN_MS),
            (Phase.RECOVERY_1, 30 * MIN_MS),
            (Phase.RECOVERY_2, 50 * MIN_MS),
        )
    )


def default_session_script(mean_cohort_amplitude: float | None = None) -> SessionScript:
    """TSST-like script: T1 mid pre-stress, then 20-minute spacing.

    cortisol_decline makes the cohort's expected per-timepoint means track the
    calibration targets given the cohort's mean responder amplitude.
    """
    amp = DEFAULT_MEAN_AMPLITUDE if mean_cohort_amplitude is None else mean_cohort_amplitude
    base = COHORT_CORTISOL_MEANS_UGDL[0]
    decline = tuple(
        (target / base) / (1.0 + amp * r)
        for target, r in zip(COHORT_CORTISOL_MEANS_UGDL, CORTISOL_RESPONSE_SHAPE)
    )
    t1 = 9 * MIN_MS
    return SessionScript(
        timeline=default_session_timeline(),
        cortisol_times_ms=tuple(t1 + i * 20 * MIN_MS for i in range(5)),
        cortisol_decline=decline,
    )


RESPONDER_FRACTION = 0.45
RESPONDER_AMPLITUDE_RANGE = (0.75, 1.0)
NON_RESPONDER_AMPLITUDE_RANGE = (0.0, 0.06)
DEFAULT_MEAN_AMPLITUDE = RESPONDER_FRACTION * float(
    np.mean(RESPONDER_AMPLITUDE_RANGE)
) + (1 - RESPONDER_FRACTION) * float(np.mean(NON_RESPONDER_AMPLITUDE_RANGE))


def _stratified_lognormal(n: int, mean: float, sd: float, rng: np.random.Generator) -> np.ndarray:
    """Lognormal draws moment-matched to (mean, sd), stratified over quantiles
    so small-cohort sample statistics sit close to the targets."""
    sigma2 = np.log(1.0 + (sd / mean) ** 2)
    mu = np.log(mean) - sigma2 / 2.0
    grid = (np.arange(n) + 0.5) / n
    z = np.array([_probit(p) for p in grid])
    values = np.exp(mu + np.sqrt(sigma2) * z)
    rng.shuffle(values)
    return values


def _probit(p: float) -> float:
    # Acklam-style rational approximation; plenty for stratification grids.
    a = [-39.69683028665376, 220.9460984245205, -275.9285104469687,
         138.3577518672690, -30.66479806614716, 2.506628277459239]
    b = [-54.47609879822406, 161.5858368580409, -155.6989798598866,
         66.80131188771972, -13.28068155288572]
    c = [-0.007784894002430293, -0.3223964580411365, -2.400758277161838,
         -2.549732539343734, 4.374664141464968, 2.938163982698783]
    d = [0.007784695709041462, 0.3224671290700398, 2.445134137142996,
         3.754408661907416]
    p_low = 0.02425
    if p < p_low:
        q = np.sqrt(-2 * np.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if p > 1 - p_low:
        return -_probit(1 - p)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
    )


def generate_cohort(
    n_subjects: int = 40, seed: int = 0
) -> tuple[list[SyntheticProfile], SessionScript]:
    """Profiles plus a shared script whose cortisol decline is calibrated to
    the cohort's actual mean amplitude."""
    if n_subjects < 1:
        raise InputError("n_subjects must be >= 1")
    rng = np.random.default_rng(seed)
    baselines = _stratified_lognormal(
        n_subjects, COHORT_CORTISOL_MEANS_UGDL[0], COHORT_CORTISOL_T1_SD_UGDL, rng
    )
    n_responders = int(round(RESPONDER_FRACTION * n_subjects))
    amplitudes = np.concatenate(
        [
            rng.uniform(*RESPONDER_AMPLITUDE_RANGE, size=n_responders),
            rng.uniform(*NON_RESPONDER_AMPLITUDE_RANGE, size=n_subjects - n_responders),
        ]
    )
    rng.shuffle(amplitudes)
    profiles = [
        SyntheticProfile(
            subject_id=f"S{i:02d}",
            stress_amplitude=float(amplitudes[i]),
            baseline_hr_bpm=float(rng.uniform(60.0, 80.0)),
            baseline_eda_us=float(rng.uniform(1.2, 3.0)),
            baseline_st_c=float(rng.uniform(32.8, 34.4)),
            cortisol_baseline_ugdl=float(baselines[i]),
        )
        for i in range(n_subjects)
    ]
    script = default_session_script(
        mean_cohort_amplitude=float(np.mean(amplitudes)) if n_subjects > 1 else None
    )
    return profiles, script
