"""Per-window stress feature extractors for the four wristband streams.

Catalog sizes are fixed: 18 EDA, 17 BVP, 6 IBI, 6 ST (47 in total). Each
extractor returns a float64 array in its catalog's name order. Windows that
cannot support an estimator (no peaks, fewer than two beat events) fall back
to 0 for the affected features, so matrices stay rectangular and free of NaN.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import filtfilt

from ..errors import ChannelMissing
from ..signals import Channel, SampleSeries, Window, derivative, detect_peaks, spectrum
from ..signals.windows import hr_series_bpm
from .vectors import FeatureMatrix

EDA_FEATURE_NAMES = (
    "eda_mean",
    "eda_std",
    "eda_min",
    "eda_max",
    "eda_range",
    "eda_slope",
    "eda_tonic_mean",
    "eda_tonic_std",
    "eda_phasic_mean",
    "eda_phasic_std",
    "eda_scr_count",
    "eda_scr_amp_mean",
    "eda_scr_amp_max",
    "eda_scr_amp_sum",
    "eda_scr_rise_mean",
    "eda_deriv_mean",
    "eda_deriv_std",
    "eda_deriv_zero_crossings",
)

BVP_FEATURE_NAMES = (
    "bvp_mean",
    "bvp_std",
    "bvp_min",
    "bvp_max",
    "bvp_rms",
    "bvp_skew",
    "bvp_kurtosis",
    "bvp_peak_count",
    "bvp_pp_interval_mean",
    "bvp_pp_interval_std",
    "bvp_peak_amp_mean",
    "bvp_peak_amp_std",
    "bvp_dominant_freq",
    "bvp_band_energy_low",
    "bvp_band_energy_mid",
    "bvp_band_energy_high",
    "bvp_spectral_entropy",
)

IBI_FEATURE_NAMES = (
    "ibi_mean",
    "ibi_median",
    "ibi_sdnn",
    "ibi_rmssd",
    "ibi_pnn50",
    "ibi_hr_mean",
)

ST_FEATURE_NAMES = ("st_mean", "st_std", "st_min", "st_max", "st_slope", "st_range")

#: Heart-band edges (Hz) for the three BVP band-energy features.
BVP_BANDS = ((0.5, 1.0), (1.0, 1.5), (1.5, 2.5))

TONIC_CUTOFF_HZ = 0.05
SCR_MIN_GAP_S = 1.0
SCR_THRESHOLD_K = 1.0
#: Conductance responses below this trough-to-peak amplitude are treated as
#: noise, not events.
SCR_MIN_AMPLITUDE_US = 0.15
#: Light moving average applied to the phasic component before event
#: detection; sensor noise at 4 Hz otherwise masquerades as micro-responses.
SCR_SMOOTH_TAPS = 3
BVP_PEAK_MIN_GAP_S = 0.3


def _slope_per_second(values: np.ndarray, rate_hz: float) -> float:
    t = np.arange(values.size) / rate_hz
    return float(np.polyfit(t, values, 1)[0])


def _skew_kurtosis(values: np.ndarray) -> tuple[float, float]:
    centered = values - values.mean()
    m2 = float(np.mean(centered**2))
    if m2 <= 0:
        return 0.0, 0.0
    skew = float(np.mean(centered**3)) / m2**1.5
    kurt = float(np.mean(centered**4)) / m2**2 - 3.0  # excess
    return skew, kurt


def _zero_crossings(values: np.ndarray) -> int:
    sign = np.sign(values)
    return int(np.sum(sign[:-1] * sign[1:] < 0))


def _tonic_component(values: np.ndarray, rate_hz: float) -> np.ndarray:
    # Zero-phase single-pole low-pass at TONIC_CUTOFF_HZ: slow conductance level.
    # Unpadded, each pass starts settled at its first sample.
    alpha = float(np.exp(-2.0 * np.pi * TONIC_CUTOFF_HZ / rate_hz))
    return filtfilt([1.0 - alpha], [1.0, -alpha], values, padlen=0)


def _scr_events(phasic: SampleSeries) -> tuple[list[float], list[float]]:
    """Trough-to-peak amplitudes and rise times of phasic conductance bumps."""
    kernel = np.full(SCR_SMOOTH_TAPS, 1.0 / SCR_SMOOTH_TAPS)
    smoothed = np.convolve(phasic.values, kernel, mode="same")
    phasic = phasic.with_values(smoothed)
    peaks = detect_peaks(phasic, min_dist_s=SCR_MIN_GAP_S, threshold_k=SCR_THRESHOLD_K)
    amplitudes: list[float] = []
    rise_times: list[float] = []
    prev = 0
    v = phasic.values
    for p in peaks:
        trough = prev + int(np.argmin(v[prev : p + 1]))
        amplitude = float(v[p] - v[trough])
        if amplitude >= SCR_MIN_AMPLITUDE_US:
            amplitudes.append(amplitude)
            rise_times.append((p - trough) / phasic.rate_hz)
        prev = p
    return amplitudes, rise_times


def eda_features(w: Window) -> np.ndarray:
    s = w.eda
    if len(s) < 2:
        raise ChannelMissing("EDA channel has fewer than 2 samples in window")
    v = s.values
    tonic = _tonic_component(v, s.rate_hz)
    phasic = v - tonic
    phasic_series = s.with_values(phasic, channel=Channel.DERIVED)
    amps, rises = _scr_events(phasic_series)
    d1 = derivative(s, 1).values
    return np.array([
        v.mean(),
        v.std(),
        v.min(),
        v.max(),
        v.max() - v.min(),
        _slope_per_second(v, s.rate_hz),
        tonic.mean(),
        tonic.std(),
        phasic.mean(),
        phasic.std(),
        float(len(amps)),
        float(np.mean(amps)) if amps else 0.0,
        float(np.max(amps)) if amps else 0.0,
        float(np.sum(amps)) if amps else 0.0,
        float(np.mean(rises)) if rises else 0.0,
        d1.mean(),
        d1.std(),
        float(_zero_crossings(d1)),
    ])


def bvp_features(w: Window) -> np.ndarray:
    s = w.bvp
    if len(s) < 2 * s.rate_hz:
        raise ChannelMissing("BVP channel has fewer than 2 s of samples in window")
    v = s.values
    skew, kurt = _skew_kurtosis(v)
    peaks = detect_peaks(s, min_dist_s=BVP_PEAK_MIN_GAP_S)
    peak_amps = v[peaks] if peaks else np.empty(0)
    pp_s = np.diff(np.asarray(peaks)) / s.rate_hz if len(peaks) >= 2 else np.empty(0)

    spec = spectrum(s)
    mags_sq = spec.magnitudes**2
    total_power = float(mags_sq[1:].sum())
    if total_power > 1e-24:
        dominant = float(spec.freqs_hz[1 + int(np.argmax(spec.magnitudes[1:]))])
        p = mags_sq[1:] / total_power
        nonzero = p[p > 0]
        entropy = float(-(nonzero * np.log(nonzero)).sum() / np.log(len(p))) if len(p) > 1 else 0.0
    else:
        dominant = 0.0
        entropy = 0.0
    band_energy = [
        float(mags_sq[(spec.freqs_hz >= lo) & (spec.freqs_hz < hi)].sum())
        for lo, hi in BVP_BANDS
    ]

    return np.array([
        v.mean(),
        v.std(),
        v.min(),
        v.max(),
        float(np.sqrt(np.mean(v**2))),
        skew,
        kurt,
        float(len(peaks)),
        float(pp_s.mean()) if pp_s.size else 0.0,
        float(pp_s.std()) if pp_s.size else 0.0,
        float(peak_amps.mean()) if peak_amps.size else 0.0,
        float(peak_amps.std()) if peak_amps.size else 0.0,
        dominant,
        *band_energy,
        entropy,
    ])


def ibi_features(w: Window) -> np.ndarray:
    events = w.ibi
    if len(events) < 2:
        return np.zeros(len(IBI_FEATURE_NAMES))
    ibi = events.ibi_s
    diffs = np.diff(ibi)
    return np.array([
        float(ibi.mean()),
        float(np.median(ibi)),
        float(ibi.std()),
        float(np.sqrt(np.mean(diffs**2))),
        float(100.0 * np.mean(np.abs(diffs) > 0.050)),
        float(hr_series_bpm(events).mean()),
    ])


def st_features(w: Window) -> np.ndarray:
    s = w.st
    if len(s) < 2:
        raise ChannelMissing("ST channel has fewer than 2 samples in window")
    v = s.values
    return np.array([
        v.mean(),
        v.std(),
        v.min(),
        v.max(),
        _slope_per_second(v, s.rate_hz),
        v.max() - v.min(),
    ])


# Each channel's extractor and catalog, in two tables: a dict value that is
# the function itself is re-pointed by wrappers patched over it by name.
_EXTRACTORS = {
    "EDA": eda_features,
    "BVP": bvp_features,
    "IBI": ibi_features,
    "ST": st_features,
}
_NAMES = {
    "EDA": EDA_FEATURE_NAMES,
    "BVP": BVP_FEATURE_NAMES,
    "IBI": IBI_FEATURE_NAMES,
    "ST": ST_FEATURE_NAMES,
}

#: The four channel combinations reported for the stress classifier.
CHANNEL_COMBINATIONS = (
    ("EDA",),
    ("EDA", "BVP"),
    ("EDA", "BVP", "IBI"),
    ("EDA", "BVP", "IBI", "ST"),
)


def stress_feature_matrix(
    windows: list[Window],
    channels: tuple[str, ...] = ("EDA", "BVP", "IBI", "ST"),
) -> FeatureMatrix:
    """One row per window: the chosen channels' features concatenated in
    EDA-BVP-IBI-ST order (18/35/41/47 columns for the reported combinations)."""
    if not windows:
        raise ChannelMissing("no windows to extract from")
    unknown = [c for c in channels if c not in _EXTRACTORS]
    if unknown:
        raise ChannelMissing(f"unknown channels: {unknown}")
    ordered = [c for c in _EXTRACTORS if c in channels]
    X = np.array([np.concatenate([_EXTRACTORS[c](w) for c in ordered]) for w in windows])
    names = tuple(name for c in ordered for name in _NAMES[c])
    return FeatureMatrix(names, X, [w.bundle.subject_id for w in windows])
