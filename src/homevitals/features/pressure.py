"""Blood-pressure feature catalogs extracted from a PPG segment.

The segment is run through the preprocessing pipeline, whose low-pass is
the one PPG design, signals.ppg_lowpass: order 4 at 8 Hz, placed for the
segment's rate and designed once per rate per process, so training rows and
queries are filtered alike. The segment is then decomposed into six streams:
the processed signal, its first and second derivatives, the magnitude
spectrum, and the spectrum's first and second derivatives along the frequency
axis. Each stream contributes 15 statistics (90 features); 16 more come from
the detected spectral peaks (8 statistics of peak frequencies and 8 of peak
amplitudes), totalling 106. The reduced set keeps the 10 max/min features of
peak frequency, peak amplitude, signal, and both derivatives. It is computed directly from the shared front half
(preprocessing, derivatives, spectrum, spectral peaks) without the other 96
statistics, and its values equal the catalog's identically named columns bit
for bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateInput
from ..signals import (
    Channel,
    SampleSeries,
    derivative,
    detect_peaks,
    preprocess_ppg,
    spectrum,
)
from .stress import _skew_kurtosis

STREAM_NAMES = ("ppg", "d1", "d2", "fft", "fft_d1", "fft_d2")

STAT_NAMES = (
    "mean",
    "std",
    "var",
    "min",
    "max",
    "range",
    "median",
    "p25",
    "p75",
    "iqr",
    "rms",
    "skew",
    "kurtosis",
    "mad",
    "mean_abs_change",
)

_PEAK_STAT_NAMES = ("max", "min", "mean", "rms", "skew", "kurtosis", "std", "median")

#: Full 106-name catalog, fixed order: 6 streams x 15 stats, then peak stats.
BP_FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{stream}_{stat}" for stream in STREAM_NAMES for stat in STAT_NAMES
) + tuple(f"peak_freq_{s}" for s in _PEAK_STAT_NAMES) + tuple(
    f"peak_amp_{s}" for s in _PEAK_STAT_NAMES
)

BP_REDUCED_NAMES = (
    "peak_freq_max",
    "peak_freq_min",
    "peak_amp_max",
    "peak_amp_min",
    "ppg_max",
    "ppg_min",
    "d1_max",
    "d1_min",
    "d2_max",
    "d2_min",
)

MIN_SEGMENT_S = 5.0
SPECTRAL_PEAK_MIN_GAP_HZ = 0.25
SPECTRAL_PEAK_THRESHOLD_K = 1.0
# Leakage splash from the quantization step is broadband but small; real
# harmonic peaks sit well above this fraction of the dominant line.
SPECTRAL_PEAK_RELATIVE_FLOOR = 0.05


def _stream_stats(values: np.ndarray) -> list[float]:
    skew, kurt = _skew_kurtosis(values)
    p25, p75 = np.percentile(values, [25, 75])
    return [
        float(values.mean()),
        float(values.std()),
        float(values.var()),
        float(values.min()),
        float(values.max()),
        float(values.max() - values.min()),
        float(np.median(values)),
        float(p25),
        float(p75),
        float(p75 - p25),
        float(np.sqrt(np.mean(values**2))),
        skew,
        kurt,
        float(np.median(np.abs(values - np.median(values)))),
        float(np.mean(np.abs(np.diff(values)))) if values.size > 1 else 0.0,
    ]


def _peak_stats(values: np.ndarray) -> list[float]:
    if values.size == 0:
        return [0.0] * len(_PEAK_STAT_NAMES)
    skew, kurt = _skew_kurtosis(values)
    return [
        float(values.max()),
        float(values.min()),
        float(values.mean()),
        float(np.sqrt(np.mean(values**2))),
        skew,
        kurt,
        float(values.std()),
        float(np.median(values)),
    ]


def _decompose(
    segment: SampleSeries,
) -> tuple[SampleSeries, SampleSeries, SampleSeries, SampleSeries, np.ndarray, np.ndarray]:
    """The front half both extractors share: the processed signal, its two
    derivatives, the spectrum as a series along frequency, and the frequencies
    and amplitudes of the spectral peaks above the relative floor."""
    if segment.duration_s < MIN_SEGMENT_S:
        raise DegenerateInput(
            f"segment covers {segment.duration_s:.2f} s; need >= {MIN_SEGMENT_S} s"
        )
    processed = preprocess_ppg([segment])
    d1 = derivative(processed, 1)
    d2 = derivative(processed, 2)

    spec = spectrum(processed)
    df = spec.freqs_hz[1] - spec.freqs_hz[0]
    # Wrap the spectrum as a series sampled along frequency (1/df bins per Hz)
    # so the same finite-difference operator yields d/df of the magnitudes.
    spec_series = SampleSeries(Channel.DERIVED, 1.0 / df, 0, spec.magnitudes)

    peak_idx = detect_peaks(
        spec_series,
        min_dist_s=SPECTRAL_PEAK_MIN_GAP_HZ,
        threshold_k=SPECTRAL_PEAK_THRESHOLD_K,
    )
    floor = SPECTRAL_PEAK_RELATIVE_FLOOR * spec.magnitudes.max()
    peak_idx = [i for i in peak_idx if spec.magnitudes[i] >= floor]
    return processed, d1, d2, spec_series, spec.freqs_hz[peak_idx], spec.magnitudes[peak_idx]


def bp_feature_vector(segment: SampleSeries) -> np.ndarray:
    """All 106 features for one PPG segment (>= 5 s), in BP_FEATURE_NAMES order."""
    processed, d1, d2, spec_series, peak_freqs, peak_amps = _decompose(segment)
    values: list[float] = []
    for stream in (
        processed.values,
        d1.values,
        d2.values,
        spec_series.values,
        derivative(spec_series, 1).values,
        derivative(spec_series, 2).values,
    ):
        values.extend(_stream_stats(stream))
    values.extend(_peak_stats(peak_freqs))
    values.extend(_peak_stats(peak_amps))
    return np.array(values)


def bp_reduced_features(segment: SampleSeries) -> np.ndarray:
    """The 10-feature set, in BP_REDUCED_NAMES order: max/min of peak
    frequency, peak amplitude, signal, first derivative, and second
    derivative. Only these are computed; their values equal the identically
    named columns of the full catalog."""
    processed, d1, d2, _, peak_freqs, peak_amps = _decompose(segment)
    values: list[float] = []
    for peaks in (peak_freqs, peak_amps):
        values += [float(peaks.max()), float(peaks.min())] if peaks.size else [0.0, 0.0]
    for stream in (processed.values, d1.values, d2.values):
        values += [float(stream.max()), float(stream.min())]
    return np.array(values)
