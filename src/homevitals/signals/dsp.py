"""DSP primitives for the preprocessing pipeline and feature extractors.

The low-pass filter is scipy's digital Butterworth design, applied with
scipy.signal.filtfilt (forward-backward, odd-extension padding, steady-state
initial conditions) for zero phase, so detected peak timings are not shifted.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.signal import butter, filtfilt, lfilter

from ..errors import ConfigError, DegenerateInput, InputError
from .series import Channel, FilterConfig, SampleSeries, Spectrum


def detrend(s: SampleSeries) -> SampleSeries:
    """Remove the least-squares line over the sample index.

    Uses the closed-form normal equations rather than a generic solver so a
    constant input maps to exact zeros (no SVD round-off residue).
    """
    n = len(s)
    if n < 2:
        raise DegenerateInput(f"detrend needs at least 2 samples, got {n}")
    x = np.arange(n, dtype=np.float64)
    dx = x - x.mean()
    dy = s.values - s.values.mean()
    slope = float(dx @ dy) / float(dx @ dx)
    return s.with_values(dy - slope * dx)


def minmax_normalize(s: SampleSeries) -> SampleSeries:
    """Affine map of values onto [0, 1]."""
    v = s.values
    if len(s) == 0:
        raise DegenerateInput("cannot normalize an empty series")
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        raise DegenerateInput("constant series has zero range; cannot normalize")
    return s.with_values((v - lo) / (hi - lo))


def modulo_mean_correct(s: SampleSeries) -> SampleSeries:
    """Replace each value v by v - (v mod m) where m is the series mean.

    Defined for non-negative inputs with positive mean (guaranteed after
    minmax_normalize); every output is a non-negative integer multiple of m.
    """
    v = s.values
    if len(s) == 0:
        raise DegenerateInput("cannot modulo-correct an empty series")
    if v.min() < 0:
        raise InputError("modulo_mean_correct requires non-negative values")
    m = float(v.mean())
    if m <= 0:
        raise DegenerateInput("series mean must be positive for modulo correction")
    return s.with_values(v - np.mod(v, m))


def butter_lowpass_coefficients(order_n: int, cutoff_wn: float) -> tuple[np.ndarray, np.ndarray]:
    """Digital low-pass Butterworth (b, a) of the given order.

    cutoff_wn is the -3 dB frequency as a fraction of Nyquist.
    """
    if order_n < 1:
        raise ConfigError(f"order must be >= 1, got {order_n}")
    if not 0.0 < cutoff_wn < 1.0:
        raise ConfigError(f"cutoff_wn must lie in (0, 1), got {cutoff_wn}")
    return butter(order_n, cutoff_wn)


def single_pass_filter(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the recursion once, forward, from the zero state."""
    y, _ = lfilter(b, a, x, zi=np.zeros(max(len(a), len(b)) - 1))
    return y


def zero_phase_filter(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Forward-backward filtering with odd-reflection padding of 3 * taps.

    Padding plus steady-state initial conditions suppress the start/end
    transients, which keeps the DC gain at exactly one.
    """
    x = np.asarray(x, dtype=np.float64)
    edge = 3 * max(len(a), len(b))
    if x.size <= edge:
        raise DegenerateInput(
            f"need more than {edge} samples to zero-phase filter, got {x.size}"
        )
    return filtfilt(b, a, x)


def butterworth_lowpass(
    s: SampleSeries,
    cfg: FilterConfig | None = None,
    design: tuple[np.ndarray, np.ndarray] | None = None,
) -> SampleSeries:
    """Zero-phase low-pass Butterworth of cfg.order_n at cfg.cutoff_wn.

    design is the (b, a) of butter_lowpass_coefficients for cfg, when the
    caller already holds it; cfg is then not read.
    """
    if design is None:
        cfg = cfg or FilterConfig()
        design = butter_lowpass_coefficients(cfg.order_n, cfg.cutoff_wn)
    b, a = design
    return s.with_values(zero_phase_filter(b, a, s.values))


def preprocess_ppg(
    records: Sequence[SampleSeries],
    cfg: FilterConfig | None = None,
    on_step: Callable[[str], None] | None = None,
    design: tuple[np.ndarray, np.ndarray] | None = None,
) -> SampleSeries:
    """Run the full preprocessing pipeline over per-subject PPG records.

    Steps, in fixed order: per-record mean subtraction, concatenation,
    linear detrend, min-max normalization to [0,1], subtraction of the
    value-modulo-mean remainder, zero-phase Butterworth low-pass. A caller
    that filters many records at one rate designs the low-pass once and
    passes its (b, a) as design, in place of cfg.
    """
    if not records:
        raise DegenerateInput("preprocess_ppg needs at least one record")
    rate = records[0].rate_hz
    emit = on_step or (lambda name: None)

    centered = []
    for i, rec in enumerate(records):
        if len(rec) == 0:
            raise DegenerateInput(f"record {i}: empty record")
        if rec.rate_hz != rate:
            raise InputError(f"record {i}: rate {rec.rate_hz} Hz differs from {rate} Hz")
        centered.append(rec.values - rec.values.mean())
    emit("mean-subtract")

    combined = SampleSeries(
        channel=Channel.PPG if records[0].channel == Channel.PPG else records[0].channel,
        rate_hz=rate,
        start_ms=records[0].start_ms,
        values=np.concatenate(centered),
    )
    emit("concat")

    try:
        combined = detrend(combined)
        emit("detrend")
        combined = minmax_normalize(combined)
        emit("normalize")
        combined = modulo_mean_correct(combined)
        emit("mod-subtract")
        combined = butterworth_lowpass(combined, cfg, design)
        emit("filter")
    except (DegenerateInput, InputError) as exc:
        raise type(exc)(f"preprocess_ppg over {len(records)} record(s): {exc}") from exc
    return combined


def derivative(s: SampleSeries, order: int = 1) -> SampleSeries:
    """Central finite differences scaled by the sampling rate; one-sided at the ends."""
    if order not in (1, 2):
        raise InputError(f"derivative order must be 1 or 2, got {order}")
    n = len(s)
    if n < order + 1:
        raise DegenerateInput(f"derivative of order {order} needs {order + 1} samples, got {n}")
    v = s.values
    r = s.rate_hz
    out = np.empty(n)
    if order == 1:
        out[1:-1] = (v[2:] - v[:-2]) * (r / 2.0)
        out[0] = (v[1] - v[0]) * r
        out[-1] = (v[-1] - v[-2]) * r
    else:
        if n >= 3:
            out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) * (r * r)
            out[0] = (v[2] - 2.0 * v[1] + v[0]) * (r * r)
            out[-1] = (v[-1] - 2.0 * v[-2] + v[-3]) * (r * r)
        else:  # n == 2 cannot support a second difference
            raise DegenerateInput("second derivative needs at least 3 samples")
    return s.with_values(out, channel=Channel.DERIVED)


def spectrum(s: SampleSeries) -> Spectrum:
    """One-sided magnitude spectrum of the mean-removed series."""
    n = len(s)
    if n < 8:
        raise DegenerateInput(f"spectrum needs at least 8 samples, got {n}")
    centered = s.values - s.values.mean()
    mags = np.abs(np.fft.rfft(centered))
    freqs = np.fft.rfftfreq(n, d=1.0 / s.rate_hz)
    return Spectrum(freqs_hz=freqs, magnitudes=mags)


def detect_peaks(s: SampleSeries, min_dist_s: float = 0.0, threshold_k: float = 0.5) -> list[int]:
    """Indices of strict local maxima above mean + threshold_k * std.

    Candidates closer than min_dist_s are thinned greedily: visiting them
    largest first (earlier index wins ties), each kept peak suppresses every
    candidate less than min_dist_s away. Index gaps are whole numbers, so
    they are compared against ceil(min_dist_s * rate_hz) without rounding.
    """
    v = s.values
    n = len(s)
    if n < 3:
        raise DegenerateInput(f"peak detection needs at least 3 samples, got {n}")
    threshold = v.mean() + threshold_k * v.std()
    core = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]) & (v[1:-1] > threshold)
    candidates = np.flatnonzero(core) + 1
    if candidates.size == 0 or min_dist_s <= 0:
        return [int(i) for i in candidates]
    reach = np.ceil(min_dist_s * s.rate_hz) - 1  # largest gap that suppresses
    lo = np.searchsorted(candidates, candidates - reach, side="left")
    hi = np.searchsorted(candidates, candidates + reach, side="right")
    keep = np.ones(candidates.size, dtype=bool)
    for i in np.argsort(-v[candidates], kind="stable").tolist():
        if keep[i]:
            keep[lo[i] : hi[i]] = False
            keep[i] = True
    return candidates[keep].tolist()
