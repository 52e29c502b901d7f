"""Blood-pressure catalogs: 106/10 counts, named columns, reduced-set equality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pulse_wave
from homevitals.errors import DegenerateInput, HomevitalsError
from homevitals.features import (
    BP_FEATURE_NAMES,
    BP_REDUCED_NAMES,
    bp_feature_vector,
    bp_reduced_features,
    pressure,
)
from homevitals.signals import Channel, FilterConfig, SampleSeries


def ppg_segment(duration_s=20.0, freq=1.4, noise=0.01, seed=0):
    return SampleSeries(
        Channel.PPG, 125.0, 0, pulse_wave(duration_s, 125.0, freq, noise=noise, seed=seed)
    )


def reduced_columns(full):
    return full.values[[full.names.index(n) for n in BP_REDUCED_NAMES]]


def test_catalog_is_106_columns():
    fv = bp_feature_vector(ppg_segment())
    assert len(fv.names) == 106
    assert fv.names == BP_FEATURE_NAMES
    assert np.all(np.isfinite(fv.values))


def test_catalog_arithmetic():
    # 6 streams x 15 statistics + 8 peak-frequency + 8 peak-amplitude stats.
    assert len(BP_FEATURE_NAMES) == 6 * 15 + 16


def test_paper_named_characteristics_present():
    for name in (
        "peak_freq_max",
        "peak_freq_min",
        "peak_freq_skew",
        "peak_freq_kurtosis",
        "peak_freq_mean",
        "peak_freq_rms",
        "peak_amp_max",
        "peak_amp_min",
    ):
        assert name in BP_FEATURE_NAMES


def test_constant_segment_rejected():
    constant = SampleSeries(Channel.PPG, 125.0, 0, np.full(125 * 10, 0.8))
    with pytest.raises(DegenerateInput):
        bp_feature_vector(constant)


def test_short_segment_rejected():
    with pytest.raises(DegenerateInput):
        bp_feature_vector(ppg_segment(duration_s=4.0))


def test_reduced_set_is_10_and_matches_full_catalog():
    seg = ppg_segment(seed=3)
    full = bp_feature_vector(seg)
    reduced = bp_reduced_features(seg)
    assert len(reduced.names) == 10
    assert reduced.names == BP_REDUCED_NAMES
    assert set(reduced.names) <= set(full.names)
    assert reduced.values.tobytes() == reduced_columns(full).tobytes()


def test_pure_sine_single_spectral_peak():
    t = np.arange(125 * 16) / 125.0
    seg = SampleSeries(Channel.PPG, 125.0, 0, np.sin(2 * np.pi * 5.0 * t))
    fv = bp_reduced_features(seg)
    assert fv["peak_freq_max"] == pytest.approx(5.0, abs=0.3)
    assert fv["peak_freq_min"] == pytest.approx(5.0, abs=0.3)


def test_extraction_deterministic():
    seg = ppg_segment(seed=9)
    a = bp_feature_vector(seg)
    b = bp_feature_vector(seg)
    assert np.array_equal(a.values, b.values)


# -- the reduced path against the full catalog ---------------------------------


@st.composite
def segments(draw):
    """A segment at a common wearable rate: mostly 5-60 s harmonic mixtures
    plus noise, sometimes too short or constant."""
    rate = draw(st.sampled_from([32.0, 64.0, 125.0, 128.0, 250.0]))
    kind = draw(st.sampled_from(["mixture"] * 8 + ["short", "constant"]))
    if kind == "short":
        duration_s = draw(st.floats(0.5, 4.99))
    else:
        duration_s = draw(st.floats(5.0, 60.0))
    n = int(duration_s * rate)
    if kind == "constant":
        return SampleSeries(Channel.PPG, rate, 0, np.full(n, draw(st.floats(-5.0, 5.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n) / rate
    fundamental = draw(st.floats(0.5, 3.5))
    values = np.zeros(n)
    for k in range(1, draw(st.integers(1, 5)) + 1):
        amplitude = rng.uniform(0.05, 1.0) / k
        values += amplitude * np.sin(2 * np.pi * k * fundamental * t + rng.uniform(0, 2 * np.pi))
    values += draw(st.sampled_from([0.0, 0.01, 0.1, 0.5])) * rng.normal(size=n)
    values += rng.uniform(-1.0, 1.0) * t / t[-1]  # baseline drift
    return SampleSeries(Channel.PPG, rate, draw(st.integers(0, 10**6)), values)


def extract(extractor, segment, cfg, subject_id):
    try:
        return extractor(segment, cfg, origin="7", subject_id=subject_id)
    except HomevitalsError as exc:
        return type(exc)


@settings(max_examples=120, deadline=None)
@given(
    segment=segments(),
    filter_params=st.sampled_from([None, (8.0, 4), (4.0, 2), (12.0, 3)]),
    subject_id=st.sampled_from(["", "S07"]),
)
def test_reduced_path_equals_catalog_columns_exactly(segment, filter_params, subject_id):
    cfg = None if filter_params is None else FilterConfig.for_rate(segment.rate_hz, *filter_params)
    full = extract(bp_feature_vector, segment, cfg, subject_id)
    reduced = extract(bp_reduced_features, segment, cfg, subject_id)
    if isinstance(full, type):
        assert reduced is full
        return
    assert reduced.names == BP_REDUCED_NAMES
    assert reduced.values.tobytes() == reduced_columns(full).tobytes()
    assert (reduced.flags, reduced.origin, reduced.subject_id) == (
        full.flags,
        full.origin,
        full.subject_id,
    )


def test_no_spectral_peaks_gives_zeros_and_flag_on_both_paths(monkeypatch):
    monkeypatch.setattr(pressure, "detect_peaks", lambda *args, **kwargs: [])
    seg = ppg_segment(seed=4)
    full = bp_feature_vector(seg)
    reduced = bp_reduced_features(seg)
    assert full.flags == reduced.flags == ("bp_no_spectral_peaks",)
    assert reduced.values.tobytes() == reduced_columns(full).tobytes()
    assert reduced.values[:4].tolist() == [0.0, 0.0, 0.0, 0.0]
