"""DSP operation tests: exact examples, measured filter responses, oracles."""

import numpy as np
import pytest
import scipy.signal
from hypothesis import given
from hypothesis import strategies as st

from homevitals.errors import ConfigError, DegenerateInput, InputError
from homevitals.signals import (
    Channel,
    SampleSeries,
    butter_lowpass_coefficients,
    derivative,
    detect_peaks,
    detrend,
    minmax_normalize,
    modulo_mean_correct,
    ppg_lowpass,
    preprocess_ppg,
    single_pass_filter,
    spectrum,
    zero_phase_filter,
)


def series(values, rate=125.0, channel=Channel.PPG, start_ms=0):
    return SampleSeries(channel=channel, rate_hz=rate, start_ms=start_ms, values=values)


def greedy_peaks(s, min_dist_s=0.0, threshold_k=0.5):
    """Reference thinning: O(k^2) greedy over candidates, largest first."""
    v = s.values
    threshold = v.mean() + threshold_k * v.std()
    candidates = [
        i
        for i in range(1, len(v) - 1)
        if v[i] > v[i - 1] and v[i] > v[i + 1] and v[i] > threshold
    ]
    if not candidates or min_dist_s <= 0:
        return candidates
    min_gap = min_dist_s * s.rate_hz
    kept = []
    for idx in sorted(candidates, key=lambda i: (-v[i], i)):
        if all(abs(idx - j) >= min_gap for j in kept):
            kept.append(idx)
    return sorted(kept)


class TestDetrend:
    def test_line_removed_exactly(self):
        out = detrend(series([1, 2, 3, 4]))
        assert np.allclose(out.values, 0.0, atol=1e-9)

    def test_constant_is_a_line(self):
        out = detrend(series([5, 5, 5]))
        assert np.allclose(out.values, 0.0, atol=1e-9)

    def test_residual_slope_vanishes(self):
        i = np.arange(500)
        wave = np.sin(2 * np.pi * i / 40.0) + 0.1 * i
        out = detrend(series(wave))
        refit_slope = np.polyfit(i, out.values, 1)[0]
        assert abs(refit_slope) < 1e-6

    def test_idempotent(self, rng):
        s = series(rng.normal(size=300))
        once = detrend(s)
        twice = detrend(once)
        assert np.allclose(once.values, twice.values, atol=1e-9)

    def test_too_short(self):
        with pytest.raises(DegenerateInput):
            detrend(series([1.0]))


class TestMinmaxNormalize:
    def test_affine_map(self):
        assert np.allclose(minmax_normalize(series([2, 4, 6])).values, [0, 0.5, 1])

    def test_two_points(self):
        assert np.allclose(minmax_normalize(series([-1, 1])).values, [0, 1])

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInput):
            minmax_normalize(series([3, 3, 3]))

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=50,
        ).filter(lambda v: max(v) > min(v))
    )
    def test_range_exact_and_mean_interior(self, values):
        out = minmax_normalize(series(values)).values
        assert out.min() == 0.0
        assert out.max() == 1.0
        assert 0.0 < out.mean() < 1.0


class TestModuloMeanCorrect:
    def test_hand_case_multiples_preserved(self):
        # m = 0.5; every value is already a multiple of the mean.
        out = modulo_mean_correct(series([0.0, 0.5, 1.0]))
        assert np.allclose(out.values, [0.0, 0.5, 1.0], atol=1e-12)

    def test_hand_case_remainders(self):
        # m = 0.3: 0.2 mod 0.3 = 0.2 -> 0.0; 0.4 mod 0.3 = 0.1 -> 0.3
        out = modulo_mean_correct(series([0.2, 0.4]))
        assert np.allclose(out.values, [0.0, 0.3], atol=1e-12)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=50,
        ).filter(lambda v: sum(v) > 0)
    )
    def test_outputs_are_integer_multiples_of_mean(self, values):
        s = series(values)
        m = s.values.mean()
        out = modulo_mean_correct(s).values
        ratios = out / m
        assert np.all(np.abs(ratios - np.rint(ratios)) < 1e-9)
        assert out.min() >= 0.0

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            modulo_mean_correct(series([-0.1, 0.5]))


class TestButterworth:
    def test_coefficients_match_scipy(self):
        for order in (1, 2, 3, 4, 5, 6):
            for wn in (0.05, 0.128, 0.3, 0.7):
                b, a = butter_lowpass_coefficients(order, wn)
                b_ref, a_ref = scipy.signal.butter(order, wn, btype="low")
                assert np.allclose(b, b_ref, atol=1e-12), (order, wn)
                assert np.allclose(a, a_ref, atol=1e-12), (order, wn)

    def test_dc_gain_unity(self):
        out = zero_phase_filter(*butter_lowpass_coefficients(4, 0.128), np.full(400, 3.7))
        assert np.allclose(out, 3.7, atol=1e-6)

    def test_single_pass_cutoff_magnitude(self):
        # Sine sweep at the cutoff: single-pass gain must be 1/sqrt(2) +- 0.01,
        # so the forward-backward response is its square, 0.5 +- 0.02.
        rate, wn = 125.0, 0.2
        f_cut = wn * rate / 2.0
        t = np.arange(int(rate * 60)) / rate
        x = np.sin(2 * np.pi * f_cut * t)
        b, a = butter_lowpass_coefficients(4, wn)
        y = single_pass_filter(b, a, x)
        steady = slice(len(x) // 2, None)
        gain = np.sqrt(np.mean(y[steady] ** 2) / np.mean(x[steady] ** 2))
        assert abs(gain - 1 / np.sqrt(2)) < 0.01
        y2 = zero_phase_filter(b, a, x)
        gain2 = np.sqrt(np.mean(y2[steady] ** 2) / np.mean(x[steady] ** 2))
        assert abs(gain2 - 0.5) < 0.02

    def test_stopband_attenuation(self):
        rate = 125.0
        nyq = rate / 2.0
        t = np.arange(int(rate * 30)) / rate
        x = np.sin(2 * np.pi * (0.9 * nyq) * t)
        out = zero_phase_filter(*butter_lowpass_coefficients(4, 0.1), x)
        assert np.sqrt(np.mean(out**2)) < 0.02 * np.sqrt(np.mean(x**2))

    def test_linearity(self, rng):
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        b, a = butter_lowpass_coefficients(4, 0.3)
        fx = zero_phase_filter(b, a, x)
        fy = zero_phase_filter(b, a, y)
        fcombo = zero_phase_filter(b, a, 2.5 * x - 1.25 * y)
        assert np.allclose(fcombo, 2.5 * fx - 1.25 * fy, atol=1e-9)

    def test_bad_cutoff_rejected(self):
        for wn in (1.0, 1.2):
            with pytest.raises(ConfigError):
                butter_lowpass_coefficients(4, wn)

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateInput):
            zero_phase_filter(*butter_lowpass_coefficients(4, 0.2), np.ones(12))


class TestPpgLowpass:
    def test_order_4_at_8_hz_for_the_rate(self):
        for rate in (17.0, 64.0, 125.0, 250.0):
            b, a = ppg_lowpass(rate)
            b_ref, a_ref = scipy.signal.butter(4, 8 / (rate / 2))
            assert b.tobytes() == b_ref.tobytes() and a.tobytes() == a_ref.tobytes()

    def test_design_arrays_are_read_only(self):
        for array in ppg_lowpass(125.0):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_rates_at_most_twice_the_cutoff_rejected(self):
        for rate in (16.0, 12.0):
            with pytest.raises(ConfigError, match="cutoff_wn"):
                ppg_lowpass(rate)


class TestPreprocessPpg:
    def _pulse(self, n, rate=125.0, f=1.3, seed=0):
        rng = np.random.default_rng(seed)
        t = np.arange(n) / rate
        base = np.exp(3.0 * (np.cos(2 * np.pi * f * t) - 1))
        return base + 0.01 * rng.normal(size=n)

    def test_output_length_is_sum(self):
        r1 = series(self._pulse(100))
        r2 = series(self._pulse(50, seed=1))
        out = preprocess_ppg([r1, r2])
        assert len(out) == 150

    def test_step_order_emitted(self):
        steps = []
        preprocess_ppg([series(self._pulse(300))], on_step=steps.append)
        assert steps == ["mean-subtract", "concat", "detrend", "normalize", "mod-subtract", "filter"]

    def test_filters_with_the_design_for_the_records_rate(self):
        # The steps before the filter, then filtfilt of butter(4, 8 Hz) placed
        # for the record's own rate.
        for rate in (64.0, 250.0):
            record = series(self._pulse(int(rate * 20), rate=rate), rate=rate)
            centered = record.with_values(record.values - record.values.mean())
            staged = modulo_mean_correct(minmax_normalize(detrend(centered))).values
            expected = zero_phase_filter(*scipy.signal.butter(4, 8 / (rate / 2)), staged)
            assert preprocess_ppg([record]).values.tobytes() == expected.tobytes()

    def test_mean_subtract_centers_each_record(self):
        records = [series(self._pulse(200, seed=s)) for s in range(3)]
        centered = [r.values - r.values.mean() for r in records]
        for c in centered:
            assert abs(c.mean()) < 1e-9

    def test_rerun_correlates(self):
        records = [series(self._pulse(1500, seed=s)) for s in (3, 4)]
        a = preprocess_ppg(records).values
        b = preprocess_ppg(records).values
        corr = np.corrcoef(a, b)[0, 1]
        assert corr >= 0.999

    def test_error_carries_record_index(self):
        good = series(self._pulse(100))
        with pytest.raises(DegenerateInput, match="record 1"):
            preprocess_ppg([good, series([], rate=125.0)])

    def test_rate_mismatch_rejected(self):
        with pytest.raises(InputError, match="record 1"):
            preprocess_ppg([series(self._pulse(100)), series(self._pulse(100), rate=64.0, channel=Channel.BVP)])


class TestDerivative:
    def test_linear_ramp(self):
        rate = 50.0
        k = 0.75
        v = k * np.arange(200)
        out = derivative(series(v, rate=rate), 1)
        assert np.allclose(out.values[1:-1], k * rate, atol=1e-9)

    def test_quadratic_second_derivative_constant(self):
        rate = 10.0
        i = np.arange(100, dtype=float)
        out = derivative(series(i**2, rate=rate), 2)
        interior = out.values[1:-1]
        assert np.allclose(interior, interior[0])

    def test_sine_amplitude(self):
        rate = 500.0
        f = 3.0
        t = np.arange(int(rate * 4)) / rate
        out = derivative(series(np.sin(2 * np.pi * f * t), rate=rate), 1)
        measured = np.max(np.abs(out.values[1:-1]))
        assert measured == pytest.approx(2 * np.pi * f, rel=0.02)

    def test_too_short(self):
        with pytest.raises(DegenerateInput):
            derivative(series([1.0, 2.0]), 2)


class TestSpectrum:
    def test_sine_peak_bin(self):
        rate, n, f = 125.0, 1024, 5.0
        t = np.arange(n) / rate
        spec = spectrum(series(np.sin(2 * np.pi * f * t), rate=rate))
        peak_freq = spec.freqs_hz[np.argmax(spec.magnitudes)]
        assert abs(peak_freq - f) <= rate / n

    def test_constant_input_silent(self):
        spec = spectrum(series(np.full(64, 2.0)))
        assert np.all(spec.magnitudes < 1e-9)

    def test_parseval(self, rng):
        for n in (64, 255, 1000):
            x = rng.normal(size=n)
            s = series(x)
            spec = spectrum(s)
            centered = x - x.mean()
            time_energy = np.sum(centered**2)
            mags_sq = spec.magnitudes**2
            # One-sided doubling: every interior bin represents two rfft bins.
            weights = np.full(len(mags_sq), 2.0)
            weights[0] = 1.0
            if n % 2 == 0:
                weights[-1] = 1.0
            freq_energy = np.sum(weights * mags_sq) / n
            assert freq_energy == pytest.approx(time_energy, rel=1e-6)


class TestDetectPeaks:
    def test_alternating(self):
        idx = detect_peaks(series([0, 1, 0, 1, 0], rate=4.0, channel=Channel.EDA), 0.0, 0.0)
        assert idx == [1, 3]

    def test_monotone_ramp_empty(self):
        assert detect_peaks(series(np.arange(10.0)), 0.0, 0.0) == []

    def test_pulse_train_count(self):
        rate, dur, f = 64.0, 30.0, 1.0
        t = np.arange(int(rate * dur)) / rate
        v = np.exp(4.0 * (np.cos(2 * np.pi * f * t) - 1))
        peaks = detect_peaks(series(v, rate=rate, channel=Channel.BVP), min_dist_s=0.3)
        assert abs(len(peaks) - 30) <= 1

    def test_min_distance_keeps_larger(self):
        v = [0, 5, 0, 3, 0, 0, 0, 0, 0, 4, 0]
        idx = detect_peaks(series(v, rate=1.0), min_dist_s=3.0, threshold_k=0.0)
        assert 1 in idx and 3 not in idx and 9 in idx

    @given(
        values=st.lists(st.integers(0, 6), min_size=3, max_size=400),
        rate=st.sampled_from([1.0, 4.0, 62.5, 64.0, 125.0]),
        min_dist_s=st.one_of(
            st.sampled_from([0.0, 0.3, 0.05, 1.0]), st.floats(0.0, 3.0, allow_nan=False)
        ),
        threshold_k=st.sampled_from([-1.0, 0.0, 0.5]),
    )
    def test_matches_greedy_reference(self, values, rate, min_dist_s, threshold_k):
        # Small integer values give amplitude ties; 0.3 s at 64 Hz is a
        # fractional gap of 19.2 samples.
        s = series(np.asarray(values, dtype=np.float64), rate=rate)
        assert detect_peaks(s, min_dist_s, threshold_k) == greedy_peaks(s, min_dist_s, threshold_k)

    @pytest.mark.parametrize(
        "rate, min_dist_s, gap, kept",
        [
            # 0.3 s at 64 Hz is 19.2 samples: a gap of 19 suppresses, 20 does not.
            (64.0, 0.3, 19, False),
            (64.0, 0.3, 20, True),
            # 1 s at 4 Hz is exactly 4 samples: a gap of 4 is far enough.
            (4.0, 1.0, 3, False),
            (4.0, 1.0, 4, True),
        ],
    )
    def test_gap_boundaries(self, rate, min_dist_s, gap, kept):
        v = np.zeros(gap + 3)
        v[1], v[1 + gap] = 2.0, 1.0
        s = series(v, rate=rate)
        expected = [1, 1 + gap] if kept else [1]
        assert detect_peaks(s, min_dist_s, 0.0) == expected == greedy_peaks(s, min_dist_s, 0.0)
