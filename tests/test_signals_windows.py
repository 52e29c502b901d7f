"""Window arithmetic, coverage properties, and per-beat heart rate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from homevitals.errors import DegenerateInput, InputError
from homevitals.signals import (
    Channel,
    ChannelBundle,
    IbiSeries,
    SampleSeries,
    Window,
    WindowSpec,
    hr_series_bpm,
    make_windows,
)


def bundle_for(duration_s, subject="S00", start_ms=0):
    def chan(channel, rate):
        n = int(round(duration_s * rate))
        return SampleSeries(channel=channel, rate_hz=rate, start_ms=start_ms, values=np.arange(n, dtype=float))

    ibi = IbiSeries.from_pairs(
        [(start_ms + int(t * 1000), 0.8) for t in np.arange(0.5, duration_s, 0.8)]
    )
    return ChannelBundle(
        subject_id=subject,
        eda=chan(Channel.EDA, 4.0),
        bvp=chan(Channel.BVP, 64.0),
        st=chan(Channel.ST, 4.0),
        ibi=ibi,
        session_start_ms=start_ms,
    )


class TestMakeWindows:
    def test_paper_geometry(self):
        windows = make_windows(bundle_for(270.0), WindowSpec(90.0, 45.0))
        assert len(windows) == 5
        assert [w.start_ms for w in windows] == [0, 45000, 90000, 135000, 180000]
        for w in windows:
            assert w.end_ms - w.start_ms == 90000

    def test_single_window(self):
        assert len(make_windows(bundle_for(90.0), WindowSpec(90.0, 45.0))) == 1

    def test_below_one_window(self):
        with pytest.raises(DegenerateInput):
            make_windows(bundle_for(89.0), WindowSpec(90.0, 45.0))

    @given(st.data())
    def test_count_formula(self, data):
        # Durations on a 0.25 s grid keep all channel lengths and window
        # boundaries exact in integer milliseconds.
        length_q = data.draw(st.integers(min_value=8, max_value=400))
        overlap_q = data.draw(st.integers(min_value=0, max_value=length_q - 1))
        extra_q = data.draw(st.integers(min_value=0, max_value=2000))
        length_s = length_q * 0.25
        overlap_s = overlap_q * 0.25
        duration_s = length_s + extra_q * 0.25
        windows = make_windows(bundle_for(duration_s), WindowSpec(length_s, overlap_s))
        t_ms, l_ms = int(duration_s * 1000), int(length_s * 1000)
        step_ms = int((length_s - overlap_s) * 1000)
        assert len(windows) == (t_ms - l_ms) // step_ms + 1

    def test_channel_slices_sized_by_rate(self):
        w = make_windows(bundle_for(180.0), WindowSpec(90.0, 45.0))[1]
        assert len(w.eda) == 360
        assert len(w.bvp) == 5760
        assert len(w.st) == 360
        assert w.start_ms == 45000

    def test_slices_reference_bundle_data(self):
        b = bundle_for(180.0)
        w = make_windows(b, WindowSpec(90.0, 45.0))[0]
        assert np.array_equal(w.bvp.values, b.bvp.values[:5760])

    def test_half_overlap_interior_samples_in_two_windows(self):
        b = bundle_for(315.0)
        spec = WindowSpec(90.0, 45.0)
        windows = make_windows(b, spec)
        rate = 4.0
        counts = np.zeros(len(b.eda), dtype=int)
        for w in windows:
            start = int(round((w.start_ms - b.session_start_ms) * rate / 1000))
            counts[start : start + int(spec.length_s * rate)] += 1
        covered = counts[counts > 0]
        # Quantified coverage: only a sub-step tail may be uncovered.
        assert (counts == 0).sum() < (spec.length_s - spec.overlap_s) * rate
        interior = counts[int(spec.length_s * rate) : -int(spec.length_s * rate)]
        assert np.all(interior == 2)
        assert covered.max() <= 2

    def test_ibi_slice_is_time_bounded(self):
        b = bundle_for(180.0)
        w = make_windows(b, WindowSpec(90.0, 45.0))[1]
        assert all(w.start_ms <= t < w.end_ms for t, _ in w.ibi)


class TestWindowSpec:
    @pytest.mark.parametrize(
        ("length_s", "overlap_s"),
        [(90.0, 89.9996), (0.0004, 0.0), (float("nan"), 45.0), (float("inf"), 45.0)],
    )
    def test_sub_millisecond_or_non_finite_geometry_rejected(self, length_s, overlap_s):
        # The grid divides by the step in whole ms.
        with pytest.raises(InputError):
            WindowSpec(length_s, overlap_s)

    def test_one_millisecond_step_is_the_smallest(self):
        spec = WindowSpec(90.0, 89.999)
        assert (spec.length_ms, spec.step_ms) == (90_000, 1)
        starts = [w.start_ms for w in make_windows(bundle_for(90.0), spec)]
        assert starts == [0]


class TestInstantaneousHr:
    @pytest.mark.parametrize("ibi_s,bpm", [(1.0, 60.0), (0.5, 120.0), (0.8, 75.0)])
    def test_conversion(self, ibi_s, bpm):
        rates = hr_series_bpm(IbiSeries.from_pairs([(1000, ibi_s)]))
        assert rates.tolist() == [pytest.approx(bpm)]

    def test_empty_gives_no_rates(self):
        assert hr_series_bpm(IbiSeries.from_pairs([])).size == 0
