"""CSV round-trips and invariant enforcement on the container types."""

import numpy as np
import pytest

from homevitals.errors import FormatError, InputError
from homevitals.signals import (
    Channel,
    IbiSeries,
    SampleSeries,
    load_ibi_csv,
    load_series_csv,
    save_ibi_csv,
    save_series_csv,
)


def test_series_round_trip(tmp_path, rng):
    s = SampleSeries(Channel.PPG, 125.0, 1_700_000_000_000, rng.normal(size=500))
    path = tmp_path / "ppg.csv"
    save_series_csv(s, path)
    back = load_series_csv(path, Channel.PPG, 125.0)
    assert back.start_ms == s.start_ms
    assert np.array_equal(back.values, s.values)


def test_series_csv_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,voltage\n0,1.0\n")
    with pytest.raises(FormatError):
        load_series_csv(path)


def test_series_csv_rate_mismatch_detected(tmp_path):
    path = tmp_path / "bad_rate.csv"
    path.write_text("t_ms,value\n0,1.0\n100,2.0\n200,3.0\n")
    # 100 ms spacing is 10 Hz; loading as 125 Hz must fail.
    with pytest.raises(FormatError):
        load_series_csv(path, Channel.PPG, 125.0)


def test_ibi_round_trip(tmp_path):
    ibi = IbiSeries.from_pairs([(0, 0.8), (800, 0.812345678912), (1650, 0.79)])
    path = tmp_path / "ibi.csv"
    save_ibi_csv(ibi, path)
    back = load_ibi_csv(path)
    assert np.array_equal(back.t_ms, ibi.t_ms)
    assert np.array_equal(back.ibi_s, ibi.ibi_s)


def test_full_precision_serialized(tmp_path):
    value = 0.1234567891234567
    s = SampleSeries(Channel.PPG, 125.0, 0, [value])
    path = tmp_path / "precision.csv"
    save_series_csv(s, path)
    assert load_series_csv(path).values[0] == value


def test_wristband_rate_enforced():
    with pytest.raises(InputError):
        SampleSeries(Channel.EDA, 64.0, 0, [1.0, 2.0])
    SampleSeries(Channel.PPG, 200.0, 0, [1.0, 2.0])  # configurable channel


def test_nan_rejected():
    with pytest.raises(InputError):
        SampleSeries(Channel.PPG, 125.0, 0, [1.0, np.nan])


def test_timestamp_formula():
    s = SampleSeries(Channel.BVP, 64.0, 10, np.zeros(4))
    assert list(s.timestamps_ms()) == [10, 10 + 16, 10 + 31, 10 + 47]


@pytest.mark.parametrize(
    ("channel", "rate"),
    [(Channel.EDA, 4.0), (Channel.PPG, 62.5), (Channel.BVP, 64.0), (Channel.PPG, 125.0)],
)
def test_timestamps_are_time_of_at_every_index(channel, rate):
    # At 64 Hz every eighth sample lies on an exact half millisecond, where
    # both rules must round half to even.
    s = SampleSeries(channel, rate, 1_234_567, np.zeros(20_000))
    expected = [s.time_of(i, s.start_ms, rate) for i in range(len(s))]
    assert s.timestamps_ms().tolist() == expected


def test_ibi_bounds_enforced():
    with pytest.raises(InputError):
        IbiSeries.from_pairs([(0, 0.2)])
    with pytest.raises(InputError):
        IbiSeries.from_pairs([(0, 2.5)])
    with pytest.raises(InputError):
        IbiSeries.from_pairs([(100, 0.8), (100, 0.8)])


def test_series_values_read_only(rng):
    s = SampleSeries(Channel.PPG, 125.0, 0, rng.normal(size=8))
    with pytest.raises(ValueError):
        s.values[0] = 9.9
