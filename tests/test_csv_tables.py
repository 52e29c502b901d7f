"""The one CSV table codec behind the series, IBI and cortisol files: each
table round-trips to the same bytes, and a malformed file is a FormatError
that names its path and line."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homevitals.errors import DegenerateInput, FormatError
from homevitals.labeling import CortisolSample, Timepoint, load_cortisol_csv, save_cortisol_csv
from homevitals.signals import (
    IBI_MAX_S,
    IBI_MIN_S,
    Channel,
    IbiSeries,
    SampleSeries,
    load_ibi_csv,
    load_series_csv,
    save_ibi_csv,
    save_series_csv,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
epoch_ms = st.integers(-(10**13), 10**13)
reuses_tmp_path = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


def resaved_bytes(tmp_path, save, load, value) -> tuple[bytes, bytes]:
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    save(value, first)
    save(load(first), second)
    return first.read_bytes(), second.read_bytes()


@reuses_tmp_path
@given(
    channel_rate=st.sampled_from(
        [(Channel.EDA, 4.0), (Channel.BVP, 64.0), (Channel.PPG, 125.0), (Channel.DERIVED, 1.0)]
    ),
    start_ms=epoch_ms,
    values=st.lists(finite, min_size=1, max_size=40),
)
def test_series_table_round_trips_to_the_same_bytes(tmp_path, channel_rate, start_ms, values):
    channel, rate = channel_rate
    series = SampleSeries(channel, rate, start_ms, values)
    first, second = resaved_bytes(
        tmp_path, save_series_csv, lambda p: load_series_csv(p, channel, rate), series
    )
    assert first == second
    assert first.startswith(b"t_ms,value\r\n")


@reuses_tmp_path
@given(
    start_ms=epoch_ms,
    beats=st.lists(
        st.tuples(st.integers(1, 3000), st.floats(IBI_MIN_S, IBI_MAX_S)), max_size=40
    ),
)
def test_ibi_table_round_trips_to_the_same_bytes(tmp_path, start_ms, beats):
    pairs, t = [], start_ms
    for gap, ibi_s in beats:
        t += gap
        pairs.append((t, ibi_s))
    first, second = resaved_bytes(tmp_path, save_ibi_csv, load_ibi_csv, IbiSeries.from_pairs(pairs))
    assert first == second


@reuses_tmp_path
@given(
    samples=st.lists(
        st.builds(
            CortisolSample,
            subject_id=st.text(min_size=1),
            timepoint=st.sampled_from(Timepoint),
            t_ms=epoch_ms,
            concentration_ugdl=st.floats(0.0, allow_infinity=False),
        ),
        max_size=10,
    )
)
def test_cortisol_table_round_trips_to_the_same_bytes(tmp_path, samples):
    first, second = resaved_bytes(tmp_path, save_cortisol_csv, load_cortisol_csv, samples)
    assert first == second
    assert load_cortisol_csv(tmp_path / "first.csv") == samples


SERIES = "t_ms,value\r\n"
IBI = "t_ms,ibi_s\r\n"
CORTISOL = "subject_id,timepoint,t_ms,concentration_ugdl\r\n"

# (loader, file text, the line the error names)
MALFORMED = {
    "series bad int": (load_series_csv, SERIES + "0,1.0\r\nabc,2.0\r\n", 3),
    "series bad float": (load_series_csv, SERIES + "0,1.0\r\n8,x\r\n", 3),
    "series short row": (load_series_csv, SERIES + "0,1.0\r\n8\r\n", 3),
    "series long row": (load_series_csv, SERIES + "0,1.0,2.0\r\n", 2),
    "series time beyond 64 bits": (load_series_csv, SERIES + "99999999999999999999,1.0\r\n", 2),
    "series wrong header": (load_series_csv, "time,voltage\r\n0,1.0\r\n", 1),
    "series nan value": (load_series_csv, SERIES + "0,nan\r\n", 2),
    "series inf value": (load_series_csv, SERIES + "0,1.0\r\n8,-inf\r\n", 3),
    "series empty file": (load_series_csv, "", 1),
    "ibi bad int": (load_ibi_csv, IBI + "0.5,0.8\r\n", 2),
    "ibi bad float": (load_ibi_csv, IBI + "0,0.8\r\n800,fast\r\n", 3),
    "ibi short row": (load_ibi_csv, IBI + "0\r\n", 2),
    "ibi long row": (load_ibi_csv, IBI + "0,0.8\r\n800,0.8,1\r\n", 3),
    "ibi time beyond 64 bits": (load_ibi_csv, IBI + "0,0.8\r\n-9223372036854775809,0.8\r\n", 3),
    "ibi wrong header": (load_ibi_csv, "t_ms,ibi\r\n0,0.8\r\n", 1),
    "ibi inf": (load_ibi_csv, IBI + "0,0.8\r\n800,inf\r\n", 3),
    "ibi nan": (load_ibi_csv, IBI + "0,nan\r\n", 2),
    "ibi above bound": (load_ibi_csv, IBI + "0,5.0\r\n", 2),
    "ibi below bound": (load_ibi_csv, IBI + "0,0.8\r\n800,0.1\r\n", 3),
    "cortisol bad int": (load_cortisol_csv, CORTISOL + "S00,T1,noon,0.1\r\n", 2),
    "cortisol bad float": (load_cortisol_csv, CORTISOL + "S00,T1,0,high\r\n", 2),
    "cortisol unknown timepoint": (
        load_cortisol_csv,
        CORTISOL + "S00,T1,0,0.1\r\nS00,T9,1,0.1\r\n",
        3,
    ),
    "cortisol negative concentration": (load_cortisol_csv, CORTISOL + "S00,T1,0,-0.1\r\n", 2),
    "cortisol short row": (load_cortisol_csv, CORTISOL + "S00,T1,0\r\n", 2),
    "cortisol long row": (load_cortisol_csv, CORTISOL + "S00,T1,0,0.1,x\r\n", 2),
    "cortisol wrong header": (load_cortisol_csv, "subject,timepoint,t_ms,concentration\r\n", 1),
    # A quoted cell may hold a line break; the error names the physical line.
    "cortisol line after a two-line cell": (
        load_cortisol_csv,
        CORTISOL + '"S\r\n00",T1,0,0.1\r\nS00,T2,x,0.1\r\n',
        4,
    ),
}


@pytest.mark.parametrize("case", MALFORMED, ids=str)
def test_malformed_file_is_a_format_error_at_its_line(tmp_path, case):
    load, text, line = MALFORMED[case]
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode())
    with pytest.raises(FormatError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}:{line}: ")


def test_ibi_events_out_of_order_name_the_file(tmp_path):
    path = tmp_path / "ibi.csv"
    path.write_bytes((IBI + "800,0.8\r\n0,0.8\r\n").encode())
    with pytest.raises(FormatError, match="strictly increasing") as err:
        load_ibi_csv(path)
    assert str(err.value).startswith(f"{path}: ")


def test_header_only_series_file_is_degenerate(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(SERIES)
    with pytest.raises(DegenerateInput, match="no samples"):
        load_series_csv(path)


def test_header_names_may_carry_whitespace_in_every_table(tmp_path):
    path = tmp_path / "spaced.csv"
    path.write_text(" t_ms , value\n0,1.0\n")
    assert load_series_csv(path).values.tolist() == [1.0]
    path.write_text("t_ms, ibi_s \n0,0.8\n")
    assert list(load_ibi_csv(path)) == [(0, 0.8)]
    path.write_text("subject_id, timepoint, t_ms, concentration_ugdl\nS00,T1,0,0.1\n")
    assert load_cortisol_csv(path) == [CortisolSample("S00", Timepoint.T1, 0, 0.1)]
