"""Signal containers: uniformly sampled series, beat-interval event series,
per-subject channel bundles, window specs, and spectra; and the one CSV table
codec, with the series and IBI row formats on it.

All containers are immutable; arrays are copied on construction and marked
read-only, so operations downstream can share them safely across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import DegenerateInput, FormatError, InputError

IBI_MIN_S = 0.3
IBI_MAX_S = 2.0

#: Milliseconds per second, for every ms <-> s conversion of a sample time.
MS_PER_S = 1000


class Channel(Enum):
    EDA = "EDA"
    BVP = "BVP"
    ST = "ST"
    PPG = "PPG"
    DERIVED = "DERIVED"


#: Fixed wristband sampling rates; PPG (external loader) and DERIVED are free.
WRISTBAND_RATES_HZ = {Channel.EDA: 4.0, Channel.BVP: 64.0, Channel.ST: 4.0}

DEFAULT_PPG_RATE_HZ = 125.0


def _as_float_array(values: Sequence[float] | np.ndarray, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).copy()
    if arr.ndim != 1:
        raise InputError(f"{what} must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InputError(f"{what} contains NaN or Inf")
    arr.setflags(write=False)
    return arr


class SampledSpan:
    """Where uniformly spaced samples lie in time: sample i of a span starting
    at start_ms lives at start_ms + round(MS_PER_S*i/rate_hz).

    The one home of the sample-time rules. A subclass supplies rate_hz,
    start_ms, __len__ and _take(start_idx, stop_idx, start_ms), which builds
    the slice of samples [start_idx, stop_idx) placed at start_ms.
    """

    rate_hz: float
    start_ms: int

    @staticmethod
    def time_of(index: int, start_ms: int, rate_hz: float) -> int:
        """Epoch ms of sample `index` of a span at start_ms; the end of a span
        of `index` samples."""
        return start_ms + int(round(MS_PER_S * index / rate_hz))

    def timestamps_ms(self) -> np.ndarray:
        """time_of at every index, vectorised (np.rint rounds half to even, as
        round does)."""
        idx = np.arange(len(self), dtype=np.float64)
        return (self.start_ms + np.rint(MS_PER_S * idx / self.rate_hz)).astype(np.int64)

    def _samples(self, ms: int) -> int:
        return int(round(ms * self.rate_hz / MS_PER_S))

    @property
    def duration_s(self) -> float:
        return len(self) / self.rate_hz

    @property
    def end_ms(self) -> int:
        return self.time_of(len(self), self.start_ms, self.rate_hz)

    def index_at(self, t_ms: int) -> int:
        """The index of the sample nearest t_ms; may lie outside the span."""
        return self._samples(t_ms - self.start_ms)

    def slice_samples(self, start_idx: int, stop_idx: int):
        if not 0 <= start_idx <= stop_idx <= len(self):
            raise InputError(
                f"slice [{start_idx}:{stop_idx}] out of range for length {len(self)}"
            )
        return self._take(start_idx, stop_idx, self.time_of(start_idx, self.start_ms, self.rate_hz))

    def slice_ms(self, start_ms: int, end_ms: int):
        """The samples from the one nearest start_ms, as many as end_ms - start_ms
        holds at the rate: every channel of a window covers the same time."""
        start_idx = self.index_at(start_ms)
        return self.slice_samples(start_idx, start_idx + self._samples(end_ms - start_ms))


@dataclass(frozen=True)
class SampleSeries(SampledSpan):
    """A uniformly sampled signal, placed in time as SampledSpan says."""

    channel: Channel
    rate_hz: float
    start_ms: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if not 0 < self.rate_hz < np.inf:
            raise InputError(f"rate_hz must be positive and finite, got {self.rate_hz}")
        expected = WRISTBAND_RATES_HZ.get(self.channel)
        if expected is not None and self.rate_hz != expected:
            raise InputError(
                f"{self.channel.value} is a wristband channel sampled at "
                f"{expected} Hz, got {self.rate_hz} Hz"
            )
        object.__setattr__(self, "values", _as_float_array(self.values, "values"))
        object.__setattr__(self, "start_ms", int(self.start_ms))

    def __len__(self) -> int:
        return int(self.values.size)

    def _take(self, start_idx: int, stop_idx: int, start_ms: int) -> "SampleSeries":
        return SampleSeries(
            channel=self.channel,
            rate_hz=self.rate_hz,
            start_ms=start_ms,
            values=self.values[start_idx:stop_idx],
        )

    def with_values(self, values: np.ndarray, channel: Channel | None = None) -> "SampleSeries":
        """New series sharing rate and origin; used by pure DSP transforms."""
        return SampleSeries(
            channel=channel if channel is not None else self.channel,
            rate_hz=self.rate_hz,
            start_ms=self.start_ms,
            values=values,
        )


@dataclass(frozen=True)
class IbiSeries:
    """Inter-beat-interval events: (epoch ms of the beat, interval seconds)."""

    t_ms: np.ndarray
    ibi_s: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t_ms, dtype=np.int64).copy()
        v = _as_float_array(self.ibi_s, "ibi_s")
        if t.shape != v.shape:
            raise InputError("t_ms and ibi_s must have equal length")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise InputError("IBI event times must be strictly increasing")
        if v.size and (v.min() < IBI_MIN_S or v.max() > IBI_MAX_S):
            raise InputError(
                f"IBI outside physiological bound [{IBI_MIN_S}, {IBI_MAX_S}] s"
            )
        t.setflags(write=False)
        object.__setattr__(self, "t_ms", t)
        object.__setattr__(self, "ibi_s", v)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[int, float]]) -> "IbiSeries":
        if not pairs:
            return cls(np.empty(0, dtype=np.int64), np.empty(0))
        t, v = zip(*pairs)
        return cls(np.asarray(t, dtype=np.int64), np.asarray(v, dtype=np.float64))

    def __len__(self) -> int:
        return int(self.t_ms.size)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return ((int(t), float(v)) for t, v in zip(self.t_ms, self.ibi_s))

    def between(self, start_ms: int, end_ms: int) -> "IbiSeries":
        """Events with start_ms <= t < end_ms."""
        mask = (self.t_ms >= start_ms) & (self.t_ms < end_ms)
        return IbiSeries(self.t_ms[mask], self.ibi_s[mask])


@dataclass(frozen=True)
class ChannelBundle:
    """Time-aligned multi-rate signal set for one subject session."""

    subject_id: str
    eda: SampleSeries
    bvp: SampleSeries
    st: SampleSeries
    ibi: IbiSeries
    session_start_ms: int

    def __post_init__(self) -> None:
        if not self.subject_id:
            raise InputError("subject_id must be non-empty")
        for name, series in (("eda", self.eda), ("bvp", self.bvp), ("st", self.st)):
            if series.start_ms != self.session_start_ms:
                raise InputError(
                    f"{name} starts at {series.start_ms}, expected session origin "
                    f"{self.session_start_ms}"
                )
        object.__setattr__(self, "session_start_ms", int(self.session_start_ms))

    @property
    def duration_s(self) -> float:
        """Common covered duration: the shortest uniform channel."""
        return min(self.eda.duration_s, self.bvp.duration_s, self.st.duration_s)


@dataclass(frozen=True)
class WindowSpec:
    """Running-window geometry; defaults are 90 s length with 45 s overlap.

    Windows are laid out in whole milliseconds, so the length and the step
    must each round to at least 1 ms.
    """

    length_s: float = 90.0
    overlap_s: float = 45.0

    def __post_init__(self) -> None:
        if not 0 < self.length_s < np.inf:
            raise InputError("window length must be positive and finite")
        if not 0 <= self.overlap_s < self.length_s:
            raise InputError("overlap must satisfy 0 <= overlap < length")
        if self.length_ms < 1 or self.step_ms < 1:
            raise InputError(
                f"window length and step must each round to at least 1 ms, "
                f"got {self.length_ms} ms and {self.step_ms} ms"
            )

    @property
    def step_s(self) -> float:
        return self.length_s - self.overlap_s

    @property
    def length_ms(self) -> int:
        return int(round(self.length_s * MS_PER_S))

    @property
    def step_ms(self) -> int:
        return int(round(self.step_s * MS_PER_S))


@dataclass(frozen=True)
class Window:
    """One analysis window over a bundle; channel slices reference bundle data."""

    index: int
    start_ms: int
    end_ms: int
    bundle: ChannelBundle = field(repr=False)

    @property
    def eda(self) -> SampleSeries:
        return self.bundle.eda.slice_ms(self.start_ms, self.end_ms)

    @property
    def bvp(self) -> SampleSeries:
        return self.bundle.bvp.slice_ms(self.start_ms, self.end_ms)

    @property
    def st(self) -> SampleSeries:
        return self.bundle.st.slice_ms(self.start_ms, self.end_ms)

    @property
    def ibi(self) -> IbiSeries:
        return self.bundle.ibi.between(self.start_ms, self.end_ms)

    @property
    def midpoint_ms(self) -> int:
        return (self.start_ms + self.end_ms) // 2


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum."""

    freqs_hz: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self) -> None:
        f = _as_float_array(self.freqs_hz, "freqs_hz")
        m = _as_float_array(self.magnitudes, "magnitudes")
        if f.shape != m.shape:
            raise InputError("freqs_hz and magnitudes must have equal length")
        if f.size > 1 and not np.all(np.diff(f) > 0):
            raise InputError("freqs_hz must be strictly increasing")
        if m.size and m.min() < 0:
            raise InputError("magnitudes must be non-negative")
        object.__setattr__(self, "freqs_hz", f)
        object.__setattr__(self, "magnitudes", m)

    def __len__(self) -> int:
        return int(self.freqs_hz.size)


SERIES_CSV_HEADER = ("t_ms", "value")
IBI_CSV_HEADER = ("t_ms", "ibi_s")


def write_csv_table(path: str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """Write the header, then the rows, in csv's default dialect (CRLF). Python
    floats are written as repr, the shortest text that round-trips float64."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_table(path: str | Path, header: Sequence[str], parse_row: Callable) -> list:
    """parse_row of each row. The header must match once whitespace around each
    name is stripped; a row without one cell per column, or with a cell that
    parse_row rejects (ValueError, TypeError, InputError), is a FormatError
    "<path>:<line>: ..."."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, [])
        if [name.strip() for name in got] != list(header):
            raise FormatError(f"{path}:1: expected header {','.join(header)!r}, got {got}")
        for row in reader:
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} columns, got {len(row)}")
                rows.append(parse_row(row))
            except (ValueError, TypeError, InputError) as exc:
                raise FormatError(f"{path}:{reader.line_num}: {exc}") from exc
    return rows


def int64_time(t_ms: int) -> int:
    """t_ms itself; a ValueError when it falls outside int64, the type times
    are held as."""
    if not -(2**63) <= t_ms < 2**63:
        raise ValueError(f"time {t_ms} does not fit 64 bits")
    return t_ms


def _time_and_float(row: list[str]) -> tuple[int, float]:
    t_ms = int64_time(int(row[0]))
    value = float(row[1])
    if not math.isfinite(value):
        raise ValueError(f"{row[1]!r} is not a finite number")
    return t_ms, value


def _time_and_ibi(row: list[str]) -> tuple[int, float]:
    t_ms, ibi_s = _time_and_float(row)
    if not IBI_MIN_S <= ibi_s <= IBI_MAX_S:
        raise ValueError(f"IBI {ibi_s} s outside physiological bound [{IBI_MIN_S}, {IBI_MAX_S}] s")
    return t_ms, ibi_s


def save_series_csv(series: SampleSeries, path: str | Path) -> None:
    """Write `t_ms,value` rows, one per sample."""
    rows = zip(series.timestamps_ms().tolist(), series.values.tolist())
    write_csv_table(path, SERIES_CSV_HEADER, rows)


def load_series_csv(
    path: str | Path,
    channel: Channel = Channel.PPG,
    rate_hz: float | None = None,
) -> SampleSeries:
    """Read a `t_ms,value` CSV; timestamps must agree with the declared rate.

    rate_hz defaults to the wristband rate for EDA/BVP/ST and 125 Hz for PPG.
    """
    if rate_hz is None:
        rate_hz = WRISTBAND_RATES_HZ.get(channel, DEFAULT_PPG_RATE_HZ)
    rows = read_csv_table(path, SERIES_CSV_HEADER, _time_and_float)
    if not rows:
        raise DegenerateInput(f"{path}: no samples")
    t_ms, values = [t for t, _ in rows], [v for _, v in rows]  # zip(*rows) is 10x slower
    series = SampleSeries(channel=channel, rate_hz=rate_hz, start_ms=t_ms[0], values=values)
    expected = series.timestamps_ms()
    actual = np.asarray(t_ms, dtype=np.int64)
    if np.abs(expected - actual).max() > 1:
        bad = int(np.abs(expected - actual).argmax())
        raise FormatError(
            f"{path}: timestamps inconsistent with rate {rate_hz} Hz "
            f"(row {bad}: got {actual[bad]}, expected {expected[bad]})"
        )
    return series


def save_ibi_csv(ibi: IbiSeries, path: str | Path) -> None:
    """Write `t_ms,ibi_s` rows, one per beat event."""
    write_csv_table(path, IBI_CSV_HEADER, ibi)


def load_ibi_csv(path: str | Path) -> IbiSeries:
    """Read a `t_ms,ibi_s` CSV; each interval must lie within the IBI bound
    and the event times must increase."""
    pairs = read_csv_table(path, IBI_CSV_HEADER, _time_and_ibi)
    try:
        return IbiSeries.from_pairs(pairs)
    except InputError as exc:
        raise FormatError(f"{path}: {exc}") from exc
