"""Stress and BP queries read only the chunks they answer from, and answer
exactly as assembling the subject's whole history would."""

import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homevitals.datasets import BP_SEGMENT_S
from homevitals.errors import HomevitalsError, InputError, NoWindow, NotReady
from homevitals.features import BP_REDUCED_NAMES, bp_reduced_features, stress_feature_matrix
from homevitals.models import check_feature_schema, load_document
from homevitals.service import JsonlStore, ServiceConfig, VitalsService, pipeline
from homevitals.service.pipeline import CONTIGUITY_SLOP_MS, _Span
from homevitals.service.store import decode_samples, encode_samples
from homevitals.signals import (
    Channel,
    ChannelBundle,
    IbiSeries,
    SampleSeries,
    make_windows,
)
from homevitals.simulate import simulate_bp_records
from test_service_pipeline import bp_payload, stress_payload

MODEL_KEYS = ("stress", "bp_sbp", "bp_dbp")
RATES = {"EDA": 4.0, "BVP": 64.0, "ST": 4.0, "PPG": 125.0}


def make_config(path, **overrides):
    return ServiceConfig(
        storage_path=str(path),
        forest_n_trees=5,
        forest_max_depth=6,
        bp_boost_estimators=4,
        **overrides,
    )


@pytest.fixture(scope="module")
def model_payloads():
    """The three model records of a small trained service, to seed fresh stores."""
    with tempfile.TemporaryDirectory() as tmp:
        config = make_config(Path(tmp) / "train.jsonl")
        store = JsonlStore(config.storage_path)
        service = VitalsService(config, store)
        for i in range(2):
            service.sync_signals(stress_payload(f"R{i}", stressed=False, seed=i))
            service.sync_signals(stress_payload(f"S{i}", stressed=True, seed=10 + i))
        unit = simulate_bp_records(1, "short_term", seed=0)[0].units[0]
        for i, offset in enumerate((0.0, 300.0)):
            service.sync_signals(bp_payload(f"P{i}", unit, offset))
        service.train_stress(seed=0)
        service.train_bp(seed=0)
        payloads = [store.latest("model", model_key=key)["payload"] for key in MODEL_KEYS]
        store.close()
    return payloads


def seeded_service(directory, model_payloads, **overrides):
    config = make_config(Path(directory) / "store.jsonl", **overrides)
    store = JsonlStore(config.storage_path)
    for payload in model_payloads:
        store.append("model", "", payload)
    return VitalsService(config, store)


# -- the full-history path, as queries assembled bundles before ---------------


def reference_channel_series(store, subject_id, channel, name=None):
    payloads = [
        r["payload"]
        for r in store.records(store.index("signal_chunk", subject_id))
        if (r["payload"]["channel"], r["payload"].get("name")) == (channel.value, name)
    ]
    if not payloads:
        return None
    chunks = sorted(
        (
            SampleSeries(Channel(p["channel"]), p["rate_hz"], p["start_ms"], decode_samples(p))
            for p in payloads
        ),
        key=lambda s: s.start_ms,
    )
    run = [chunks[-1]]
    for prev in reversed(chunks[:-1]):
        if abs(prev.end_ms - run[0].start_ms) <= CONTIGUITY_SLOP_MS:
            run.insert(0, prev)
        else:
            break
    return SampleSeries(
        channel=channel,
        rate_hz=run[0].rate_hz,
        start_ms=run[0].start_ms,
        values=np.concatenate([s.values for s in run]),
    )


def reference_ibi(store, subject_id):
    pairs = []
    for record in store.records(store.index("ibi_chunk", subject_id)):
        pairs.extend((int(t), float(v)) for t, v in record["payload"]["events"])
    pairs.sort(key=lambda p: p[0])
    deduped = [p for i, p in enumerate(pairs) if i == 0 or p[0] > pairs[i - 1][0]]
    return IbiSeries.from_pairs(deduped)


def reference_bundle(store, subject_id):
    eda = reference_channel_series(store, subject_id, Channel.EDA)
    bvp = reference_channel_series(store, subject_id, Channel.BVP)
    st_ = reference_channel_series(store, subject_id, Channel.ST)
    if eda is None or bvp is None or st_ is None:
        return None
    start = max(eda.start_ms, bvp.start_ms, st_.start_ms)
    end = min(eda.end_ms, bvp.end_ms, st_.end_ms)
    if end <= start:
        return None

    def trim(series):
        i0 = int(round((start - series.start_ms) * series.rate_hz / 1000.0))
        i1 = int(round((end - series.start_ms) * series.rate_hz / 1000.0))
        return series.slice_samples(i0, min(i1, len(series)))

    return ChannelBundle(
        subject_id=subject_id,
        eda=trim(eda),
        bvp=trim(bvp),
        st=trim(st_),
        ibi=reference_ibi(store, subject_id).between(start, end),
        session_start_ms=start,
    )


def reference_model(store, key):
    record = store.latest("model", model_key=key)
    if record is None:
        raise NotReady(f"no trained {key} model")
    return load_document(record["payload"]["document"]), record["payload"]


def reference_stress(service, subject_id):
    model, meta = reference_model(service.store, "stress")
    bundle = reference_bundle(service.store, subject_id)
    spec = service.config.window_spec
    if bundle is None or bundle.duration_s < spec.length_s:
        raise NoWindow(f"no complete {spec.length_s:.0f} s window for {subject_id}")
    window = make_windows(bundle, spec)[-1]
    matrix = stress_feature_matrix([window])
    check_feature_schema(meta["document"], matrix.names)
    proba = float(model.predict_proba(matrix.X)[0, -1])
    return {
        "subject_id": subject_id,
        "label": "stressed" if proba > 0.5 else "not_stressed",
        "probability": proba,
        "window_start_ms": window.start_ms,
        "window_end_ms": window.end_ms,
        "model_version": meta["version"],
    }


def reference_bp(service, subject_id):
    sbp_model, sbp_meta = reference_model(service.store, "bp_sbp")
    dbp_model, dbp_meta = reference_model(service.store, "bp_dbp")
    source = reference_channel_series(service.store, subject_id, Channel.PPG)
    if source is None:
        source = reference_channel_series(service.store, subject_id, Channel.BVP)
    if source is None or source.duration_s < 5.0:
        raise NoWindow(f"no recent pulse signal for {subject_id}")
    take = min(len(source), int(BP_SEGMENT_S * source.rate_hz))
    segment = source.slice_samples(len(source) - take, len(source))
    check_feature_schema(sbp_meta["document"], BP_REDUCED_NAMES)
    row = bp_reduced_features(segment).reshape(1, -1)
    sbp, dbp = float(sbp_model.predict(row)[0]), float(dbp_model.predict(row)[0])
    swapped = sbp < dbp
    if swapped:
        sbp, dbp = dbp, sbp
    return {
        "subject_id": subject_id,
        "sbp_mmhg": sbp,
        "dbp_mmhg": dbp,
        "segment_start_ms": segment.start_ms,
        "segment_end_ms": segment.end_ms,
        "model_version_sbp": sbp_meta["version"],
        "model_version_dbp": dbp_meta["version"],
        "swapped": swapped,
    }


def reference_window(service, subject_id):
    bundle = reference_bundle(service.store, subject_id)
    if bundle is None or bundle.duration_s < service.config.window_spec.length_s:
        return None
    return make_windows(bundle, service.config.window_spec)[-1]


def assert_same_window(got, want):
    """Same grid position, and the same samples and beat events under it."""
    assert (got.index, got.start_ms, got.end_ms) == (want.index, want.start_ms, want.end_ms)
    for name in ("eda", "bvp", "st"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.rate_hz == b.rate_hz
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(got.ibi.t_ms, want.ibi.t_ms)
    assert np.array_equal(got.ibi.ibi_s, want.ibi.ibi_s)


def outcome(query, *args):
    try:
        return "ok", query(*args)
    except HomevitalsError as exc:
        return type(exc).__name__, str(exc)


# -- generated histories ---------------------------------------------------------

# Window geometry: the default, and one whose window starts fall between
# samples, so slices are placed by rounding.
WINDOWS = st.sampled_from([(90.0, 45.0)] * 3 + [(60.0, 30.0), (30.1, 10.05)])

# Gaps between consecutive chunks of one channel: mostly contiguous, some
# within CONTIGUITY_SLOP_MS either way, some just beyond it, some far.
GAPS_MS = st.sampled_from([0] * 30 + [1, -1, 2, -2, 3, -3, 4, 1_000, 30_000])
SECONDS = st.sampled_from([20, 45, 60, 60, 60, 61, 95, 120])


@st.composite
def histories(draw):
    """(records as (kind, item) in the order they are synced, value seed).
    A signal chunk item is (channel, start_ms, n); an IBI item is its events."""
    channels = draw(
        st.sampled_from(
            [("EDA", "BVP", "ST")] * 2 + [("EDA", "BVP", "ST", "PPG")] * 2 + [("BVP",)]
        )
    )
    segments = draw(st.lists(st.tuples(GAPS_MS, SECONDS), min_size=2, max_size=5))
    chunks = []
    for channel in channels:
        rate = RATES[channel]
        t = draw(st.sampled_from([0, 0, 0, 250, 1_000]))
        kept = segments[:-1] if draw(st.integers(0, 3)) == 0 else segments
        for i, (gap, seconds) in enumerate(kept):
            if draw(st.integers(0, 9)) == 0:
                gap = draw(GAPS_MS)  # this channel's own gap
            n = int(seconds * rate) + draw(st.integers(-2, 2))
            if i == len(kept) - 1 and draw(st.booleans()):
                n -= draw(st.integers(0, int(10 * rate)))  # channels end apart
            if draw(st.integers(0, 30)) == 0:
                n = 0  # an empty chunk, as older stores may hold
            n = max(n, 0)
            start = max(0, t + gap) if i else t
            chunks.append((channel, start, n))
            t = start + int(round(1000.0 * n / rate))
    end_ms = max(start + int(round(1000.0 * n / RATES[c])) for c, start, n in chunks)

    # Beat events split into chunks at arbitrary beats, so chunks straddle
    # window edges; optionally one resent chunk repeats times with other
    # intervals, and optionally the subject has no beat events at all.
    beats = list(range(400, end_ms, 800))
    ibi_chunks = []
    if beats and draw(st.integers(0, 3)):
        cuts = draw(st.sets(st.integers(1, len(beats)), max_size=8))
        bounds = sorted({0, len(beats), *cuts})
        for lo, hi in zip(bounds, bounds[1:]):
            ibi_chunks.append([[beats[k], 0.8 + 0.001 * (k % 7)] for k in range(lo, hi)])
        k = draw(st.integers(0, len(ibi_chunks) - 1))
        if len(ibi_chunks[k]) > 1 and draw(st.booleans()):
            ibi_chunks.append([[t, v + 0.05] for t, v in ibi_chunks[k][1:]])

    records = [("signal_chunk", c) for c in chunks] + [("ibi_chunk", e) for e in ibi_chunks]
    order = draw(st.permutations(range(len(records))))  # out-of-order syncs
    return [records[i] for i in order], draw(st.integers(0, 2**16))


def store_history(store, subject_id, history):
    records, seed = history
    rng = np.random.default_rng(seed)
    for i, (kind, item) in enumerate(records):
        if kind == "signal_chunk":
            channel, start, n = item
            values = [float(v) for v in 2.0 + rng.normal(size=n)]
            payload = {
                "channel": channel,
                "rate_hz": RATES[channel],
                "start_ms": start,
                # Every other chunk in the JSON-list form older stores hold.
                **({"values": values} if i % 2 else {"f64le": encode_samples(values)}),
            }
        else:
            payload = {"events": item}
        store.append(kind, subject_id, payload)


class TestExactness:
    @settings(max_examples=150)
    @given(history=histories(), window=WINDOWS)
    def test_queries_answer_as_the_full_history_does(self, model_payloads, history, window):
        length_s, overlap_s = window
        with tempfile.TemporaryDirectory() as tmp:
            service = seeded_service(
                tmp, model_payloads, window_length_s=length_s, window_overlap_s=overlap_s
            )
            try:
                store_history(service.store, "H0", history)
                expected = outcome(reference_stress, service, "H0")
                assert outcome(service.query_stress, "H0") == expected
                if expected[0] == "ok":
                    want = reference_window(service, "H0")
                    assert_same_window(service._last_window("H0"), want)
                expected = outcome(reference_bp, service, "H0")
                assert outcome(service.query_bp, "H0") == expected
            finally:
                service.store.close()

    def test_beat_chunk_ending_at_the_window_start_is_read(self, model_payloads, tmp_path):
        # 180 s of signal: the last window is [90 s, 180 s), and the first
        # beat chunk's last event lies exactly on its start.
        service = seeded_service(tmp_path, model_payloads)
        history = (
            [
                ("signal_chunk", ("EDA", 0, 720)),
                ("signal_chunk", ("BVP", 0, 11_520)),
                ("signal_chunk", ("ST", 0, 720)),
                ("ibi_chunk", [[t, 1.5] for t in range(1_000, 90_001, 1_000)]),
                ("ibi_chunk", [[t, 0.6] for t in range(90_600, 180_000, 600)]),
            ],
            4,
        )
        store_history(service.store, "H0", history)
        want = reference_window(service, "H0")
        assert want.start_ms == 90_000 and want.ibi.t_ms[0] == 90_000
        assert_same_window(service._last_window("H0"), want)
        assert service.query_stress("H0") == reference_stress(service, "H0")
        service.store.close()

    def test_bundle_equals_the_full_history_bundle(self, model_payloads, tmp_path):
        service = seeded_service(tmp_path, model_payloads)
        history = (
            [
                ("signal_chunk", ("EDA", 60_000, 240)),
                ("signal_chunk", ("EDA", 0, 240)),
                ("signal_chunk", ("BVP", 0, 7680)),
                ("signal_chunk", ("ST", 1_000, 476)),
                ("ibi_chunk", [[t, 0.8] for t in range(400, 60_000, 800)]),
                ("ibi_chunk", [[t, 0.9] for t in range(59_600, 120_000, 800)]),
            ],
            3,
        )
        store_history(service.store, "H0", history)
        got = service.assemble_bundle("H0")
        want = reference_bundle(service.store, "H0")
        assert got.session_start_ms == want.session_start_ms == 1_000
        for name in ("eda", "bvp", "st"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.start_ms, a.rate_hz) == (b.start_ms, b.rate_hz)
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(got.ibi.t_ms, want.ibi.t_ms)
        assert np.array_equal(got.ibi.ibi_s, want.ibi.ibi_s)
        service.store.close()


def minute_payload(subject, minute, rng):
    start = minute * 60_000
    chunks = [
        {"channel": channel, "rate_hz": RATES[channel], "start_ms": start,
         "values": [float(v) for v in 2.0 + rng.normal(size=int(60 * RATES[channel]))]}
        for channel in ("EDA", "BVP", "ST", "PPG")
    ]
    ibi = [[t, 0.8] for t in range(start + 400, start + 60_000, 800)]
    return {"subject_id": subject, "chunks": chunks, "ibi": ibi}


class TestHistoryIndependence:
    def test_query_reads_do_not_grow_with_history(self, model_payloads, tmp_path, monkeypatch):
        n = 4
        reads_at = {}
        for minutes in (n, 2 * n):
            service = seeded_service(tmp_path / str(minutes), model_payloads)
            rng = np.random.default_rng(minutes)
            for minute in range(minutes):
                service.sync_signals(minute_payload("H0", minute, rng))
            reads = Counter()
            read_entry = service.store._read_entry

            def counting(entry):
                record = read_entry(entry)
                reads[record["kind"]] += 1
                return record

            monkeypatch.setattr(service.store, "_read_entry", counting)
            service.query_stress("H0")
            stress_reads = dict(reads)
            reads.clear()
            service.query_bp("H0")
            reads_at[minutes] = (stress_reads, dict(reads))
            service.store.close()
        # The last 90 s window spans two one-minute chunks per channel and
        # two beat-event chunks; the last 40 s of PPG lie in one chunk.
        assert reads_at[n] == reads_at[2 * n] == (
            {"model": 1, "signal_chunk": 6, "ibi_chunk": 2},
            {"model": 2, "signal_chunk": 1},
        )


def test_non_finite_bp_feature_is_an_input_error_naming_it(model_payloads, tmp_path, monkeypatch):
    service = seeded_service(tmp_path, model_payloads)
    service.sync_signals(minute_payload("H0", 0, np.random.default_rng(0)))
    extract = pipeline.bp_reduced_features

    def with_inf(segment):
        row = extract(segment)
        row[BP_REDUCED_NAMES.index("ppg_max")] = np.inf
        return row

    monkeypatch.setattr(pipeline, "bp_reduced_features", with_inf)
    with pytest.raises(InputError, match="non-finite feature value for 'ppg_max'"):
        service.query_bp("H0")
    service.store.close()


class TestSpanGeometry:
    """A span planned from index metadata and a decoded series place samples
    by the one SampledSpan rule."""

    @staticmethod
    def geometry(span):
        return span.start_ms, span.end_ms, span.duration_s, len(span)

    @settings(max_examples=400)
    @given(
        rate=st.sampled_from([4.0, 64.0, 62.5, 125.0]),
        start_ms=st.integers(0, 2 * 10**12),
        lo=st.integers(0, 500),
        n=st.integers(0, 500),
        cut=st.tuples(st.integers(-3, 503), st.integers(-3, 503)),
        bounds=st.tuples(st.integers(-10_000, 140_000), st.integers(-1_000, 140_000)),
    )
    def test_span_and_series_agree(self, rate, start_ms, lo, n, cut, bounds):
        span = _Span(Channel.PPG, rate, start_ms, (), lo, lo + n)
        series = SampleSeries(Channel.PPG, rate, start_ms, np.zeros(n))
        assert self.geometry(span) == self.geometry(series)
        t0, t1 = start_ms + bounds[0], start_ms + bounds[0] + bounds[1]
        for cut_span in (
            lambda s: self.geometry(s.slice_samples(*cut)),
            lambda s: self.geometry(s.slice_ms(t0, t1)),
        ):
            assert outcome(cut_span, span) == outcome(cut_span, series)
