"""Store durability, idempotency, restart from the log alone, the older
one-document line layout, and config round-trips."""

import base64
import json
import struct
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homevitals.errors import ConfigError, FormatError, InputError
from homevitals.location import LocationFix
from homevitals.service import (
    JsonlStore,
    ServiceConfig,
    VitalsService,
    parse_config,
    series_to_payload,
    sync_body,
)
from homevitals.service.config import _KEY_TO_FIELD, _SCALAR_KEYS
from homevitals.service.store import (
    KINDS,
    RECORD_KINDS,
    CortisolMeta,
    IbiMeta,
    TagEventMeta,
    decode_samples,
)
from homevitals.signals import Channel, SampleSeries
from homevitals.simulate import simulate_bp_records
from helpers import every_entry
from test_service_pipeline import bp_payload, stress_payload


@pytest.fixture(scope="module")
def trained_store(tmp_path_factory):
    """A closed store with synced subjects and both models trained: its
    config, log bytes, signal subjects, and the answers its service gave."""
    config = ServiceConfig(
        storage_path=str(tmp_path_factory.mktemp("trained") / "log.jsonl"),
        forest_n_trees=5,
        forest_max_depth=6,
        bp_boost_estimators=4,
        user_tags={1: "alice"},
        location_tags={10: "kitchen"},
    )
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
    answers = ask(service)
    subjects = store.subjects("signal_chunk")
    store.close()
    return config, store.path.read_bytes(), subjects, answers


def ask(service):
    return [service.query_stress("S0"), service.query_bp("P1"), service.query_bp("R0")]


def _dumps(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def older_layout(log: bytes) -> bytes:
    """log rewritten in the layout before per-line headers: one JSON
    document per record, with the payload inside it and no metadata."""
    lines = []
    for line in log.splitlines():
        header, tab, payload = line.partition(b"\t")
        assert tab, line[:80]
        record = {**json.loads(header), "payload": json.loads(payload)}
        del record["meta"]
        lines.append(_dumps(record))
    return b"".join(lines)


def json_list_payloads(log: bytes) -> bytes:
    """log with each chunk's samples as a JSON "values" list, the form chunks
    were stored in before "f64le"; headers are kept byte for byte."""
    lines = []
    for line in log.splitlines(keepends=True):
        header, tab, payload = line.partition(b"\t")
        doc = json.loads(payload)
        if json.loads(header)["kind"] == "signal_chunk":
            doc["values"] = [float(v) for v in decode_samples(doc)]
            del doc["f64le"]
            line = header + tab + _dumps(doc)
        lines.append(line)
    return b"".join(lines)


def _f64le(values) -> str:
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode()


def _n_samples(payload):
    if "f64le" in payload:
        return len(base64.b64decode(payload["f64le"])) // 8
    return len(payload.get("values", ()))


def _dedup_key(kind, subject_id, payload):
    """The duplicate rule the store follows, read from the payload: a second
    record with the same key is not stored; a None key is never a duplicate."""
    if kind == "signal_chunk":
        return (
            kind,
            subject_id,
            payload.get("channel"),
            payload.get("name"),
            payload.get("start_ms"),
            _n_samples(payload),
        )
    if kind == "ibi_chunk":
        events = payload.get("events", ())
        first = events[0][0] if events else None
        return (kind, subject_id, first, len(events))
    if kind == "cortisol":
        return (kind, subject_id, payload.get("timepoint"))
    return None


def older_snapshot_fields(log: bytes) -> dict:
    """The seq, offset and dedup fields that sidecars up to format 3 held
    beside their entries, built from an older-layout log's records and the
    duplicate rule."""
    records = [json.loads(line) for line in log.splitlines()]
    keys = {_dedup_key(r["kind"], r["subject_id"], r["payload"]) for r in records} - {None}
    return {
        "seq": max(r["seq"] for r in records),
        "offset": len(log),
        "dedup": [list(key) for key in keys],
    }


def leftover_sidecar(log: bytes, index_format: int) -> dict:
    """The `.index` sidecar an older version kept beside an older-layout log.
    Format 1 had no format number and five fields per entry; formats 2 and 3
    held seq, offset and dedup beside the entries, and neither gave cortisol
    metadata nor a beat-event count; format 2 gave tag events no metadata.
    The format-4 sidecar here is stale: its model versions disagree with the
    log, so a store that read it would show it."""
    entries, offset = [], 0
    for line in log.splitlines(keepends=True):
        r = json.loads(line)
        meta_type = KINDS[r["kind"]].meta if r["kind"] in KINDS else None
        meta = None if meta_type is None else list(meta_type.of(r["payload"]))
        if index_format == 4 and r["kind"] == "model":
            meta[1] = "stale"
        if index_format in (2, 3) and r["kind"] == "ibi_chunk":
            meta = meta[:2]
        if index_format in (2, 3) and r["kind"] == "cortisol":
            meta = None
        if index_format == 2 and r["kind"] == "tag_event":
            meta = None
        entries.append([r["seq"], r["kind"], r["subject_id"], offset, len(line), meta])
        offset += len(line)
    if index_format == 1:
        return {**older_snapshot_fields(log), "entries": [entry[:5] for entry in entries]}
    fields_ = {} if index_format == 4 else older_snapshot_fields(log)
    return {"format": index_format, **fields_, "entries": entries}


def leave_older_store(path, log: bytes, index_format: int) -> Path:
    """Write an older-layout log to path with a leftover sidecar of
    index_format beside it; returns the sidecar's path."""
    path = Path(path)
    path.write_bytes(log)
    sidecar = path.with_name(path.name + ".index")
    sidecar.write_text(json.dumps(leftover_sidecar(log, index_format)))
    return sidecar


def state(store):
    """What a store holds in memory: each entry's seq, kind, subject and
    metadata (not where it lies in the log), the duplicate set, the last seq."""
    entries = sorted(
        (e.seq, kind, subject_id, e.meta)
        for (kind, subject_id), listed in store._by_key.items()
        for e in listed
    )
    return entries, store._dedup, store._seq


def chunk_payload(start_ms=0, n=8, channel="EDA", name=None):
    payload = {
        "channel": channel,
        "rate_hz": 4.0,
        "start_ms": start_ms,
        "values": [0.1 * i for i in range(n)],
    }
    if name:
        payload["name"] = name
    return payload


class TestJsonlStore:
    def test_append_and_read_back(self, tmp_path):
        store = JsonlStore(tmp_path / "log.jsonl")
        record = store.append("signal_chunk", "S00", chunk_payload())
        assert record["seq"] == 1
        got = list(store.records(store.index("signal_chunk", "S00")))
        assert got[0]["payload"]["channel"] == "EDA"
        store.close()

    def test_duplicate_chunk_ignored(self, tmp_path):
        store = JsonlStore(tmp_path / "log.jsonl")
        assert store.append("signal_chunk", "S00", chunk_payload()) is not None
        assert store.append("signal_chunk", "S00", chunk_payload()) is None
        assert len(store) == 1
        store.close()

    def test_reload_preserves_dedup(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = JsonlStore(path)
        store.append("signal_chunk", "S00", chunk_payload())
        store.close()
        reopened = JsonlStore(path)
        assert reopened.append("signal_chunk", "S00", chunk_payload()) is None
        assert len(reopened) == 1
        reopened.close()

    def test_torn_trailing_line_dropped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = JsonlStore(path)
        store.append("cortisol", "S00", {"timepoint": "T1", "t_ms": 0, "concentration_ugdl": 0.2})
        store.close()
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 2, "kind": "cortisol", "trunc')  # torn write
        reopened = JsonlStore(path)
        assert len(reopened) == 1
        record = reopened.append("tag_registration", "", {"kind": "user", "index": 2, "name": "b"})
        assert record["seq"] == 2
        # Dropped without close(), as by kill -9: the next open finds the
        # acknowledged append in the log.
        reopened._fh.close()
        reopened._reader.close()
        again = JsonlStore(path)
        assert [r["seq"] for r in again.records(every_entry(again))] == [1, 2]
        again.close()

    @pytest.mark.parametrize(
        "cut", ["inside the header", "before the tab", "after the tab", "inside the payload"]
    )
    def test_torn_line_is_cut_wherever_it_ends(self, tmp_path, cut):
        path = tmp_path / "log.jsonl"
        store = JsonlStore(path)
        store.append("cortisol", "S00", {"timepoint": "T1", "t_ms": 0, "concentration_ugdl": 0.2})
        store.close()
        acknowledged = path.read_bytes()
        other = JsonlStore(tmp_path / "other.jsonl")
        other.append("cortisol", "S00", {"timepoint": "T0"})
        other.append("cortisol", "S00", {"timepoint": "T2", "t_ms": 1, "concentration_ugdl": 0.3})
        other.close()
        line = other.path.read_bytes().splitlines(keepends=True)[1]
        tab = line.index(b"\t")
        end = {
            "inside the header": tab // 2,
            "before the tab": tab,
            "after the tab": tab + 1,
            "inside the payload": len(line) - 3,
        }[cut]
        path.write_bytes(acknowledged + line[:end])  # a write cut short by a crash

        reopened = JsonlStore(path)
        assert len(reopened) == 1
        assert path.read_bytes() == acknowledged
        record = reopened.append("cortisol", "S00", {"timepoint": "T2"})
        assert record["seq"] == 2
        reopened._fh.close()  # dropped without close(), as by kill -9
        reopened._reader.close()
        again = JsonlStore(path)
        read = again.records(every_entry(again))
        assert [(r["seq"], r["payload"]["timepoint"]) for r in read] == [(1, "T1"), (2, "T2")]
        again.close()

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda header: b"x" + header[1:],
            lambda header: header.replace(b'"seq"', b'"sequence"'),
            lambda header: header.replace(b'"meta":["T2"]', b'"meta":[]'),
        ],
        ids=["not JSON", "no seq", "metadata of the wrong length"],
    )
    def test_corrupt_header_in_the_middle_names_its_byte_offset(self, tmp_path, corrupt):
        path = tmp_path / "log.jsonl"
        store = JsonlStore(path)
        for timepoint in ("T1", "T2", "T3"):
            store.append("cortisol", "S00", {"timepoint": timepoint})
        store.close()
        first, second, third = path.read_bytes().splitlines(keepends=True)
        header, tab, payload = second.partition(b"\t")
        path.write_bytes(first + corrupt(header) + tab + payload + third)
        with pytest.raises(FormatError, match=f"corrupt record at byte {len(first)}:"):
            JsonlStore(path)

    def test_corrupt_payload_is_found_when_its_record_is_read(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = JsonlStore(path)
        for timepoint in ("T1", "T2", "T3"):
            store.append("cortisol", "S00", {"timepoint": timepoint})
        store.close()
        first, second, third = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(first + second.replace(b'"timepoint"', b'"timepoint') + third)
        reopened = JsonlStore(path)
        assert len(reopened) == 3
        with pytest.raises(FormatError, match=f"corrupt payload at byte {len(first)}:"):
            list(reopened.records(every_entry(reopened)))
        cortisol = reopened.index("cortisol", "S00")
        intact = reopened.records(e for e in cortisol if e.meta != CortisolMeta("T2"))
        assert [r["payload"]["timepoint"] for r in intact] == ["T1", "T3"]
        reopened.close()

    def test_reopen_after_many_appends_reads_only_the_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = JsonlStore(path)
        for i in range(261):
            store.append("tag_event", "", {"kind": "user", "index": i, "t_server_ms": i})
        store.close()
        assert [p.name for p in tmp_path.iterdir()] == ["log.jsonl"]
        reopened = JsonlStore(path)
        assert len(reopened) == 261
        assert reopened.index("tag_event", "")[-1].meta == TagEventMeta(260)
        assert reopened.append("tag_event", "", {"kind": "user", "index": -1, "t_server_ms": 0})[
            "seq"
        ] == 262
        reopened.close()

    def test_unknown_kind_rejected(self, tmp_path):
        store = JsonlStore(tmp_path / "log.jsonl")
        with pytest.raises(InputError):
            store.append("blob", "S00", {})
        store.close()

    def test_latest_matches_payload(self, tmp_path):
        store = JsonlStore(tmp_path / "log.jsonl")
        store.append("model", "", {"model_key": "stress", "version": "a"})
        store.append("model", "", {"model_key": "bp_sbp", "version": "b"})
        store.append("model", "", {"model_key": "stress", "version": "c"})
        assert store.latest("model", model_key="stress")["payload"]["version"] == "c"
        store.close()

    def test_subjects_listed_from_index_without_reading(self, tmp_path, monkeypatch):
        path = tmp_path / "log.jsonl"
        store = JsonlStore(path)
        store.append("signal_chunk", "S02", chunk_payload())
        store.append("cortisol", "S01", {"timepoint": "T1"})
        store.append("signal_chunk", "S01", chunk_payload())
        store.append("signal_chunk", "S02", chunk_payload(start_ms=2000))
        store.close()
        reopened = JsonlStore(path)

        def no_reads(entry):
            raise AssertionError("subjects() read a record")

        monkeypatch.setattr(reopened, "_read_entry", no_reads)
        assert reopened.subjects("signal_chunk") == ["S02", "S01"]
        assert reopened.subjects("cortisol") == ["S01"]
        assert reopened.subjects("model") == []
        reopened.close()

    def test_older_layout_beside_a_format_1_sidecar(self, tmp_path, trained_store):
        # The first sidecars held five fields per entry and no format number.
        config, log, subjects, answers = trained_store
        config = config.with_storage(tmp_path / "log.jsonl")
        log = older_layout(log)
        sidecar = leave_older_store(config.storage_path, log, 1)
        left = sidecar.read_bytes()

        reopened = JsonlStore(config.storage_path)
        assert len(reopened) == len(log.splitlines())
        assert reopened.subjects("signal_chunk") == subjects
        service = VitalsService(config, reopened)
        assert ask(service) == answers
        reopened.close()
        assert sidecar.read_bytes() == left

    def test_older_layout_with_prediction_records_beside_a_format_2_sidecar(
        self, tmp_path, trained_store
    ):
        # Format 2 is the layout in which every GET /stress and /bp stored a
        # prediction record and a tag event's index entry had no metadata.
        config, log, subjects, answers = trained_store
        config = config.with_storage(tmp_path / "log.jsonl")
        log = older_layout(log)
        now = int(time.time() * 1000)
        tail = [
            ("prediction", "S0", {"kind": "stress", **answers[0]}),
            ("tag_event", "", {"kind": "user", "index": 1, "t_server_ms": now - 2000}),
            ("prediction", "P1", {"kind": "bp", **answers[1]}),
            ("tag_event", "", {"kind": "location", "index": 10, "t_server_ms": now - 1000}),
        ]
        first_seq = older_snapshot_fields(log)["seq"] + 1
        for seq, (kind, subject_id, payload) in enumerate(tail, start=first_seq):
            record = {
                "seq": seq,
                "schema": 1,
                "kind": kind,
                "subject_id": subject_id,
                "created_at_ms": now,
                "payload": payload,
            }
            log += _dumps(record)
        sidecar = leave_older_store(config.storage_path, log, 2)
        left = sidecar.read_bytes()

        reopened = JsonlStore(config.storage_path)
        assert len(reopened) == len(log.splitlines())
        assert reopened.subjects("signal_chunk") == subjects
        assert [e.meta for e in reopened.index("tag_event", "")] == [
            TagEventMeta(now - 2000),
            TagEventMeta(now - 1000),
        ]
        service = VitalsService(config, reopened)
        assert ask(service) == answers
        fix = LocationFix(1, 10, now - 2000, now - 1000, "alice", "kitchen")
        assert service.locate("alice") == fix
        reopened.close()
        assert sidecar.read_bytes() == left

    def test_older_layout_beside_a_format_3_sidecar(self, tmp_path, trained_store):
        # Format 3 held the duplicate keys, the last seq and the log offset
        # beside the entries; its beat-event metadata had no event count and
        # cortisol entries had no metadata.
        config, log, subjects, answers = trained_store
        config = config.with_storage(tmp_path / "log.jsonl")
        log = older_layout(log)
        sidecar = leave_older_store(config.storage_path, log, 3)
        left = sidecar.read_bytes()

        reopened = JsonlStore(config.storage_path)
        assert len(reopened) == len(log.splitlines())
        assert reopened.subjects("signal_chunk") == subjects
        [ibi] = reopened.index("ibi_chunk", "S0")
        assert isinstance(ibi.meta, IbiMeta) and ibi.meta.n_events > 0
        assert reopened.index("cortisol", "S0")[0].meta == CortisolMeta("T1")
        for kind in RECORD_KINDS:
            for record in reopened.records(reopened.index(kind, "S0")):
                assert reopened.append(kind, "S0", record["payload"]) is None
        service = VitalsService(config, reopened)
        assert ask(service) == answers
        reopened.close()
        assert sidecar.read_bytes() == left

    @pytest.mark.parametrize("index_format", [1, 2, 3, 4])
    def test_older_layout_opens_to_the_state_of_the_new_layout(
        self, tmp_path, trained_store, index_format
    ):
        config, log, subjects, answers = trained_store
        (tmp_path / "new").mkdir()
        new_path = tmp_path / "new" / "log.jsonl"
        new_path.write_bytes(log)
        config = config.with_storage(tmp_path / "log.jsonl")
        sidecar = leave_older_store(config.storage_path, older_layout(log), index_format)
        left = sidecar.read_bytes()
        new, older = JsonlStore(new_path), JsonlStore(config.storage_path)
        assert state(older) == state(new)
        assert list(older.records(every_entry(older))) == list(new.records(every_entry(new)))
        # records(entries) reads exactly the entries given, in the order given:
        # here each key's entries newest first, every other one, key after key.
        reads = []
        for store in (new, older):
            picked = [
                (kind, subject_id, entry)
                for kind in ("model", "cortisol", "signal_chunk", "ibi_chunk")
                for subject_id in ("", "S0", "P1")
                for entry in store.index(kind, subject_id)[::-2]
            ]
            assert len({(kind, subject_id) for kind, subject_id, _entry in picked}) >= 4
            seqs = [entry.seq for _kind, _subject_id, entry in picked]
            assert seqs != sorted(seqs)
            read = list(store.records(entry for _kind, _subject_id, entry in picked))
            assert [(r["seq"], r["kind"], r["subject_id"]) for r in read] == [
                (entry.seq, kind, subject_id) for kind, subject_id, entry in picked
            ]
            reads.append(read)
        assert reads[0] == reads[1]
        assert ask(VitalsService(config, older)) == answers

        now = int(time.time() * 1000)
        model = new.latest("model", model_key="stress")["payload"]
        [chunk, *_] = new.records(new.index("signal_chunk", "S0"))
        appends = [
            ("tag_event", "", {"kind": "user", "index": 1, "t_server_ms": now - 2000}),
            ("signal_chunk", "S0", chunk["payload"]),  # a duplicate: not stored
            ("tag_event", "", {"kind": "location", "index": 10, "t_server_ms": now - 1000}),
            ("cortisol", "S9", {"timepoint": "T1", "t_ms": 0, "concentration_ugdl": 0.2}),
            ("model", "", model),
        ]
        for kind, subject_id, payload in appends:
            stored = [store.append(kind, subject_id, payload) for store in (new, older)]
            assert (stored[0] is None) == (stored[1] is None) == (kind == "signal_chunk")
            if stored[0] is not None:
                assert stored[0]["seq"] == stored[1]["seq"]
        assert state(older) == state(new)
        new.close()
        older.close()

        new, older = JsonlStore(new_path), JsonlStore(config.storage_path)
        assert state(older) == state(new)
        assert older.append("cortisol", "S9", {"timepoint": "T1"}) is None
        service = VitalsService(config, older)
        assert ask(service) == answers
        assert service.locate("alice") == LocationFix(
            1, 10, now - 2000, now - 1000, "alice", "kitchen"
        )
        new.close()
        older.close()
        assert sidecar.read_bytes() == left

    @pytest.mark.parametrize("layout", ["headers", "one document"])
    def test_json_list_chunks_answer_as_f64le_chunks(self, tmp_path, trained_store, layout):
        config, log, subjects, answers = trained_store
        assert b'"f64le":' in log and b'"values":' not in log
        listed = json_list_payloads(log)
        if layout == "one document":
            listed = older_layout(listed)
        (tmp_path / "f64le").mkdir()
        (tmp_path / "f64le" / "log.jsonl").write_bytes(log)
        config = config.with_storage(tmp_path / "log.jsonl")
        Path(config.storage_path).write_bytes(listed)
        binary, store = JsonlStore(tmp_path / "f64le" / "log.jsonl"), JsonlStore(config.storage_path)
        assert state(store) == state(binary)
        assert store.subjects("signal_chunk") == subjects
        for subject_id in subjects:
            gots = store.records(store.index("signal_chunk", subject_id))
            wants = binary.records(binary.index("signal_chunk", subject_id))
            for got, want in zip(gots, wants):
                assert "values" in got["payload"] and "f64le" in want["payload"]
                got, want = decode_samples(got["payload"]), decode_samples(want["payload"])
                assert got.tobytes() == want.tobytes()
        service = VitalsService(config, store)
        assert ask(service) == answers
        versions = VitalsService(config, binary).model_versions()
        assert service.train_stress(seed=0)["version"] == versions["stress"]
        trained = service.train_bp(seed=0)
        assert (trained["bp_sbp"], trained["bp_dbp"]) == (versions["bp_sbp"], versions["bp_dbp"])
        binary.close()
        store.close()

    @pytest.mark.parametrize("layout", ["headers", "one document"])
    def test_chunk_stored_as_json_list_is_a_duplicate_when_resent(self, tmp_path, layout):
        series = SampleSeries(Channel.EDA, 4.0, 60_000, [0.1 * i for i in range(240)])
        path = tmp_path / "log.jsonl"
        store = JsonlStore(path)
        store.append("signal_chunk", "S0", series_to_payload(series))  # as stored before f64le
        store.close()
        if layout == "one document":
            path.write_bytes(older_layout(path.read_bytes()))
        store = JsonlStore(path)
        service = VitalsService(ServiceConfig(storage_path=str(path)), store)
        assert service.sync_signals(sync_body("S0", [series])) == {
            "subject_id": "S0",
            "stored": 0,
            "duplicates": 1,
        }
        assert len(store) == 1
        store.close()

    def test_a_batch_is_one_write_and_one_fsync(self, tmp_path, monkeypatch):
        store = JsonlStore(tmp_path / "log.jsonl")
        calls = []
        monkeypatch.setattr("os.fsync", lambda fd: calls.append("fsync"))
        fh = store._fh

        class Recording:
            def __getattr__(self, name):
                return getattr(fh, name)

            def write(self, data):
                calls.append("write")
                return fh.write(data)

        store._fh = Recording()
        batch = [
            ("signal_chunk", "S0", chunk_payload(0)),
            ("cortisol", "S0", {"timepoint": "T1"}),
            ("signal_chunk", "S0", chunk_payload(0)),  # a duplicate inside the batch
            ("signal_chunk", "S0", chunk_payload(2000)),
        ]
        stored = store.append_many(batch)
        assert [r is not None for r in stored] == [True, True, False, True]
        assert [r["seq"] for r in stored if r] == [1, 2, 3]
        assert calls == ["write", "fsync"]
        assert store.append_many(batch) == [None] * 4
        assert calls == ["write", "fsync"]  # nothing to write, nothing to fsync
        store._fh = fh
        store.close()

    def test_a_batch_cut_anywhere_reopens_to_a_prefix_of_it(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = JsonlStore(path)
        store.append("cortisol", "S0", {"timepoint": "T1"})
        store.close()
        acknowledged = path.read_bytes()
        batch = [
            ("signal_chunk", "S0", chunk_payload(0)),
            ("signal_chunk", "S0", chunk_payload(2000, name="sbp_mmhg")),
            ("ibi_chunk", "S0", {"events": [[0, 0.8], [800, 0.81]]}),
            ("cortisol", "S0", {"timepoint": "T1"}),  # stored before: a duplicate
            ("cortisol", "S0", {"timepoint": "T2"}),
        ]
        store = JsonlStore(path)
        assert [r is not None for r in store.append_many(batch)] == [True] * 3 + [False, True]
        full = state(store)
        store.close()
        written = path.read_bytes()[len(acknowledged) :]
        lines = written.splitlines(keepends=True)
        assert len(lines) == 4

        def prefix_state(n):
            """The state of a store that was given the batch's first n stored lines."""
            reference = JsonlStore(tmp_path / f"reference{n}.jsonl")
            reference.append("cortisol", "S0", {"timepoint": "T1"})
            reference.append_many([r for r in batch if r[2] != {"timepoint": "T1"}][:n])
            reference.close()
            return state(reference)

        cuts = {}  # byte offset into the batch -> complete lines before it
        for n, line in enumerate(lines):
            start = sum(map(len, lines[:n]))
            tab = line.index(b"\t")
            cuts[start] = n
            for inside in (1, tab // 2, tab, tab + 1, len(line) - 1):
                cuts[start + inside] = n
        cuts[len(written)] = len(lines)
        for cut, n in sorted(cuts.items()):
            path.write_bytes(acknowledged + written[:cut])  # a write cut short by a crash
            reopened = JsonlStore(path)
            assert path.read_bytes() == acknowledged + b"".join(lines[:n]), cut
            assert state(reopened) == prefix_state(n), cut
            # The batch sent again stores exactly what the cut lost.
            again = reopened.append_many(batch)
            assert sum(r is not None for r in again) == len(lines) - n, cut
            assert state(reopened) == full, cut
            reopened.close()

    def test_records_are_schema_versioned(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = JsonlStore(path)
        store.append("tag_registration", "", {"kind": "user", "index": 2, "name": "bob"})
        store.close()
        header, tab, _payload = path.read_bytes().splitlines()[0].partition(b"\t")
        assert tab and json.loads(header)["schema"] == 1


_SMALL = st.integers(0, 1)
_NAME = st.sampled_from(["sbp_mmhg", "dbp_mmhg"])
_SAMPLES = st.lists(st.floats(-1, 1), max_size=3)
_PAYLOADS = {
    # Each field may be missing; values of one field collide often. A chunk
    # holds its samples as a JSON list, as base64 float64, both or neither.
    "signal_chunk": st.fixed_dictionaries(
        {},
        optional={
            "channel": st.sampled_from(["EDA", "PPG"]),
            "name": st.none() | _NAME,
            "start_ms": _SMALL,
            "values": _SAMPLES,
            "f64le": _SAMPLES.map(_f64le),
            "rate_hz": st.sampled_from([4.0, 64.0]),
        },
    ),
    "ibi_chunk": st.fixed_dictionaries(
        {},
        optional={"events": st.lists(st.tuples(_SMALL, st.floats(0.5, 1)).map(list), max_size=3)},
    ),
    "cortisol": st.fixed_dictionaries(
        {}, optional={"timepoint": st.sampled_from(["T1", "T2"]), "t_ms": _SMALL}
    ),
    "model": st.fixed_dictionaries(
        {}, optional={"model_key": st.sampled_from(["stress", "bp_sbp"]), "version": _NAME}
    ),
    "tag_registration": st.fixed_dictionaries({"kind": st.just("user"), "index": _SMALL}),
    "tag_event": st.fixed_dictionaries({"t_server_ms": _SMALL}),
}
_APPENDS = st.lists(
    st.sampled_from(RECORD_KINDS).flatmap(
        lambda kind: st.tuples(st.just(kind), st.sampled_from(["", "S0"]), _PAYLOADS[kind])
    ),
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(live=_APPENDS, after_reopen=_APPENDS, after_kill=_APPENDS, data=st.data())
def test_duplicates_follow_the_rule_live_after_a_reopen_and_after_a_kill(
    live, after_reopen, after_kill, data
):
    assert set(_PAYLOADS) == set(RECORD_KINDS)
    stored_keys = set()

    def split(appends):
        """appends cut at random into batches; a batch of one may take either path."""
        cuts = data.draw(st.sets(st.integers(0, len(appends))), label="cuts")
        bounds = sorted({0, len(appends), *cuts})
        batches = [appends[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        return [(b, len(b) == 1 and data.draw(st.booleans(), label="append")) for b in batches]

    def append_all(store, batches):
        for batch, one_by_one in batches:
            results = [store.append(*batch[0])] if one_by_one else store.append_many(batch)
            assert len(results) == len(batch)
            for (kind, subject_id, payload), result in zip(batch, results):
                key = _dedup_key(kind, subject_id, payload)
                stored = result is not None
                assert stored == (key is None or key not in stored_keys), (kind, payload)
                stored_keys.add(key)

    live, after_reopen, after_kill = map(split, (live, after_reopen, after_kill))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        store = JsonlStore(path)
        append_all(store, live)
        store.close()
        store = JsonlStore(path)  # after close()
        append_all(store, after_reopen)
        store._fh.close()  # dropped without close(), as by kill -9
        store._reader.close()
        store = JsonlStore(path)
        append_all(store, after_kill)
        store.close()


class TestServiceConfig:
    def test_every_scalar_field_has_one_key_of_its_type(self):
        scalars = {f.name: f.type for f in fields(ServiceConfig) if not f.name.endswith("_tags")}
        assert sorted(_KEY_TO_FIELD.values()) == sorted(scalars)
        for key, caster in _SCALAR_KEYS.items():
            assert caster.__name__ == scalars[_KEY_TO_FIELD[key]]

    def test_round_trip(self):
        changed = {
            "listen_host": "0.0.0.0",
            "listen_port": 9100,
            "storage_path": "elsewhere.jsonl",
            "window_length_s": 60.5,
            "window_overlap_s": 30.25,
            "match_tolerance_s": 2.5,
            "match_search_window_s": 120.0,
            "label_threshold": 0.15,
            "forest_n_trees": 7,
            "forest_max_depth": 5,
            "bp_boost_estimators": 9,
            "seed": 3,
        }
        assert sorted(changed) == sorted(_KEY_TO_FIELD.values())
        config = ServiceConfig(
            **changed, user_tags={1: "alice", 2: "bob"}, location_tags={10: "kitchen"}
        )
        defaults = ServiceConfig()
        assert [k for k in changed if getattr(config, k) == getattr(defaults, k)] == []
        text = "".join(f"{key} = {changed[_KEY_TO_FIELD[key]]}\n" for key in _SCALAR_KEYS)
        text += "tags.user.1 = alice\ntags.user.2 = bob\ntags.location.10 = kitchen\n"
        assert parse_config(text) == config

    def test_comments_and_unknown_keys(self):
        parsed = parse_config("# comment\nseed = 5\n\nforest.n_trees = 10\n")
        assert parsed.seed == 5
        assert parsed.forest_n_trees == 10
        # Model settings the service shares with the experiments are not keys.
        for key in (
            "bogus.key",
            "filter.order",
            "filter.cutoff_hz",
            "forest.min_samples_leaf",
            "bp.segment_s",
            "bp.tree_max_depth",
        ):
            with pytest.raises(ConfigError, match=f"unknown key {key!r}"):
                parse_config(f"{key} = 1\n")

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("match.search_window_s = nan", "finite"),
            ("match.search_window_s = inf", "finite"),
            ("match.tolerance_s = nan", "finite"),
            ("match.tolerance_s = -1", "positive"),
            ("window.length_s = nan", "finite"),
            ("window.overlap_s = inf", "overlap < length"),
            ("window.overlap_s = 100", "overlap < length"),
            # The window grid steps in whole ms; a 0 ms step reaching it
            # would turn /train/stress and /stress into 500s.
            ("window.overlap_s = 89.9996", "at least 1 ms"),
            ("label.threshold = nan", "finite"),
            ("label.threshold = -1", "non-negative"),
            ("forest.n_trees = 0", "forest.n_trees must be >= 1"),
            ("bp.boost_estimators = 0", "bp.boost_estimators must be >= 1"),
            ("seed = -1", "seed must be >= 0"),
        ],
    )
    def test_setting_the_service_cannot_use_fails_at_parse(self, line, reason):
        with pytest.raises(ConfigError, match=reason):
            parse_config(line + "\n")

    @pytest.mark.parametrize("key", ["tags.user.abc", "tags.location.1.5", "tags.user."])
    def test_bad_tag_index_is_config_error(self, key):
        with pytest.raises(ConfigError, match=f"line 2: bad tag index in {key!r}"):
            parse_config(f"seed = 1\n{key} = kitchen\n")

    def test_derived_objects(self):
        config = ServiceConfig()
        assert config.window_spec.length_s == 90.0
        assert config.match_config.tolerance_s == 5.0
