"""Service pipeline: sync validation, training, and versioned queries."""

import logging
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import pulse_wave
import homevitals
from homevitals.errors import InputError, NotFound, NotReady, NoWindow, RegistrationError
from homevitals.labeling import CortisolSample, Timepoint
from homevitals.location import LocationFix, NoFix, TagEvent, TagKind
from homevitals.service import (
    JsonlStore,
    ServiceConfig,
    VitalsService,
    cortisol_to_payload,
    payload_to_cortisol,
    series_to_payload,
)
from homevitals.signals import Channel, SampleSeries
from homevitals.service.store import decode_samples
from homevitals.simulate import simulate_bp_records

MIN_MS = 60_000


@pytest.fixture
def service(tmp_path):
    config = ServiceConfig(
        storage_path=str(tmp_path / "store.jsonl"),
        forest_n_trees=5,
        forest_max_depth=6,
        bp_boost_estimators=4,
        user_tags={1: "alice"},
        location_tags={10: "kitchen"},
    )
    store = JsonlStore(config.storage_path)
    yield VitalsService(config, store)
    store.close()


def stress_payload(subject, stressed, seed=0, duration_s=180.0):
    rng = np.random.default_rng(seed)
    n4 = int(duration_s * 4)
    eda = 2.0 + 0.05 * rng.normal(size=n4) + (0.8 if stressed else 0.0)
    bvp = pulse_wave(duration_s, 64.0, 1.3 if stressed else 1.0, noise=0.02, seed=seed)
    st = 33.5 - (0.5 if stressed else 0.0) + 0.03 * rng.normal(size=n4)
    ibi_value = 0.65 if stressed else 0.85
    ibi = [[int(t * 1000), ibi_value] for t in np.arange(0.5, duration_s, ibi_value)]
    # T1 sits before the recording so windows anchor to T2.
    t1_ms = -10 * MIN_MS
    concentration = 0.4 if stressed else 0.2
    return {
        "subject_id": subject,
        "chunks": [
            {"channel": "EDA", "rate_hz": 4.0, "start_ms": 0, "values": eda.tolist()},
            {"channel": "BVP", "rate_hz": 64.0, "start_ms": 0, "values": bvp.tolist()},
            {"channel": "ST", "rate_hz": 4.0, "start_ms": 0, "values": st.tolist()},
        ],
        "ibi": ibi,
        "cortisol": [
            {"timepoint": "T1", "t_ms": t1_ms, "concentration_ugdl": 0.2},
            {"timepoint": "T2", "t_ms": t1_ms + 20 * MIN_MS, "concentration_ugdl": concentration},
        ],
    }


class TestSync:
    def test_ack_counts(self, service):
        ack = service.sync_signals(stress_payload("S00", stressed=False))
        assert ack["stored"] == 3 + 1 + 2  # chunks + ibi + cortisol
        assert ack["duplicates"] == 0

    def test_resend_is_idempotent(self, service):
        payload = stress_payload("S00", stressed=False)
        service.sync_signals(payload)
        ack = service.sync_signals(payload)
        assert ack["stored"] == 0
        assert ack["duplicates"] == 6

    def test_one_store_call_and_one_fsync_per_sync(self, service, monkeypatch):
        payload = stress_payload("S00", stressed=False)
        payload["chunks"].append(payload["chunks"][0])  # a duplicate inside the request
        batches, fsyncs = [], []
        append_many = service.store.append_many
        monkeypatch.setattr(service.store, "append", lambda *a: pytest.fail("append called"))
        monkeypatch.setattr(
            service.store, "append_many", lambda batch: batches.append(1) or append_many(batch)
        )
        monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd))
        ack = service.sync_signals(payload)
        assert (ack["stored"], ack["duplicates"]) == (6, 1)
        assert batches == [1] and len(fsyncs) == 1

    def test_chunks_are_stored_as_exact_float64(self, service):
        payload = stress_payload("S00", stressed=False)
        payload["chunks"][0]["values"][:3] = [-0.0, 5e-324, 1.7976931348623157e308]
        service.sync_signals(payload)
        chunks = service.store.index("signal_chunk", "S00")
        stored = [r["payload"] for r in service.store.records(chunks)]
        assert all("f64le" in p and "values" not in p for p in stored)
        for sent, kept in zip(payload["chunks"], stored):
            assert {k: v for k, v in kept.items() if k != "f64le"} == {
                k: v for k, v in sent.items() if k != "values"
            }
            got = decode_samples(kept)
            assert got.tobytes() == np.asarray(sent["values"], dtype=np.float64).tobytes()

    def test_wrong_rate_rejected_with_field(self, service):
        bad = {
            "subject_id": "S00",
            "chunks": [{"channel": "EDA", "rate_hz": 64.0, "start_ms": 0, "values": [1.0]}],
        }
        with pytest.raises(InputError, match=r"chunks\[0\]"):
            service.sync_signals(bad)
        assert len(service.store) == 0  # nothing persisted from a rejected sync

    def test_missing_subject_rejected(self, service):
        with pytest.raises(InputError, match="subject_id"):
            service.sync_signals({"chunks": []})

    def test_cortisol_payload_round_trip(self):
        samples = [
            CortisolSample("S00", Timepoint.T1, -600_000, 0.2),
            CortisolSample("S00", Timepoint.T2, 600_000, 0.0),
            CortisolSample("S00", Timepoint.T4, 2**40, 1.25e-3),
        ]
        assert payload_to_cortisol(cortisol_to_payload(samples), "S00") == samples

    def test_cortisol_errors_name_the_entry(self):
        good = {"timepoint": "T1", "t_ms": 0, "concentration_ugdl": 0.2}
        with pytest.raises(InputError, match=r"^cortisol\[1\]: "):
            payload_to_cortisol([good, {**good, "timepoint": "T9"}], "S00")


class TestStressTrainQuery:
    def test_train_then_query(self, service):
        for i in range(3):
            service.sync_signals(stress_payload(f"R{i}", stressed=False, seed=i))
            service.sync_signals(stress_payload(f"S{i}", stressed=True, seed=10 + i))
        result = service.train_stress(seed=1)
        assert result["model_key"] == "stress"
        assert len(result["version"]) == 12
        response = service.query_stress("S0")
        assert response["label"] == "stressed"
        assert response["probability"] > 0.5
        assert response["model_version"] == result["version"]
        assert response["window_end_ms"] <= 180_000
        calm = service.query_stress("R0")
        assert calm["label"] == "not_stressed"

    def test_query_without_model(self, service):
        service.sync_signals(stress_payload("S00", stressed=False))
        with pytest.raises(NotReady):
            service.query_stress("S00")

    def test_query_reads_each_record_once(self, service, monkeypatch):
        for i in range(2):
            service.sync_signals(stress_payload(f"R{i}", stressed=False, seed=i))
            service.sync_signals(stress_payload(f"S{i}", stressed=True, seed=10 + i))
        service.train_stress(seed=0)
        reads = Counter()
        read_entry = service.store._read_entry

        def counting(entry):
            record = read_entry(entry)
            reads[record["kind"], record["subject_id"]] += 1
            return record

        monkeypatch.setattr(service.store, "_read_entry", counting)
        service.query_stress("S0")
        # The model, then S0's three channel chunks and its beat events.
        assert reads == {("model", ""): 1, ("signal_chunk", "S0"): 3, ("ibi_chunk", "S0"): 1}

    def test_query_without_data(self, service):
        for i in range(2):
            service.sync_signals(stress_payload(f"R{i}", stressed=False, seed=i))
            service.sync_signals(stress_payload(f"S{i}", stressed=True, seed=10 + i))
        service.train_stress(seed=0)
        with pytest.raises(NoWindow):
            service.query_stress("ghost")

    def test_training_is_reproducible(self, service):
        for i in range(2):
            service.sync_signals(stress_payload(f"R{i}", stressed=False, seed=i))
            service.sync_signals(stress_payload(f"S{i}", stressed=True, seed=10 + i))
        v1 = service.train_stress(seed=7)["version"]
        v2 = service.train_stress(seed=7)["version"]
        assert v1 == v2


def bp_payload(subject, unit, offset_s, duration_s=200.0):
    rate = unit.ppg.rate_hz
    i0 = int(offset_s * rate)
    i1 = i0 + int(duration_s * rate)
    ppg = unit.ppg.slice_samples(i0, i1)
    j0, j1 = int(offset_s), int(offset_s + duration_s)
    sbp = SampleSeries(Channel.DERIVED, 1.0, ppg.start_ms, unit.sbp.values[j0:j1])
    dbp = SampleSeries(Channel.DERIVED, 1.0, ppg.start_ms, unit.dbp.values[j0:j1])
    return {
        "subject_id": subject,
        "chunks": [
            series_to_payload(ppg),
            series_to_payload(sbp, name="sbp_mmhg"),
            series_to_payload(dbp, name="dbp_mmhg"),
        ],
    }


class TestBpTrainQuery:
    def test_train_then_query(self, service):
        unit = simulate_bp_records(1, "short_term", seed=0)[0].units[0]
        for i, offset in enumerate((0.0, 300.0, 600.0, 900.0)):
            service.sync_signals(bp_payload(f"P{i}", unit, offset))
        result = service.train_bp(seed=2)
        assert "bp_sbp" in result and "bp_dbp" in result
        response = service.query_bp("P0")
        assert response["sbp_mmhg"] >= response["dbp_mmhg"]
        assert 80 <= response["sbp_mmhg"] <= 200
        assert response["model_version_sbp"] == result["bp_sbp"]
        assert response["segment_end_ms"] - response["segment_start_ms"] == 40_000

    def test_bvp_serves_as_pulse_source(self, service):
        unit = simulate_bp_records(1, "short_term", seed=1)[0].units[0]
        for i, offset in enumerate((0.0, 300.0)):
            service.sync_signals(bp_payload(f"P{i}", unit, offset))
        service.train_bp(seed=0)
        service.sync_signals(stress_payload("W0", stressed=False))
        response = service.query_bp("W0")  # only has wristband BVP
        assert response["sbp_mmhg"] >= response["dbp_mmhg"]

    def test_query_without_model(self, service):
        service.sync_signals(stress_payload("W0", stressed=False))
        with pytest.raises(NotReady):
            service.query_bp("W0")

    def test_inverted_models_trigger_swap_guard(self, service):
        # Sync with the target names crossed so the 'sbp' model learns the
        # lower pressure; the response must come back swapped and flagged.
        unit = simulate_bp_records(1, "short_term", seed=2)[0].units[0]
        for i, offset in enumerate((0.0, 300.0)):
            payload = bp_payload(f"P{i}", unit, offset)
            for chunk in payload["chunks"]:
                if chunk.get("name") == "sbp_mmhg":
                    chunk["name"] = "tmp"
            for chunk in payload["chunks"]:
                if chunk.get("name") == "dbp_mmhg":
                    chunk["name"] = "sbp_mmhg"
            for chunk in payload["chunks"]:
                if chunk.get("name") == "tmp":
                    chunk["name"] = "dbp_mmhg"
            service.sync_signals(payload)
        service.train_bp(seed=0)
        response = service.query_bp("P0")
        assert response["swapped"] is True
        assert response["sbp_mmhg"] >= response["dbp_mmhg"]


class TestLocationThroughService:
    def test_ingest_and_locate(self, service):
        service.ingest_tag_event("user", 1)
        service.ingest_tag_event("location", 10)
        fix = service.locate("alice")
        assert isinstance(fix, LocationFix)
        assert fix.room == "kitchen"
        stored = list(service.store.records(service.store.index("tag_event", "")))
        assert len(stored) == 2

    @pytest.mark.parametrize(
        "kind, index, name",
        [("user", 1, "bob"), ("user", 2, "alice"), ("location", 10, "hall")],
        ids=["user-index", "identity", "location-index"],
    )
    def test_duplicate_registration_raises(self, service, kind, index, name):
        with pytest.raises(RegistrationError):
            service.register_tag(kind, index, name)

    def test_racing_registrations_of_one_index_store_one(self, service):
        n = len(os.sched_getaffinity(0)) + 4
        start = threading.Barrier(n)
        outcomes = []

        def register(i):
            start.wait(timeout=30)
            try:
                service.register_tag("location", 20, f"room {i}")
                outcomes.append("registered")
            except RegistrationError:
                outcomes.append("refused")

        threads = [threading.Thread(target=register, args=(i,), daemon=True) for i in range(n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(outcomes) == ["refused"] * (n - 1) + ["registered"]
        registrations = service.store.index("tag_registration", "")
        assert len(list(service.store.records(registrations))) == 1


def restart(service, **config_changes):
    """A service started on the store file of `service`, which is closed
    first, with the config changes applied."""
    service.store.close()
    config = replace(service.config, **config_changes)
    return VitalsService(config, JsonlStore(config.storage_path))


class TestTagStateFromStore:
    def test_events_replay_in_arrival_order(self, service):
        # Two requests can append their events in the other order.
        now = int(time.time() * 1000)
        for kind, index, t in (("location", 10, now), ("user", 1, now - 3000)):
            service.store.append("tag_event", "", {"kind": kind, "index": index, "t_server_ms": t})
        again = restart(service)
        try:
            assert again.locate("alice") == LocationFix(1, 10, now - 3000, now, "alice", "kitchen")
        finally:
            again.store.close()

    def test_next_event_is_stamped_no_earlier_than_the_newest_stored(self, service):
        ahead = int(time.time() * 1000) + 3_600_000  # stored under a clock set an hour ahead
        service.store.append("tag_event", "", {"kind": "user", "index": 1, "t_server_ms": ahead})
        again = restart(service)
        try:
            assert again.ingest_tag_event("location", 10)["t_server_ms"] == ahead
        finally:
            again.store.close()

    @pytest.mark.parametrize(
        "changes, users, room_11",
        [
            ({"user_tags": {1: "alice", 2: "carol"}}, {"carol": 2, "bob": None}, "hall"),
            ({"user_tags": {1: "alice", 3: "bob"}}, {"bob": 3}, "hall"),
            ({"location_tags": {10: "kitchen", 11: "attic"}}, {"bob": 2}, "attic"),
        ],
        ids=["user-index", "identity", "location-index"],
    )
    def test_config_wins_a_conflicting_stored_registration(
        self, service, caplog, changes, users, room_11
    ):
        service.register_tag("user", 2, "bob")
        service.register_tag("location", 11, "hall")
        with caplog.at_level(logging.WARNING, logger="homevitals"):
            again = restart(service, **changes)
        try:
            warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
            assert len(warnings) == 1 and "ignored" in warnings[0]
            table = again.tag_log.table
            for identity, index in users.items():
                if index is None:
                    with pytest.raises(NotFound):
                        table.user_index(identity)
                else:
                    assert table.user_index(identity) == index
            assert table.room_name(11) == room_11
        finally:
            again.store.close()

    def test_events_of_tags_no_longer_registered_are_skipped(self, service, caplog):
        user = service.ingest_tag_event("user", 1)
        service.ingest_tag_event("location", 10)
        with caplog.at_level(logging.WARNING, logger="homevitals"):
            again = restart(service, location_tags={12: "porch"})
        try:
            warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
            assert len(warnings) == 1 and "skipped 1 stored tag event" in warnings[0]
            assert again.tag_log.snapshot() == [TagEvent(TagKind.USER, 1, user["t_server_ms"])]
            assert isinstance(again.locate("alice"), NoFix)
        finally:
            again.store.close()

    def test_start_reads_only_tag_events_inside_the_search_window(self, service, monkeypatch):
        now = int(time.time() * 1000)
        window_ms = int(service.config.match_search_window_s * 1000)
        for t in [now - 3 * window_ms + i for i in range(5)] + [now - 1000 + i for i in range(3)]:
            service.store.append("tag_event", "", {"kind": "user", "index": 1, "t_server_ms": t})
        service.store.close()
        store = JsonlStore(service.config.storage_path)
        yielded = Counter()
        records = store.records

        def counting(*args, **kwargs):
            for record in records(*args, **kwargs):
                yielded[record["kind"]] += 1
                yield record

        monkeypatch.setattr(store, "records", counting)
        try:
            again = VitalsService(service.config, store)
            assert yielded["tag_event"] == 3
            assert len(again.tag_log) == 3
        finally:
            store.close()


class TestBoundaries:
    def test_service_does_not_import_the_simulator(self):
        src = str(Path(homevitals.__file__).resolve().parent.parent)
        code = (
            "import sys, homevitals.service; "
            "print(sorted(m for m in sys.modules if m.startswith('homevitals.simulate')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.strip() == "[]"
