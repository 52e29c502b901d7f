"""Store durability, idempotency, snapshot restart, and config round-trips."""

import json
import time
from dataclasses import fields

import pytest

from homevitals.errors import ConfigError, InputError
from homevitals.location import LocationFix
from homevitals.service import (
    JsonlStore,
    ServiceConfig,
    VitalsService,
    format_config,
    parse_config,
)
from homevitals.service.config import _KEY_TO_FIELD, _SCALAR_KEYS
from homevitals.service.store import SNAPSHOT_EVERY, TagEventMeta
from homevitals.simulate import simulate_bp_records
from test_service_pipeline import bp_payload, stress_payload


@pytest.fixture(scope="module")
def trained_store(tmp_path_factory):
    """A closed store with synced subjects and both models trained: its
    config, log bytes, snapshot document, signal subjects, and the answers
    its service gave."""
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
    snapshot = json.loads(store.snapshot_path.read_text())
    return config, store.path.read_bytes(), snapshot, subjects, answers


def ask(service):
    return [service.query_stress("S0"), service.query_bp("P1"), service.query_bp("R0")]


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
        got = list(store.records(kind="signal_chunk"))
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
        reopened.close()

    def test_snapshot_written_and_used(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = JsonlStore(path)
        for i in range(SNAPSHOT_EVERY + 5):
            store.append("tag_event", "", {"kind": "user", "index": i, "t_server_ms": i})
        assert store.snapshot_path.exists()
        store.close()
        reopened = JsonlStore(path)
        assert len(reopened) == SNAPSHOT_EVERY + 5
        assert reopened.index("tag_event", "")[-1].meta == TagEventMeta(SNAPSHOT_EVERY + 4)
        assert reopened.append("tag_event", "", {"kind": "user", "index": -1, "t_server_ms": 0})[
            "seq"
        ] == SNAPSHOT_EVERY + 6
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

    def test_snapshot_in_the_older_layout_is_rescanned(self, tmp_path, trained_store):
        # Snapshots once held five fields per entry and no format number.
        config, log, doc, subjects, answers = trained_store
        config = config.with_storage(tmp_path / "log.jsonl")
        store = JsonlStore(config.storage_path)
        store.close()
        store.path.write_bytes(log)
        older = {
            "seq": doc["seq"],
            "offset": doc["offset"],
            "dedup": doc["dedup"],
            "entries": [entry[:5] for entry in doc["entries"]],
        }
        store.snapshot_path.write_text(json.dumps(older))

        reopened = JsonlStore(config.storage_path)
        assert len(reopened) == len(log.splitlines())
        assert reopened.subjects("signal_chunk") == subjects
        service = VitalsService(config, reopened)
        assert ask(service) == answers
        reopened.close()

    def test_format_2_store_with_prediction_records_is_rescanned(self, tmp_path, trained_store):
        # Format 2 is the layout in which every GET /stress and /bp stored a
        # prediction record and a tag event's index entry had no metadata.
        config, log, doc, subjects, answers = trained_store
        config = config.with_storage(tmp_path / "log.jsonl")
        now = int(time.time() * 1000)
        tail = [
            ("prediction", "S0", {"kind": "stress", **answers[0]}),
            ("tag_event", "", {"kind": "user", "index": 1, "t_server_ms": now - 2000}),
            ("prediction", "P1", {"kind": "bp", **answers[1]}),
            ("tag_event", "", {"kind": "location", "index": 10, "t_server_ms": now - 1000}),
        ]
        entries, offset = list(doc["entries"]), len(log)
        for seq, (kind, subject_id, payload) in enumerate(tail, start=doc["seq"] + 1):
            record = {
                "seq": seq,
                "schema": 1,
                "kind": kind,
                "subject_id": subject_id,
                "created_at_ms": now,
                "payload": payload,
            }
            line = (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode()
            entries.append([seq, kind, subject_id, offset, len(line), None])
            log, offset = log + line, offset + len(line)
        store = JsonlStore(config.storage_path)
        store.close()
        store.path.write_bytes(log)
        format_2 = {**doc, "format": 2, "seq": doc["seq"] + 4, "offset": offset, "entries": entries}
        store.snapshot_path.write_text(json.dumps(format_2))

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

    def test_records_are_schema_versioned(self, tmp_path):
        path = tmp_path / "log.jsonl"
        store = JsonlStore(path)
        store.append("tag_registration", "", {"kind": "user", "index": 2, "name": "bob"})
        store.close()
        line = json.loads(path.read_text().splitlines()[0])
        assert line["schema"] == 1


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
        parsed = parse_config(format_config(config))
        assert parsed == config

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
        "line",
        [
            "match.search_window_s = nan",
            "match.search_window_s = inf",
            "match.tolerance_s = nan",
            "window.length_s = nan",
            "window.overlap_s = inf",
            "label.threshold = nan",
        ],
    )
    def test_non_finite_match_setting_fails_at_service_start(self, tmp_path, line):
        config = parse_config(line + "\n").with_storage(tmp_path / "store.jsonl")
        store = JsonlStore(config.storage_path)
        try:
            with pytest.raises(InputError, match="finite"):
                VitalsService(config, store)
        finally:
            store.close()

    def test_sub_millisecond_window_step_fails_at_service_start(self, tmp_path):
        lines = "window.length_s = 90\nwindow.overlap_s = 89.9996\n"
        config = parse_config(lines).with_storage(tmp_path / "store.jsonl")
        store = JsonlStore(config.storage_path)
        try:
            with pytest.raises(InputError, match="at least 1 ms"):
                VitalsService(config, store)
        finally:
            store.close()

    @pytest.mark.parametrize("key", ["tags.user.abc", "tags.location.1.5", "tags.user."])
    def test_bad_tag_index_is_config_error(self, key):
        with pytest.raises(ConfigError, match=f"line 2: bad tag index in {key!r}"):
            parse_config(f"seed = 1\n{key} = kitchen\n")

    def test_derived_objects(self):
        config = ServiceConfig()
        assert config.window_spec.length_s == 90.0
        assert config.match_config.tolerance_s == 5.0
