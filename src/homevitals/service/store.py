"""Append-only JSONL record store with idempotent signal-chunk writes.

One JSON document per line; every record carries a schema version and a
sequence number. Appends are serialized, flushed, and fsynced before the
call returns, so an acknowledged write survives an ungraceful kill.

Only an index lives in memory: byte offsets per record plus the dedup keys.
The index is snapshotted to a sidecar file periodically and on close; on
open a fresh snapshot lets the store replay just the log tail. A torn
trailing line from a crash was never acknowledged and is ignored.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..errors import FormatError, InputError

SCHEMA_VERSION = 1

RECORD_KINDS = (
    "signal_chunk",
    "ibi_chunk",
    "cortisol",
    "model",
    "prediction",
    "tag_event",
)

SNAPSHOT_EVERY = 256


def _dedup_key(kind: str, subject_id: str, payload: dict) -> tuple | None:
    if kind == "signal_chunk":
        return (
            kind,
            subject_id,
            payload.get("channel"),
            payload.get("name"),
            payload.get("start_ms"),
            len(payload.get("values", ())),
        )
    if kind == "ibi_chunk":
        events = payload.get("events", ())
        first = events[0][0] if events else None
        return (kind, subject_id, first, len(events))
    if kind == "cortisol":
        return (kind, subject_id, payload.get("timepoint"))
    return None


@dataclass(frozen=True)
class _Entry:
    seq: int
    kind: str
    subject_id: str
    offset: int
    length: int


class JsonlStore:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: list[_Entry] = []
        self._dedup: set[tuple] = set()
        self._seq = 0
        self._appends_since_snapshot = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch(exist_ok=True)
        self._scan()
        self._fh = open(self.path, "ab")

    @property
    def snapshot_path(self) -> Path:
        return self.path.with_name(self.path.name + ".index")

    # -- loading -----------------------------------------------------------

    def _scan(self) -> None:
        start_offset = self._load_snapshot()
        file_size = self.path.stat().st_size
        if start_offset > file_size:
            # Snapshot is ahead of the log (log was truncated/replaced):
            # distrust it entirely.
            self._entries, self._dedup, self._seq = [], set(), 0
            start_offset = 0
        with open(self.path, "rb") as fh:
            fh.seek(start_offset)
            offset = start_offset
            for line in fh:
                end = offset + len(line)
                if not line.endswith(b"\n"):
                    break  # torn trailing write, never acknowledged
                if line.strip():
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise FormatError(
                            f"{self.path}: corrupt record at byte {offset}: {exc}"
                        ) from exc
                    self._register(record, offset, len(line))
                offset = end

    def _load_snapshot(self) -> int:
        snap = self.snapshot_path
        if not snap.exists():
            return 0
        try:
            doc = json.loads(snap.read_text())
            entries = [_Entry(*e) for e in doc["entries"]]
            dedup = {tuple(k) for k in doc["dedup"]}
            offset = int(doc["offset"])
            seq = int(doc["seq"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            return 0
        self._entries = entries
        self._dedup = dedup
        self._seq = seq
        return offset

    def _register(self, record: dict, offset: int, length: int) -> None:
        self._entries.append(
            _Entry(
                seq=record["seq"],
                kind=record["kind"],
                subject_id=record.get("subject_id", ""),
                offset=offset,
                length=length,
            )
        )
        self._seq = max(self._seq, record["seq"])
        key = _dedup_key(record["kind"], record.get("subject_id", ""), record.get("payload", {}))
        if key is not None:
            self._dedup.add(key)

    # -- writing -----------------------------------------------------------

    def append(self, kind: str, subject_id: str, payload: dict) -> dict | None:
        """Persist one record; returns it, or None when it is a duplicate."""
        if kind not in RECORD_KINDS:
            raise InputError(f"unknown record kind {kind!r}")
        with self._lock:
            key = _dedup_key(kind, subject_id, payload)
            if key is not None and key in self._dedup:
                return None
            self._seq += 1
            record = {
                "seq": self._seq,
                "schema": SCHEMA_VERSION,
                "kind": kind,
                "subject_id": subject_id,
                "created_at_ms": int(time.time() * 1000),
                "payload": payload,
            }
            line = (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode()
            offset = self._fh.tell()
            self._fh.write(line)
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._register(record, offset, len(line))
            self._appends_since_snapshot += 1
            if self._appends_since_snapshot >= SNAPSHOT_EVERY:
                self._write_snapshot_locked()
            return record

    # -- reading -----------------------------------------------------------

    def _read_entry(self, entry: _Entry) -> dict:
        with open(self.path, "rb") as fh:
            fh.seek(entry.offset)
            return json.loads(fh.read(entry.length))

    def records(self, kind: str | None = None, subject_id: str | None = None) -> Iterator[dict]:
        with self._lock:
            entries = list(self._entries)
        for entry in entries:
            if kind is not None and entry.kind != kind:
                continue
            if subject_id is not None and entry.subject_id != subject_id:
                continue
            yield self._read_entry(entry)

    def subjects(self, kind: str) -> list[str]:
        """Subjects with at least one record of kind, in first-append order.

        Answered from the in-memory index; no record is read.
        """
        with self._lock:
            entries = list(self._entries)
        return list(dict.fromkeys(e.subject_id for e in entries if e.kind == kind))

    def latest(self, kind: str, **payload_match) -> dict | None:
        found = None
        for record in self.records(kind=kind):
            payload = record.get("payload", {})
            if all(payload.get(k) == v for k, v in payload_match.items()):
                found = record
        return found

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- lifecycle ----------------------------------------------------------

    def _write_snapshot_locked(self) -> None:
        doc = {
            "seq": self._seq,
            "offset": self._fh.tell(),
            "dedup": [list(k) for k in self._dedup],
            "entries": [
                [e.seq, e.kind, e.subject_id, e.offset, e.length] for e in self._entries
            ],
        }
        tmp = self.snapshot_path.with_name(self.snapshot_path.name + ".tmp")
        tmp.write_text(json.dumps(doc))
        tmp.replace(self.snapshot_path)
        self._appends_since_snapshot = 0

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._write_snapshot_locked()
                self._fh.close()
