"""Append-only JSONL record store with idempotent signal-chunk writes.

One JSON document per line; every record carries a schema version and a
sequence number. Appends are serialized, flushed, and fsynced before the
call returns, so an acknowledged write survives an ungraceful kill.

The record kinds, each with the metadata its index entries carry:
  signal_chunk      channel, name, start, sample count and rate
  ibi_chunk         first and last beat-event time
  cortisol          none
  model             model key and version
  tag_registration  none
  tag_event         server arrival time (t_server_ms)
Every kind has a reader: queries and training read chunks, beat events,
cortisol and models, and a starting service replays the tag registrations
and the tag events inside its search window.

Only an index lives in memory, kept per (kind, subject_id): each entry holds
the record's byte offset and length plus its kind's metadata, taken from the
payload at append or scan time. Queries pick the records they need from that
metadata and read only those, through one long-lived read handle with
positional reads. The index, metadata and dedup keys included,
is snapshotted to a sidecar file periodically and on close; on open a fresh
snapshot lets the store replay just the log tail, and a snapshot in any
other format is ignored in favour of a full rescan. A torn trailing line
from a crash was never acknowledged and is ignored.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from ..errors import FormatError, InputError

SCHEMA_VERSION = 1

#: Layout of the sidecar index; a snapshot without this value is rescanned.
INDEX_FORMAT = 3

RECORD_KINDS = (
    "signal_chunk",
    "ibi_chunk",
    "cortisol",
    "model",
    "tag_registration",
    "tag_event",
)

SNAPSHOT_EVERY = 256


class ChunkMeta(NamedTuple):
    channel: str
    name: str | None
    start_ms: int
    n_samples: int
    rate_hz: float


class IbiMeta(NamedTuple):
    first_ms: int | None
    last_ms: int | None


class ModelMeta(NamedTuple):
    model_key: str
    version: str


class TagEventMeta(NamedTuple):
    t_server_ms: int


_META_TYPES = {
    "signal_chunk": ChunkMeta,
    "ibi_chunk": IbiMeta,
    "model": ModelMeta,
    "tag_event": TagEventMeta,
}


def _metadata(kind: str, payload: dict) -> tuple | None:
    if kind == "signal_chunk":
        return ChunkMeta(
            payload.get("channel"),
            payload.get("name"),
            payload.get("start_ms"),
            len(payload.get("values", ())),
            payload.get("rate_hz"),
        )
    if kind == "ibi_chunk":
        events = payload.get("events", ())
        return IbiMeta(events[0][0], events[-1][0]) if events else IbiMeta(None, None)
    if kind == "model":
        return ModelMeta(payload.get("model_key"), payload.get("version"))
    if kind == "tag_event":
        return TagEventMeta(payload.get("t_server_ms"))
    return None


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
class IndexEntry:
    """Where one record lives in the log, and its kind's metadata (or None)."""

    seq: int
    kind: str
    subject_id: str
    offset: int
    length: int
    meta: tuple | None


class JsonlStore:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: list[IndexEntry] = []
        self._by_key: dict[tuple[str, str], list[IndexEntry]] = {}
        self._dedup: set[tuple] = set()
        self._seq = 0
        self._appends_since_snapshot = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch(exist_ok=True)
        self._scan()
        self._fh = open(self.path, "ab")
        self._reader = open(self.path, "rb")

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
            self._entries, self._by_key, self._dedup, self._seq = [], {}, set(), 0
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
            if doc["format"] != INDEX_FORMAT:
                return 0
            entries = []
            for seq, kind, subject_id, offset, length, meta in doc["entries"]:
                meta_type = _META_TYPES.get(kind)
                meta = meta_type(*meta) if meta_type is not None else None
                entries.append(IndexEntry(seq, kind, subject_id, offset, length, meta))
            dedup = {tuple(k) for k in doc["dedup"]}
            offset = int(doc["offset"])
            seq = int(doc["seq"])
        except (json.JSONDecodeError, KeyError, IndexError, TypeError, ValueError):
            return 0
        self._entries, self._by_key = [], {}
        for entry in entries:
            self._index(entry)
        self._dedup = dedup
        self._seq = seq
        return offset

    def _index(self, entry: IndexEntry) -> None:
        self._entries.append(entry)
        self._by_key.setdefault((entry.kind, entry.subject_id), []).append(entry)

    def _register(self, record: dict, offset: int, length: int) -> None:
        kind, subject_id = record["kind"], record.get("subject_id", "")
        payload = record.get("payload", {})
        self._index(
            IndexEntry(
                seq=record["seq"],
                kind=kind,
                subject_id=subject_id,
                offset=offset,
                length=length,
                meta=_metadata(kind, payload),
            )
        )
        self._seq = max(self._seq, record["seq"])
        key = _dedup_key(kind, subject_id, payload)
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

    def _read_entry(self, entry: IndexEntry) -> dict:
        return json.loads(os.pread(self._reader.fileno(), entry.length, entry.offset))

    def index(self, kind: str, subject_id: str) -> list[IndexEntry]:
        """The subject's index entries of kind, in append order; no record is read."""
        with self._lock:
            return list(self._by_key.get((kind, subject_id), ()))

    def records(
        self,
        kind: str | None = None,
        subject_id: str | None = None,
        where: Callable[[IndexEntry], bool] | None = None,
    ) -> Iterator[dict]:
        """Records in append order; with `where`, only those whose index entry
        it accepts are read."""
        if kind is not None and subject_id is not None:
            entries = self.index(kind, subject_id)
        else:
            with self._lock:
                entries = [
                    e
                    for e in self._entries
                    if (kind is None or e.kind == kind)
                    and (subject_id is None or e.subject_id == subject_id)
                ]
        for entry in entries:
            if where is None or where(entry):
                yield self._read_entry(entry)

    def subjects(self, kind: str) -> list[str]:
        """Subjects with at least one record of kind, in first-append order.

        Answered from the in-memory index; no record is read.
        """
        with self._lock:
            return [subject for k, subject in self._by_key if k == kind]

    def latest(self, kind: str, **meta_match) -> dict | None:
        """The newest record of kind whose index metadata has the given field
        values, e.g. latest("model", model_key="stress"); one record is read."""

        def matches(entry: IndexEntry) -> bool:
            meta = entry.meta
            return meta is not None and all(
                f in meta._fields and getattr(meta, f) == v for f, v in meta_match.items()
            )

        found = None
        with self._lock:
            for (k, _subject), entries in self._by_key.items():
                if k != kind:
                    continue
                newest = next((e for e in reversed(entries) if matches(e)), None)
                if newest is not None and (found is None or newest.seq > found.seq):
                    found = newest
        return None if found is None else self._read_entry(found)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- lifecycle ----------------------------------------------------------

    def _write_snapshot_locked(self) -> None:
        doc = {
            "format": INDEX_FORMAT,
            "seq": self._seq,
            "offset": self._fh.tell(),
            "dedup": [list(k) for k in self._dedup],
            "entries": [
                [e.seq, e.kind, e.subject_id, e.offset, e.length, e.meta] for e in self._entries
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
                self._reader.close()
