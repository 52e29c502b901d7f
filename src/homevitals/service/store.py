"""Append-only JSONL record store with idempotent writes.

Each record is one line, `<header JSON>\t<payload JSON>\n`; json.dumps
never writes a raw tab, so the first tab splits every line. The header
holds the seq, schema version, kind, subject_id, created_at_ms and the
kind's index metadata as a list. A batch of records (one sync request's
chunks, beat events and cortisol) is written with one write, flushed and
fsynced once before the call returns, so an acknowledged batch survives an
ungraceful kill; a single append is a batch of one.

A signal chunk's samples are stored as base64 little-endian float64 under
"f64le" (`encode_samples`), which float64 survives exactly; chunks that an
older version stored as a JSON "values" list still load, and
`decode_samples` reads either form.

`KINDS` is the one table of record kinds. For each kind it names the
metadata its index entries carry and, [bracketed], the metadata fields on
which a second record of the same subject is a duplicate, not stored:
  signal_chunk      [channel, name, start_ms, n_samples], rate_hz
  ibi_chunk         [first_ms], last_ms, [n_events]
  cortisol          [timepoint]
  model             model_key, version
  tag_registration  none
  tag_event         t_server_ms (server arrival time)
A record that duplicates one earlier in its own batch is skipped as well.
Every kind has a reader: queries and training read chunks, beat events,
cortisol and models, and a starting service replays the tag registrations
and the tag events inside its search window.

Only an index lives in memory, kept per (kind, subject_id): each entry holds
the record's seq, byte offset and length plus its kind's metadata. Reads go
in two steps: `index(kind, subject_id)` lists a subject's entries of one
kind, the caller picks the ones it needs from their metadata, and
`records(entries)` reads exactly those, in the order given, through one
long-lived read handle with positional reads. A payload is first parsed
there, so a corrupt one raises FormatError when read. The index is the
store's only state, and the log its only file: opening scans every line's
header, in time proportional to the log's bytes, the same after `kill -9`
as after close(). A line without a tab is in the older layout, one JSON
document with the payload inside; its metadata is built from the payload.
A `.index` sidecar an older version left is neither read nor written. A
torn trailing line from a crash was never acknowledged: it is cut from the
log at open, so the next append starts a line of its own.
"""

from __future__ import annotations

import base64
import json
import mmap
import os
import threading
import time
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ..errors import FormatError, InputError

SCHEMA_VERSION = 1


def encode_samples(values) -> str:
    """Sample values as the store keeps them: base64 little-endian float64."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def decode_samples(payload: dict) -> np.ndarray:
    """A stored chunk's samples, from "f64le" or an older "values" list."""
    if "f64le" in payload:
        return np.frombuffer(base64.b64decode(payload["f64le"]), dtype="<f8")
    return np.asarray(payload["values"], dtype=np.float64)


def _n_samples(payload: dict) -> int:
    """How many samples a stored chunk holds, without decoding them: 4 base64
    characters carry 3 bytes, and the padding of 8n bytes is under 8 bytes."""
    if "f64le" in payload:
        return len(payload["f64le"]) * 3 // 4 // 8
    return len(payload.get("values", ()))


class ChunkMeta(NamedTuple):
    channel: str
    name: str | None
    start_ms: int
    n_samples: int
    rate_hz: float

    @classmethod
    def of(cls, payload: dict) -> ChunkMeta:
        return cls(
            payload.get("channel"),
            payload.get("name"),
            payload.get("start_ms"),
            _n_samples(payload),
            payload.get("rate_hz"),
        )


class IbiMeta(NamedTuple):
    first_ms: int | None
    last_ms: int | None
    n_events: int

    @classmethod
    def of(cls, payload: dict) -> IbiMeta:
        events = payload.get("events", ())
        if not events:
            return cls(None, None, 0)
        return cls(events[0][0], events[-1][0], len(events))


class CortisolMeta(NamedTuple):
    timepoint: str

    @classmethod
    def of(cls, payload: dict) -> CortisolMeta:
        return cls(payload.get("timepoint"))


class ModelMeta(NamedTuple):
    model_key: str
    version: str

    @classmethod
    def of(cls, payload: dict) -> ModelMeta:
        return cls(payload.get("model_key"), payload.get("version"))


class TagEventMeta(NamedTuple):
    t_server_ms: int

    @classmethod
    def of(cls, payload: dict) -> TagEventMeta:
        return cls(payload.get("t_server_ms"))


class Kind(NamedTuple):
    """What the index keeps of one record kind."""

    meta: type | None  # its entries' metadata type, built by `meta.of(payload)`
    duplicate_on: tuple[str, ...] = ()  # metadata fields that make a duplicate


KINDS = {
    "signal_chunk": Kind(ChunkMeta, ("channel", "name", "start_ms", "n_samples")),
    "ibi_chunk": Kind(IbiMeta, ("first_ms", "n_events")),
    "cortisol": Kind(CortisolMeta, ("timepoint",)),
    "model": Kind(ModelMeta),
    "tag_registration": Kind(None),
    "tag_event": Kind(TagEventMeta),
}

RECORD_KINDS = tuple(KINDS)

#: Kinds an older store may hold and no reader uses (prediction records):
#: indexed without metadata, never a duplicate.
_RETIRED = Kind(None)

#: One getter of the duplicate_on fields per kind that has duplicates.
_DUPLICATE_ON = {kind: attrgetter(*k.duplicate_on) for kind, k in KINDS.items() if k.duplicate_on}


def _meta_of(kind: str, payload: dict) -> tuple | None:
    meta_type = KINDS.get(kind, _RETIRED).meta
    return None if meta_type is None else meta_type.of(payload)


def _duplicate_key(kind: str, subject_id: str, meta: tuple | None) -> tuple | None:
    fields = _DUPLICATE_ON.get(kind)
    return None if fields is None else (kind, subject_id, fields(meta))


class IndexEntry(NamedTuple):
    """Where one record lives in the log, and its kind's metadata (or None);
    the index keeps it under its (kind, subject_id)."""

    seq: int
    offset: int
    length: int
    meta: tuple | None


def _dumps(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


class JsonlStore:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._by_key: dict[tuple[str, str], list[IndexEntry]] = {}
        self._dedup: set[tuple] = set()
        self._seq = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch(exist_ok=True)
        self._scan()
        self._fh = open(self.path, "ab")
        self._reader = open(self.path, "rb")

    # -- loading -----------------------------------------------------------

    def _scan(self) -> None:
        if self.path.stat().st_size == 0:
            return  # an empty file cannot be mapped
        with open(self.path, "r+b") as fh:
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as log:
                offset = 0
                while (stop := log.find(b"\n", offset) + 1) > 0:
                    self._index_line(log, offset, stop)
                    offset = stop
                size = len(log)
            if offset < size:
                fh.truncate(offset)  # torn trailing write, never acknowledged

    def _index_line(self, log: mmap.mmap, offset: int, stop: int) -> None:
        """Index the line log[offset:stop]; only its header is parsed."""
        tab = log.find(b"\t", offset, stop)
        line = log[offset : tab if tab >= 0 else stop]
        if tab < 0 and not line.strip():
            return
        try:
            record = json.loads(line.decode())
            kind, subject = record["kind"], record.get("subject_id", "")
            if tab >= 0:
                meta_type = KINDS.get(kind, _RETIRED).meta
                meta = None if meta_type is None else meta_type(*record["meta"])
            else:  # the older layout: one document, the payload inside
                meta = _meta_of(kind, record.get("payload", {}))
            entry = IndexEntry(record["seq"], offset, stop - offset, meta)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise FormatError(f"{self.path}: corrupt record at byte {offset}: {exc!r}") from exc
        self._index(kind, subject, entry, _duplicate_key(kind, subject, meta))

    def _index(self, kind: str, subject_id: str, entry: IndexEntry, key: tuple | None) -> None:
        """Add entry, of kind and subject_id, whose duplicate key is key, to the index."""
        self._by_key.setdefault((kind, subject_id), []).append(entry)
        if key is not None:
            self._dedup.add(key)
        self._seq = max(self._seq, entry.seq)

    # -- writing -----------------------------------------------------------

    def append(self, kind: str, subject_id: str, payload: dict) -> dict | None:
        """Persist one record; returns it, or None when it is a duplicate."""
        return self.append_many([(kind, subject_id, payload)])[0]

    def append_many(self, batch: Iterable[tuple[str, str, dict]]) -> list[dict | None]:
        """Persist (kind, subject_id, payload) records in order, with one write
        and one fsync; returns each stored record, or None for a duplicate of
        a stored record or of one earlier in the batch."""
        planned = []
        for kind, subject_id, payload in batch:
            if kind not in KINDS:
                raise InputError(f"unknown record kind {kind!r}")
            meta = _meta_of(kind, payload)
            key = _duplicate_key(kind, subject_id, meta)
            planned.append((kind, subject_id, payload, meta, key, _dumps(payload)))
        stored: list[dict | None] = []
        with self._lock:
            lines, entries, keys = [], [], set()
            offset, now_ms = self._fh.tell(), int(time.time() * 1000)
            for kind, subject_id, payload, meta, key, payload_line in planned:
                if key is not None and (key in self._dedup or key in keys):
                    stored.append(None)
                    continue
                keys.add(key)
                record = {
                    "seq": self._seq + len(lines) + 1,
                    "schema": SCHEMA_VERSION,
                    "kind": kind,
                    "subject_id": subject_id,
                    "created_at_ms": now_ms,
                }
                line = _dumps({**record, "meta": meta}) + b"\t" + payload_line + b"\n"
                lines.append(line)
                entry = IndexEntry(record["seq"], offset, len(line), meta)
                entries.append((kind, subject_id, entry, key))
                offset += len(line)
                stored.append({**record, "payload": payload})
            if lines:
                self._fh.write(b"".join(lines))
                self._fh.flush()
                os.fsync(self._fh.fileno())
                for kind, subject_id, entry, key in entries:
                    self._index(kind, subject_id, entry, key)
        return stored

    # -- reading -----------------------------------------------------------

    def _read_entry(self, entry: IndexEntry) -> dict:
        line = os.pread(self._reader.fileno(), entry.length, entry.offset)
        header, tab, payload = line.partition(b"\t")
        if not tab:
            return json.loads(line)  # the older one-document layout, parsed whole at open
        record = json.loads(header)
        del record["meta"]
        try:
            record["payload"] = json.loads(payload)  # first parsed here, not at open
        except ValueError as exc:
            raise FormatError(f"{self.path}: corrupt payload at byte {entry.offset}: {exc!r}") from exc
        return record

    def index(self, kind: str, subject_id: str) -> list[IndexEntry]:
        """The subject's index entries of kind, in append order; no record is read."""
        with self._lock:
            return list(self._by_key.get((kind, subject_id), ()))

    def records(self, entries: Iterable[IndexEntry]) -> Iterator[dict]:
        """The record of each given index entry, in the order given; only
        those records are read."""
        for entry in entries:
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
            return sum(map(len, self._by_key.values()))

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()
                self._reader.close()
