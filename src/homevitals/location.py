"""Indoor location matching: registered user/location tags post events, the
server timestamps them on arrival, and a query pairs the freshest user and
location events whose timestamps agree within the tolerance (default 5 s,
inclusive). Ambiguity breaks by recency, then smaller gap, then smaller
location index; when nothing qualifies the answer is NoFix, never a guess.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

from .errors import FormatError, InputError, NotFound, RegistrationError, RejectedEvent

log = logging.getLogger(__name__)


class TagKind(Enum):
    USER = "user"
    LOCATION = "location"


@dataclass(frozen=True)
class TagEvent:
    kind: TagKind
    index: int
    t_server_ms: int


@dataclass(frozen=True)
class MatchConfig:
    tolerance_s: float = 5.0
    search_window_s: float = 60.0

    def __post_init__(self) -> None:
        for value in (self.tolerance_s, self.search_window_s):
            if not (math.isfinite(value) and value > 0):
                raise InputError("tolerance_s and search_window_s must be finite and positive")


@dataclass(frozen=True)
class LocationFix:
    i_tag: int
    i_loc: int
    t1_ms: int
    t2_ms: int
    user: str
    room: str


@dataclass(frozen=True)
class NoFix:
    identity: str
    reason: str = "no matching tag events in range"


class LookupTable:
    """Maps user-tag indices to identities and location-tag indices to rooms."""

    def __init__(self) -> None:
        self._users: dict[int, str] = {}
        self._rooms: dict[int, str] = {}
        self._user_index: dict[str, int] = {}

    def register_user(self, index: int, identity: str) -> None:
        if not identity:
            raise RegistrationError("identity must be non-empty")
        if index in self._users:
            raise RegistrationError(f"user tag index {index} already registered")
        if identity in self._user_index:
            raise RegistrationError(f"identity {identity!r} already registered")
        self._users[index] = identity
        self._user_index[identity] = index

    def register_location(self, index: int, room: str) -> None:
        if not room:
            raise RegistrationError("room name must be non-empty")
        if index in self._rooms:
            raise RegistrationError(f"location tag index {index} already registered")
        self._rooms[index] = room

    def is_registered(self, kind: TagKind, index: int) -> bool:
        table = self._users if kind is TagKind.USER else self._rooms
        return index in table

    def user_index(self, identity: str) -> int:
        if identity not in self._user_index:
            raise NotFound(f"no registered user {identity!r}")
        return self._user_index[identity]

    def room_name(self, index: int) -> str:
        if index not in self._rooms:
            raise NotFound(f"no location tag with index {index}")
        return self._rooms[index]


def register(
    users: Iterable[tuple[int, str]], locations: Iterable[tuple[int, str]]
) -> LookupTable:
    table = LookupTable()
    for index, identity in users:
        table.register_user(index, identity)
    for index, room in locations:
        table.register_location(index, room)
    return table


def _now_ms() -> int:
    return int(time.time() * 1000)


class EventLog:
    """Bounded, time-ordered tag-event log with a serialized append point.

    Events older than the retention window are evicted before each match so
    queries never answer from stale sightings. Reads copy a snapshot, so
    resolution never blocks ingestion or observes a partial append.
    """

    def __init__(
        self,
        table: LookupTable,
        match: MatchConfig | None = None,
        clock: Callable[[], int] | None = None,
    ) -> None:
        self.table = table
        self.match = match or MatchConfig()
        self._clock = clock or _now_ms
        self._events: deque[TagEvent] = deque()  # in time order: stamps are monotone
        self._lock = threading.Lock()
        self._last_t_ms = -(2**63)

    def ingest_event(
        self, kind: TagKind | str, index: int, t_server_ms: int | None = None
    ) -> TagEvent:
        """Log an event stamped with its arrival time, or with t_server_ms
        when a stored event is replayed."""
        kind = TagKind(kind)
        if not self.table.is_registered(kind, index):
            log.warning("rejected %s tag event with unregistered index %d", kind.value, index)
            raise RejectedEvent(f"unregistered {kind.value} tag index {index}")
        with self._lock:
            # Server-assigned arrival timestamps, clamped monotone per sequence.
            t = max(self._clock() if t_server_ms is None else t_server_ms, self._last_t_ms)
            self._last_t_ms = t
            event = TagEvent(kind=kind, index=index, t_server_ms=t)
            self._events.append(event)
            self._evict()
        return event

    def horizon_ms(self, newest_ms: int) -> int:
        """The oldest event time kept once the log holds an event at newest_ms."""
        return max(self._clock(), newest_ms) - int(self.match.search_window_s * 1000)

    def _evict(self) -> None:
        horizon = self.horizon_ms(self._last_t_ms)
        while self._events and self._events[0].t_server_ms < horizon:
            self._events.popleft()

    def snapshot(self) -> list[TagEvent]:
        with self._lock:
            self._evict()
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


def match_events(
    user_events: Sequence[TagEvent],
    location_events: Sequence[TagEvent],
    tolerance_s: float,
) -> tuple[TagEvent, TagEvent] | None:
    """Best (user, location) pair within tolerance: most recent first, then
    smallest |t1 - t2|, then smallest location index; of equal pairs, the
    earliest user event, then the earliest location event, in input order.

    A band join over the location events sorted by time: for one user event
    the key falls as the location time rises, so its best partner is the
    latest location event in its band, found by bisection.
    """
    tol_ms = 1000.0 * tolerance_s
    # Stable: within one time, by index, then by input order.
    locations = sorted(location_events, key=lambda le: (le.t_server_ms, le.index))
    times = [le.t_server_ms for le in locations]
    best_key = None
    best_pair = None
    for ue in user_events:
        t = ue.t_server_ms
        end = bisect_right(times, tol_ms, key=lambda t_loc: t_loc - t)
        if not end or abs(t - times[end - 1]) > tol_ms:
            continue
        le = locations[bisect_left(times, times[end - 1])]
        key = (-max(t, le.t_server_ms), abs(t - le.t_server_ms), le.index)
        if best_key is None or key < best_key:
            best_key = key
            best_pair = (ue, le)
    return best_pair


def resolve_location(
    identity: str,
    log_: EventLog,
    match: MatchConfig | None = None,
) -> LocationFix | NoFix:
    match = match or log_.match
    i_tag = log_.table.user_index(identity)  # raises NotFound if unknown
    events = log_.snapshot()
    user_events = [e for e in events if e.kind is TagKind.USER and e.index == i_tag]
    location_events = [e for e in events if e.kind is TagKind.LOCATION]
    pair = match_events(user_events, location_events, match.tolerance_s)
    if pair is None:
        return NoFix(identity=identity)
    ue, le = pair
    return LocationFix(
        i_tag=ue.index,
        i_loc=le.index,
        t1_ms=ue.t_server_ms,
        t2_ms=le.t_server_ms,
        user=identity,
        room=log_.table.room_name(le.index),
    )


def format_message(result: LocationFix | NoFix) -> str:
    """Canonical one-line JSON: sorted keys, no spaces; fixes carry i_tag,
    i_loc, both matched timestamps, and the resolved names."""
    if isinstance(result, LocationFix):
        doc = {
            "status": "ok",
            "i_tag": result.i_tag,
            "i_loc": result.i_loc,
            "t1_ms": result.t1_ms,
            "t2_ms": result.t2_ms,
            "user": result.user,
            "room": result.room,
        }
    else:
        doc = {"status": "not_found", "identity": result.identity, "reason": result.reason}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def parse_message(message: str) -> LocationFix | NoFix:
    try:
        doc = json.loads(message)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not a location message: {exc}") from exc
    status = doc.get("status")
    if status == "ok":
        return LocationFix(
            i_tag=int(doc["i_tag"]),
            i_loc=int(doc["i_loc"]),
            t1_ms=int(doc["t1_ms"]),
            t2_ms=int(doc["t2_ms"]),
            user=doc["user"],
            room=doc["room"],
        )
    if status == "not_found":
        return NoFix(identity=doc["identity"], reason=doc.get("reason", ""))
    raise FormatError(f"unknown location message status {status!r}")
