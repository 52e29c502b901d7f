"""HTTP+JSON API over the vitals service.

Routes:
  POST /signals/sync            body {subject_id, chunks, ibi?, cortisol?}
  GET  /stress/<subject>
  GET  /bp/<subject>
  POST /tags/event              body {kind, index}
  POST /tags/register           body {kind, index, name}
  GET  /location/<identity>     optional ?tolerance_s=
  POST /train/stress            body {seed?}
  POST /train/bp                body {seed?}
  GET  /health                  {status, records, models: {model_key: version}}

GETs only read: no query writes to the store. Everything a POST stores
survives a restart, `kill -9` included: signal chunks, beat events and
cortisol, trained models, tag registrations, and the tag events still
inside the match search window, which rebuild the location state. A sync
stores its records with one write and one fsync before it is
acknowledged; a crash before that can leave some of its records stored,
and the client's re-send stores only the rest, by the duplicate rule. A
restarting server reopens the store by scanning its log's line headers,
the same work after `kill -9` as after a clean stop. /health
reports the store's record count and the newest version of each trained
model, both from the store's index.

Validation failures, a Content-Length outside [0, 64 MiB] and a body that is
not JSON among them, map to 400, unknown identities/subjects without data to
404, missing model artifacts, a stored model that cannot be loaded, and
concurrent training to 409. The location response body is exactly the
canonical location message. Every request's body is read whole before it is
routed, whatever the route, so a keep-alive connection stays in step.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..errors import (
    DegenerateTraining,
    HomevitalsError,
    InputError,
    NotFound,
    NotReady,
    NoWindow,
    RegistrationError,
    RejectedEvent,
    TrainingBusy,
)
from ..location import TagKind, format_message
from .config import ServiceConfig
from .pipeline import VitalsService, json_field, json_int
from .store import JsonlStore

log = logging.getLogger(__name__)

#: Largest request body read; a larger Content-Length is rejected unread.
MAX_BODY_BYTES = 64 * 2**20

_STRESS = re.compile(r"^/stress/([^/]+)$")
_BP = re.compile(r"^/bp/([^/]+)$")
_LOCATION = re.compile(r"^/location/([^/]+)$")


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"must be a string, got {type(value).__name__}")
    return value


def _json_object(raw: bytes) -> dict:
    if not raw:
        return {}
    try:
        body = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8/16/32, or nested too deep
        raise InputError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise InputError("request body must be a JSON object")
    return body


def _seed(body: dict) -> int | None:
    """The optional training seed: absent or null, or a non-negative integer."""
    seed = body.get("seed")
    if seed is not None and (type(seed) is not int or seed < 0):
        raise InputError(f"seed: must be a non-negative integer, got {seed!r}")
    return seed


class _Handler(BaseHTTPRequestHandler):
    service: VitalsService  # set on the server class

    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; without TCP_NODELAY the
    # body waits for the client's delayed ACK of the headers (~40 ms).
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # route through logging, not stderr
        log.debug("%s - %s", self.address_string(), fmt % args)

    # -- plumbing -----------------------------------------------------------

    def _read_body(self) -> bytes:
        """The whole request body, so that the next request on the connection
        starts where this one ends."""
        # A body whose length is absent or invalid is left unread; where it
        # ends is unknown, so the connection cannot be reused.
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
            raise InputError(f"Content-Length must be an integer in [0, {MAX_BODY_BYTES}]")
        return self.rfile.read(length) if length else b""

    def _send(self, status: int, body: dict | str) -> None:
        data = body.encode() if isinstance(body, str) else json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _dispatch(self, method: str) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        try:
            status, body = self._route(method, service, self._read_body())
        except (RejectedEvent, RegistrationError, InputError) as exc:
            status, body = 400, {"error": str(exc)}
        except (NotFound, NoWindow) as exc:
            status, body = 404, {"error": str(exc)}
        except (NotReady, DegenerateTraining, TrainingBusy) as exc:
            status, body = 409, {"error": str(exc)}
        except HomevitalsError as exc:
            status, body = 400, {"error": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            log.exception("unhandled error")
            status, body = 500, {"error": f"internal error: {exc}"}
        self._send(status, body)

    def _route(self, method: str, service: VitalsService, raw: bytes) -> tuple[int, dict | str]:
        parts = urlsplit(self.path)
        path = parts.path
        query = parse_qs(parts.query)
        if method == "GET" and path == "/health":
            return 200, {
                "status": "ok",
                "records": len(service.store),
                "models": service.model_versions(),
            }
        if method == "POST" and path == "/signals/sync":
            return 200, service.sync_signals(_json_object(raw))
        if method == "POST" and path == "/tags/event":
            body = _json_object(raw)
            kind, index = json_field(body, "kind", TagKind), json_field(body, "index", json_int)
            return 200, service.ingest_tag_event(kind, index)
        if method == "POST" and path == "/tags/register":
            body = _json_object(raw)
            kind, index = json_field(body, "kind", TagKind), json_field(body, "index", json_int)
            return 200, service.register_tag(kind, index, json_field(body, "name", _text))
        if method == "POST" and path == "/train/stress":
            return 200, service.train_stress(_seed(_json_object(raw)))
        if method == "POST" and path == "/train/bp":
            return 200, service.train_bp(_seed(_json_object(raw)))
        if method == "GET":
            match = _STRESS.match(path)
            if match:
                return 200, service.query_stress(match.group(1))
            match = _BP.match(path)
            if match:
                return 200, service.query_bp(match.group(1))
            match = _LOCATION.match(path)
            if match:
                tolerance = None
                if "tolerance_s" in query:
                    tolerance = json_field(query, "tolerance_s", lambda v: float(v[0]))
                result = service.locate(match.group(1), tolerance)
                return 200, format_message(result)
        raise NotFound(f"no route for {method} {path}")

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")


class VitalsHttpServer:
    """Threaded HTTP server wrapper owning the store and service."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.store = JsonlStore(config.storage_path)
        try:
            self.service = VitalsService(config, self.store)
            self.httpd = ThreadingHTTPServer((config.listen_host, config.listen_port), _Handler)
        except BaseException:
            self.store.close()  # a server that fails to start leaves no open files
            raise
        self.httpd.service = self.service  # type: ignore[attr-defined]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def serve_forever(self) -> None:
        log.info("serving on %s:%d", self.config.listen_host, self.port)
        self.httpd.serve_forever()

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop a serve_forever loop running in another thread, then close."""
        self.httpd.shutdown()
        self.close()

    def close(self) -> None:
        """Close the socket and the store; no serve_forever loop may be running."""
        self.httpd.server_close()
        self.store.close()
