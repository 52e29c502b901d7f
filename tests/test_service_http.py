"""HTTP API: routes, status codes, canonical location wire format."""

import json
import math
import socket
import string
import urllib.error
import urllib.request
from urllib.parse import quote, urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homevitals.features import MIN_SEGMENT_S
from homevitals.location import TagKind, parse_message
from homevitals.models.serialize import FORMAT_NAME, SCHEMA_VERSION
from homevitals.service import ServiceConfig, VitalsHttpServer, series_to_payload
from homevitals.service.http import MAX_BODY_BYTES
from homevitals.simulate import simulate_bp_records
from test_service_pipeline import bp_payload, stress_payload

NAN, INF = math.nan, math.inf


def ppg_chunk(**fields) -> dict:
    """Sync body fields of one PPG chunk, with the given fields replaced."""
    chunk = {"channel": "PPG", "rate_hz": 125.0, "start_ms": 0, "values": [1.0]}
    return {"chunks": [{**chunk, **fields}]}


def cortisol_entry(**fields) -> dict:
    """Sync body fields of one cortisol sample, with the given fields replaced."""
    return {"cortisol": [{"timepoint": "T1", "t_ms": 0, "concentration_ugdl": 0.5, **fields}]}


@pytest.fixture
def server(tmp_path):
    config = ServiceConfig(
        listen_port=0,  # ephemeral
        storage_path=str(tmp_path / "store.jsonl"),
        forest_n_trees=5,
        forest_max_depth=6,
        user_tags={1: "alice"},
        location_tags={10: "kitchen", 11: "bedroom"},
    )
    srv = VitalsHttpServer(config)
    srv.serve_in_thread()
    yield srv
    srv.shutdown()


def get(srv, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{srv.port}{path}") as response:
        return response.status, json.loads(response.read())


def get_raw(srv, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{srv.port}{path}") as response:
        return response.status, response.read().decode()


def post(srv, path, body):
    request = urllib.request.Request(
        f"http://127.0.0.1:{srv.port}{path}",
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def post_status(srv, path, body) -> int:
    try:
        return post(srv, path, body)[0]
    except urllib.error.HTTPError as exc:
        return exc.code


def status_of(exc: urllib.error.HTTPError):
    body = json.loads(exc.read())
    return exc.code, body


def raw_request(method, path, body=b"", headers=None):
    headers = headers or {"Content-Length": str(len(body))}
    lines = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def pipelined_statuses(srv, *requests):
    """Send the requests back to back on one keep-alive connection and read
    the replies' statuses in order. The list stops early where the server
    closes the connection, and ends with the text of a reply that is not an
    HTTP response."""
    statuses = []
    with socket.create_connection(("127.0.0.1", srv.port), timeout=10) as sock:
        sock.sendall(b"".join(requests))
        with sock.makefile("rb") as reader:
            for _ in requests:
                status_line = reader.readline()
                if not status_line.startswith(b"HTTP/"):
                    if status_line:
                        statuses.append(status_line.decode(errors="replace").strip())
                    break
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode().partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                reader.read(length)
                statuses.append(int(status_line.split()[1]))
    return statuses


class TestRoutes:
    def test_health(self, server):
        status, body = get(server, "/health")
        assert status == 200 and body["status"] == "ok"

    def test_queries_leave_the_store_unchanged_and_health_names_model_versions(self, server):
        for i in range(2):
            post(server, "/signals/sync", stress_payload(f"R{i}", stressed=False, seed=i))
            post(server, "/signals/sync", stress_payload(f"S{i}", stressed=True, seed=9 + i))
        unit = simulate_bp_records(1, "short_term", seed=0)[0].units[0]
        for i, offset in enumerate((0.0, 300.0)):
            post(server, "/signals/sync", bp_payload(f"P{i}", unit, offset))
        assert get(server, "/health")[1]["models"] == {}
        _, stress = post(server, "/train/stress", {"seed": 3})
        assert get(server, "/health")[1]["models"] == {"stress": stress["version"]}
        _, bp = post(server, "/train/bp", {"seed": 0})
        _, health = get(server, "/health")
        assert health["models"] == {
            "stress": stress["version"],
            "bp_sbp": bp["bp_sbp"],
            "bp_dbp": bp["bp_dbp"],
        }
        for path in ("/stress/S0", "/bp/P1", "/stress/R1", "/bp/P0"):
            assert get(server, path)[0] == 200
        assert get(server, "/health")[1] == health

    def test_sync_and_idempotency(self, server):
        payload = stress_payload("S00", stressed=False)
        status, ack = post(server, "/signals/sync", payload)
        assert status == 200 and ack["stored"] == 6
        _, again = post(server, "/signals/sync", payload)
        assert again["stored"] == 0 and again["duplicates"] == 6

    def test_sync_invalid_rate_is_400(self, server):
        bad = {
            "subject_id": "S00",
            "chunks": [{"channel": "EDA", "rate_hz": 64.0, "start_ms": 0, "values": [1.0]}],
        }
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/signals/sync", bad)
        code, body = status_of(err.value)
        assert code == 400
        assert "chunks[0]" in body["error"]

    def test_stress_not_ready_then_trained(self, server):
        for i in range(2):
            post(server, "/signals/sync", stress_payload(f"R{i}", stressed=False, seed=i))
            post(server, "/signals/sync", stress_payload(f"S{i}", stressed=True, seed=9 + i))
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/stress/S0")
        assert status_of(err.value)[0] == 409
        status, trained = post(server, "/train/stress", {"seed": 3})
        assert status == 200
        status, response = get(server, "/stress/S0")
        assert response["model_version"] == trained["version"]
        assert response["label"] in ("stressed", "not_stressed")
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/stress/ghost")
        assert status_of(err.value)[0] == 404

    def test_bp_needs_a_latest_pulse_run_of_min_segment_s(self, server):
        unit = simulate_bp_records(1, "short_term", seed=0)[0].units[0]
        for i, offset in enumerate((0.0, 300.0)):
            post(server, "/signals/sync", bp_payload(f"P{i}", unit, offset))
        post(server, "/train/bp", {"seed": 0})
        at_bound = int(MIN_SEGMENT_S * unit.ppg.rate_hz)
        for subject, n in (("B0", at_bound - 1), ("B1", at_bound)):
            chunk = series_to_payload(unit.ppg.slice_samples(0, n))
            post(server, "/signals/sync", {"subject_id": subject, "chunks": [chunk]})
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/bp/B0")
        assert status_of(err.value)[0] == 404
        status, response = get(server, "/bp/B1")
        assert status == 200
        assert response["segment_end_ms"] - response["segment_start_ms"] == 1000 * MIN_SEGMENT_S

    @pytest.mark.parametrize("rate_hz", [12.0, 16.0])
    def test_ppg_the_low_pass_cannot_filter_is_refused_at_sync(self, server, rate_hz):
        # The 8 Hz low-pass needs a rate above 16 Hz. Stored, such a chunk
        # would fail every later BP training, for all subjects.
        unit = simulate_bp_records(1, "short_term", seed=0)[0].units[0]
        for i, offset in enumerate((0.0, 300.0)):
            post(server, "/signals/sync", bp_payload(f"P{i}", unit, offset))
        before = get(server, "/health")[1]["records"]
        low = {
            "subject_id": "L0",
            "chunks": [
                {"channel": "DERIVED", "name": "sbp_mmhg", "rate_hz": 1.0, "start_ms": 0,
                 "values": [120.0] * 60},
                {"channel": "PPG", "rate_hz": rate_hz, "start_ms": 0,
                 "values": [float(i % 7) for i in range(int(60 * rate_hz))]},
            ],
        }
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/signals/sync", low)
        code, reply = status_of(err.value)
        assert code == 400 and "chunks[1]" in reply["error"] and f"{rate_hz} Hz" in reply["error"]
        assert get(server, "/health")[1]["records"] == before
        status, trained = post(server, "/train/bp", {"seed": 0})
        assert status == 200 and trained["rows"] > 0

    @pytest.mark.parametrize("rate_hz", [1e-307, 1e-20])
    def test_chunk_whose_samples_end_outside_int64_ms_is_400(self, server, rate_hz):
        # A one-sample chunk ends 1000 / rate_hz ms after its start: an
        # infinite time at 1e-307 Hz, past int64 at 1e-20 Hz.
        chunks = [
            {"channel": "DERIVED", "name": "sbp_mmhg", "rate_hz": rate_hz, "start_ms": start,
             "values": [120.0]}
            for start in (0, 1)
        ]
        statuses = [post_status(server, "/signals/sync", {"subject_id": "S00", "chunks": chunks})]
        statuses.append(post_status(server, "/train/bp", {"seed": 0}))
        assert statuses == [400, 409]
        assert get(server, "/health")[1]["records"] == 0

    def test_tag_events_and_location_message(self, server):
        post(server, "/tags/event", {"kind": "user", "index": 1})
        post(server, "/tags/event", {"kind": "location", "index": 10})
        status, raw = get_raw(server, "/location/alice")
        assert status == 200
        fix = parse_message(raw)
        assert fix.i_tag == 1 and fix.i_loc == 10 and fix.room == "kitchen"
        assert '"i_tag":1' in raw and '"i_loc":10' in raw

    def test_unregistered_tag_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/tags/event", {"kind": "user", "index": 99})
        assert status_of(err.value)[0] == 400

    def test_unknown_identity_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_raw(server, "/location/carol")
        assert status_of(err.value)[0] == 404

    def test_no_fix_message(self, server):
        status, raw = get_raw(server, "/location/alice")
        assert status == 200
        assert '"status":"not_found"' in raw

    def test_tolerance_query_parameter(self, server):
        post(server, "/tags/event", {"kind": "user", "index": 1})
        import time

        time.sleep(0.05)
        post(server, "/tags/event", {"kind": "location", "index": 11})
        _, raw = get_raw(server, "/location/alice?tolerance_s=0.001")
        assert '"status":"not_found"' in raw
        _, raw = get_raw(server, "/location/alice?tolerance_s=5")
        assert '"status":"ok"' in raw

    def test_register_endpoint(self, server):
        post(server, "/tags/register", {"kind": "user", "index": 2, "name": "bob"})
        post(server, "/tags/event", {"kind": "user", "index": 2})
        post(server, "/tags/event", {"kind": "location", "index": 10})
        _, raw = get_raw(server, "/location/bob")
        assert '"status":"ok"' in raw

    def test_unloadable_stored_model_is_409_and_read_once(self, server, monkeypatch):
        for i in range(2):
            post(server, "/signals/sync", stress_payload(f"R{i}", stressed=False, seed=i))
            post(server, "/signals/sync", stress_payload(f"S{i}", stressed=True, seed=9 + i))
        document = {
            "format": FORMAT_NAME,
            "schema_version": SCHEMA_VERSION,
            "kind": "random_forest",
            "feature_names": [],
            "model": {},
        }
        payload = {"model_key": "stress", "version": "bad", "document": document}
        server.store.append("model", "", payload)
        reads = []
        latest = server.store.latest

        def counted_latest(*args, **kwargs):
            reads.append(args)
            return latest(*args, **kwargs)

        monkeypatch.setattr(server.store, "latest", counted_latest)
        for _ in range(2):
            with pytest.raises(urllib.error.HTTPError) as err:
                get(server, "/stress/S0")
            code, body = status_of(err.value)
            assert code == 409 and "stress model bad" in body["error"]
        assert len(reads) == 1
        _, trained = post(server, "/train/stress", {"seed": 3})
        status, response = get(server, "/stress/S0")
        assert status == 200 and response["model_version"] == trained["version"]

    def test_concurrent_training_is_409(self, server):
        with server.service._train_lock:
            with pytest.raises(urllib.error.HTTPError) as err:
                post(server, "/train/stress", {"seed": 0})
        code, body = status_of(err.value)
        assert code == 409 and "in progress" in body["error"]

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/tags/event", {"kind": "user", "index": "one"}),
            ("/tags/event", {"kind": "badge", "index": 1}),
            ("/tags/register", {"kind": "user", "index": 2}),
            ("/tags/register", {"kind": "badge", "index": 2, "name": "bob"}),
            ("/tags/register", {"kind": "user", "index": [2], "name": "bob"}),
            ("/tags/register", {"kind": "user", "index": 2, "name": None}),
            ("/train/stress", [1, 2]),
            ("/train/stress", {"seed": "x"}),
            ("/train/bp", {"seed": -1}),
            ("/signals/sync", "S00"),
            (
                "/signals/sync",
                {
                    "subject_id": "S00",
                    "chunks": [{"channel": "EDA", "rate_hz": 4.0, "start_ms": 0, "values": []}],
                },
            ),
            ("/signals/sync", {"subject_id": "S00", "chunks": 5}),
            ("/signals/sync", {"subject_id": "S00", "cortisol": 3}),
            (
                "/signals/sync",
                {
                    "subject_id": "S00",
                    "chunks": [
                        {"channel": "EDA", "rate_hz": 4.0, "start_ms": 0, "values": [1.0], "name": [1]}
                    ],
                },
            ),
        ],
        ids=[
            "event-index-not-int",
            "event-bad-kind",
            "register-without-name",
            "register-bad-kind",
            "register-bad-index",
            "register-name-not-string",
            "body-is-a-list",
            "train-seed-not-int",
            "train-seed-negative",
            "body-is-a-string",
            "sync-chunk-empty",
            "sync-chunks-not-a-list",
            "sync-cortisol-not-a-list",
            "sync-chunk-name-not-string",
        ],
    )
    def test_malformed_body_is_400(self, server, path, body):
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, path, body)
        assert status_of(err.value)[0] == 400

    @pytest.mark.parametrize("index", [1.9, "7", True], ids=["float", "string", "bool"])
    @pytest.mark.parametrize(
        "path, body",
        [("/tags/event", {"kind": "user"}), ("/tags/register", {"kind": "user", "name": "carol"})],
        ids=["event", "register"],
    )
    def test_tag_index_that_is_not_an_integer_is_400_and_stores_nothing(
        self, server, path, body, index
    ):
        # int() would read 1.9 as 1, "7" as 7 and true as 1.
        before = get(server, "/health")[1]["records"]
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, path, {**body, "index": index})
        code, reply = status_of(err.value)
        assert code == 400 and "index: must be an integer" in reply["error"]
        assert get(server, "/health")[1]["records"] == before
        assert server.service.tag_log.snapshot() == []
        assert not server.service.tag_log.table.is_registered(TagKind.USER, 7)

    @pytest.mark.parametrize("raw", [b"\x80", b"[" * 100_000], ids=["not-utf8", "nested-too-deep"])
    def test_undecodable_body_is_400(self, server, raw):
        request = urllib.request.Request(f"http://127.0.0.1:{server.port}/signals/sync", data=raw)
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        code, body = status_of(err.value)
        assert code == 400 and "not valid JSON" in body["error"]

    @pytest.mark.parametrize(
        "body",
        [
            {"chunks": [{"channel": "PPG", "rate_hz": NAN, "start_ms": 0, "values": [1.0]}]},
            {"chunks": [{"channel": "PPG", "rate_hz": INF, "start_ms": 0, "values": [1.0]}]},
            {"chunks": [{"channel": "PPG", "rate_hz": 125.0, "start_ms": INF, "values": [1.0]}]},
            {"ibi": [[INF, 0.8]]},
            {"cortisol": [{"timepoint": "T1", "t_ms": 0, "concentration_ugdl": NAN}]},
            {"cortisol": [{"timepoint": "T1", "t_ms": 0, "concentration_ugdl": INF}]},
            {"cortisol": [{"timepoint": "T1", "t_ms": INF, "concentration_ugdl": 0.5}]},
        ],
        ids=[
            "rate-nan", "rate-inf", "start-inf", "ibi-time-inf",
            "cortisol-nan", "cortisol-inf", "cortisol-time-inf",
        ],
    )
    def test_non_finite_sync_is_400_and_stores_nothing(self, server, body):
        # json.dumps writes NaN and Infinity, and the server's json parser
        # accepts them.
        before = get(server, "/health")[1]["records"]
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/signals/sync", {"subject_id": "S00", **body})
        assert status_of(err.value)[0] == 400
        assert get(server, "/health")[1]["records"] == before

    @pytest.mark.parametrize(
        "body, field",
        [
            (ppg_chunk(start_ms=1.9), "start_ms"),
            (ppg_chunk(start_ms="7"), "start_ms"),
            (ppg_chunk(start_ms=True), "start_ms"),
            (ppg_chunk(start_ms=2**63), "start_ms"),
            (ppg_chunk(start_ms=2**80), "start_ms"),
            (ppg_chunk(start_ms=-(2**70)), "start_ms"),
            (ppg_chunk(start_ms=2**1000), "start_ms"),
            (ppg_chunk(rate_hz="4"), "rate_hz"),
            (ppg_chunk(rate_hz=True), "rate_hz"),
            ({"ibi": [[1.9, 0.8]]}, "ibi"),
            ({"ibi": [["7", 0.8]]}, "ibi"),
            ({"ibi": [[True, 0.8]]}, "ibi"),
            ({"ibi": [[1000, "0.8"]]}, "ibi"),
            ({"ibi": [[1000, True]]}, "ibi"),
            (cortisol_entry(t_ms=1.9), "t_ms"),
            (cortisol_entry(t_ms="7"), "t_ms"),
            (cortisol_entry(t_ms=True), "t_ms"),
            (cortisol_entry(t_ms=2**80), "t_ms"),
            ({"ibi": [[2**80, 0.8]]}, "ibi"),
            (cortisol_entry(concentration_ugdl="0.2"), "concentration_ugdl"),
            (cortisol_entry(concentration_ugdl=True), "concentration_ugdl"),
            (ppg_chunk(values=["1.5", 2.0]), "values"),
            (ppg_chunk(values=[1.5, True]), "values"),
            (ppg_chunk(values=[True, False]), "values"),
            (ppg_chunk(values=[1.5, None]), "values"),
            (ppg_chunk(values=[1.5, [2.0]]), "values"),
            (ppg_chunk(values="1.5"), "values"),
        ],
        ids=[
            "start-float", "start-string", "start-bool", "start-2**63", "start-2**80",
            "start--2**70", "start-2**1000", "rate-string", "rate-bool",
            "ibi-time-float", "ibi-time-string", "ibi-time-bool", "ibi-interval-string",
            "ibi-interval-bool", "cortisol-time-float", "cortisol-time-string",
            "cortisol-time-bool", "cortisol-time-2**80", "ibi-time-2**80",
            "cortisol-string", "cortisol-bool",
            "sample-string", "sample-bool", "samples-all-bool", "sample-null",
            "sample-array", "samples-string",
        ],
    )
    def test_sync_number_of_the_wrong_json_type_is_400_and_stores_nothing(
        self, server, body, field
    ):
        # int() and float() would read 1.9 as 1, "7" as 7 and true as 1.
        post(server, "/signals/sync", {"subject_id": "S00", **ppg_chunk(start_ms=1)})
        before = get(server, "/health")[1]["records"]
        with pytest.raises(urllib.error.HTTPError) as err:
            post(server, "/signals/sync", {"subject_id": "S00", **body})
        code, reply = status_of(err.value)
        assert code == 400 and field in reply["error"]
        assert get(server, "/health")[1]["records"] == before

    def test_malformed_tolerance_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_raw(server, "/location/alice?tolerance_s=abc")
        code, body = status_of(err.value)
        assert code == 400 and "tolerance_s" in body["error"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_400(self, server, value):
        # A NaN tolerance compared false against every gap and paired events
        # any distance apart.
        post(server, "/tags/event", {"kind": "user", "index": 1})
        post(server, "/tags/event", {"kind": "location", "index": 11})
        with pytest.raises(urllib.error.HTTPError) as err:
            get_raw(server, f"/location/alice?tolerance_s={value}")
        code, body = status_of(err.value)
        assert code == 400 and "tolerance_s" in body["error"]

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/nope")
        assert status_of(err.value)[0] == 404

    @pytest.mark.parametrize(
        "length", ["abc", "-5", "-1", str(MAX_BODY_BYTES + 1), "10000000000000", str(2**63 + 5)]
    )
    def test_bad_content_length_is_400(self, server, length):
        request = (
            "POST /signals/sync HTTP/1.1\r\n"
            "Host: 127.0.0.1\r\n"
            f"Content-Length: {length}\r\n"
            "\r\n"
            "{}"
        )
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(request.encode())
            reply = b""
            while chunk := sock.recv(4096):  # the server closes the connection
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert "Content-Length" in json.loads(body)["error"]

    def test_unknown_route_reads_its_body_before_the_next_request(self, server):
        requests = raw_request("POST", "/nope", b'{"seed": 1}'), raw_request("GET", "/health")
        assert pipelined_statuses(server, *requests) == [404, 200]

    def test_get_reads_its_body_before_the_next_request(self, server):
        requests = raw_request("GET", "/health", b'{"seed": 1}'), raw_request("GET", "/health")
        assert pipelined_statuses(server, *requests) == [200, 200]

    def test_body_without_a_length_closes_the_connection(self, server):
        chunked = raw_request(
            "POST", "/nope", b"b\r\n{\"seed\": 1}\r\n0\r\n\r\n", {"Transfer-Encoding": "chunked"}
        )
        assert pipelined_statuses(server, chunked, raw_request("GET", "/health")) == [404]


# -- fuzzing -------------------------------------------------------------------

_FIELDS = st.sampled_from(
    ["subject_id", "chunks", "ibi", "cortisol", "kind", "index", "name", "seed", "channel",
     "rate_hz", "start_ms", "values", "timepoint", "t_ms", "concentration_ugdl"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_FIELDS | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_BODIES = _JSON.map(lambda value: json.dumps(value).encode()) | st.binary(max_size=48)
_SEGMENT = st.text(max_size=6).map(lambda text: quote(text, safe=""))
_PATHS = st.one_of(
    st.sampled_from(
        ["/signals/sync", "/tags/event", "/tags/register", "/train/stress", "/train/bp", "/health"]
    ),
    st.tuples(st.sampled_from(["/stress/", "/bp/", "/location/"]), _SEGMENT).map("".join),
)
_QUERIES = st.lists(
    st.tuples(st.sampled_from(["tolerance_s", "seed"]) | st.text(max_size=4), st.text(max_size=6)),
    max_size=2,
).map(urlencode)
#: "valid" sends the body with its length, "absent" sends no length and no
#: body (a length of 0); any other value is an invalid length, sent with no body.
_LENGTHS = st.one_of(
    st.sampled_from(["valid", "absent"]),
    st.integers(max_value=-1).map(str),
    st.text(string.ascii_letters, min_size=1, max_size=5),
    st.integers(min_value=MAX_BODY_BYTES + 1).map(str),
)


def _reply_status(reader) -> int | None:
    """The status of the next reply, its body read; None when the connection
    ends instead."""
    status_line = reader.readline()
    if not status_line:
        return None
    length = 0
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    reader.read(length)
    return int(status_line.split()[1])


@pytest.fixture(scope="module")
def fuzzed_server(tmp_path_factory):
    config = ServiceConfig(
        listen_port=0,
        storage_path=str(tmp_path_factory.mktemp("fuzz") / "store.jsonl"),
        forest_n_trees=2,
        bp_boost_estimators=2,
        user_tags={1: "alice"},
        location_tags={10: "kitchen"},
    )
    srv = VitalsHttpServer(config)
    srv.serve_in_thread()
    yield srv
    srv.shutdown()


@settings(max_examples=200, deadline=None)
@given(
    method=st.sampled_from(["GET", "POST"]),
    path=_PATHS,
    query=_QUERIES,
    body=_BODIES,
    length=_LENGTHS,
)
def test_no_request_gets_a_5xx_and_the_connection_stays_in_step(
    fuzzed_server, method, path, query, body, length
):
    target = f"{path}?{query}" if query else path
    head = [f"{method} {target} HTTP/1.1", "Host: 127.0.0.1"]
    if length != "absent":
        head.append(f"Content-Length: {len(body) if length == 'valid' else length}")
    request = ("\r\n".join(head) + "\r\n\r\n").encode() + (body if length == "valid" else b"")
    with socket.create_connection(("127.0.0.1", fuzzed_server.port), timeout=10) as sock:
        with sock.makefile("rb") as reader:
            sock.sendall(request)
            status = _reply_status(reader)
            assert status is not None and status < 500, (status, request)
            try:
                sock.sendall(raw_request("GET", "/health"))
                health = _reply_status(reader)
            except ConnectionError:
                health = None
    if length in ("valid", "absent"):
        assert health == 200
    else:
        assert status == 400 and health is None  # the server closed the connection
