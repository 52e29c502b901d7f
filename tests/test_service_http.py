"""HTTP API: routes, status codes, canonical location wire format."""

import json
import socket
import urllib.error
import urllib.request

import pytest

from homevitals.features import MIN_SEGMENT_S
from homevitals.location import parse_message
from homevitals.service import ServiceConfig, VitalsHttpServer, series_to_payload
from homevitals.simulate import simulate_bp_records
from test_service_pipeline import bp_payload, stress_payload


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


def status_of(exc: urllib.error.HTTPError):
    body = json.loads(exc.read())
    return exc.code, body


class TestRoutes:
    def test_health(self, server):
        status, body = get(server, "/health")
        assert status == 200 and body["status"] == "ok"

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

    def test_malformed_tolerance_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get_raw(server, "/location/alice?tolerance_s=abc")
        code, body = status_of(err.value)
        assert code == 400 and "tolerance_s" in body["error"]

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            get(server, "/nope")
        assert status_of(err.value)[0] == 404

    @pytest.mark.parametrize("length", ["abc", "-5", "-1"])
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
