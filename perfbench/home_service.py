"""The live smart-home workload: `homevitals serve` in its own process,
driven over HTTP by a hub client and a dashboard client.

Set-up (timed as a whole, several times per run): start a server on a fresh
store, sync the first half of every session as 60-s chunks with its cortisol
samples plus the first minutes of each PPG record with SBP/DBP, train both
models, `kill -9` the server and restart it on the same store.

Timed phase, two closed-loop clients on one keep-alive connection each:
  hub        POST /signals/sync with the next 60-s chunk of a subject (the rest
             of each session, then the session replayed later in time), then
             POST /tags/event for that subject's user tag and a room tag.
  dashboard  GET /stress/<id>, GET /bp/<id>, GET /location/<id> for one
             subject after another; the three together are one refresh.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from .stats import median, named, percentile, timing

SUBJECTS = 3
BP_RECORDS = 2
#: Minutes of each 30-min PPG record synced in set-up (15 training segments).
BP_SETUP_MINUTES = 10
CHUNK_S = 60
#: Set-up uploads history as a backlog: this many 60-s chunks per channel in
#: one request. The timed hub sends one minute per request, as it is recorded.
BACKLOG_MINUTES = 5
SETUPS = 3
ROOMS = {10: "kitchen", 11: "living_room", 12: "bedroom"}
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 120.0

STRESS_FIELDS = ("subject_id", "label", "probability", "window_start_ms", "window_end_ms", "model_version")
BP_FIELDS = (
    "subject_id", "sbp_mmhg", "dbp_mmhg", "segment_start_ms", "segment_end_ms",
    "model_version_sbp", "model_version_dbp", "swapped",
)


# -- inputs ----------------------------------------------------------------------


class Inputs:
    """Sessions and PPG records made from the seed, cut into sync requests."""

    def __init__(self, seed: int):
        from homevitals.simulate import generate_cohort, simulate_bp_records, simulate_session

        profiles, script = generate_cohort(SUBJECTS, seed=seed)
        self.sessions = []
        for i, profile in enumerate(profiles):
            bundle, cortisol = simulate_session(profile, script, seed=seed * 1000 + i)
            self.sessions.append((profile.subject_id, bundle, cortisol))
        self.records = simulate_bp_records(BP_RECORDS, "short_term", seed=seed)
        self.session_minutes = int(self.sessions[0][1].duration_s // CHUNK_S)
        self.seed = seed

    @property
    def subject_ids(self) -> list[str]:
        return [sid for sid, _bundle, _cortisol in self.sessions]

    def config_text(self, store_path: Path) -> str:
        lines = ["listen_port = 0", f"storage_path = {store_path}", f"seed = {self.seed}"]
        lines += [f"tags.user.{i + 1} = {sid}" for i, sid in enumerate(self.subject_ids)]
        lines += [f"tags.location.{index} = {room}" for index, room in ROOMS.items()]
        return "\n".join(lines) + "\n"

    def session_chunk(self, s: int, minute: int, with_cortisol: bool = False) -> dict:
        """Minute `minute` of session s; minutes past the end replay the
        session shifted later in time, so the stream never runs out."""
        sid, bundle, cortisol = self.sessions[s]
        cycle, m = divmod(minute, self.session_minutes)
        shift_ms = cycle * self.session_minutes * CHUNK_S * 1000
        chunks = []
        for series in (bundle.eda, bundle.bvp, bundle.st):
            n = int(series.rate_hz * CHUNK_S)
            chunks.append({
                "channel": series.channel.value,
                "rate_hz": series.rate_hz,
                "start_ms": series.start_ms + m * CHUNK_S * 1000 + shift_ms,
                "values": series.values[m * n:(m + 1) * n].tolist(),
            })
        lo = bundle.session_start_ms + m * CHUNK_S * 1000
        ibi = [[int(t) + shift_ms, float(v)] for t, v in bundle.ibi if lo <= t < lo + CHUNK_S * 1000]
        body = {"subject_id": sid, "chunks": chunks, "ibi": ibi}
        if with_cortisol:
            body["cortisol"] = [
                {"timepoint": c.timepoint.value, "t_ms": c.t_ms, "concentration_ugdl": c.concentration_ugdl}
                for c in cortisol
            ]
        return body

    def record_chunk(self, r: int, minute: int) -> dict:
        record = self.records[r]
        unit = record.units[0]
        n = int(unit.ppg.rate_hz * CHUNK_S)
        start_ms = unit.ppg.start_ms + minute * CHUNK_S * 1000
        chunks = [{
            "channel": unit.ppg.channel.value,
            "rate_hz": unit.ppg.rate_hz,
            "start_ms": start_ms,
            "values": unit.ppg.values[minute * n:(minute + 1) * n].tolist(),
        }]
        for name, series in (("sbp_mmhg", unit.sbp), ("dbp_mmhg", unit.dbp)):
            k = int(series.rate_hz * CHUNK_S)
            chunks.append({
                "channel": series.channel.value,
                "name": name,
                "rate_hz": series.rate_hz,
                "start_ms": start_ms,
                "values": series.values[minute * k:(minute + 1) * k].tolist(),
            })
        return {"subject_id": record.record_id, "chunks": chunks}

    def setup_requests(self) -> list[dict]:
        """First half of every session and the start of every PPG record, in
        backlog requests of BACKLOG_MINUTES minutes."""
        bodies = []
        for s in range(len(self.sessions)):
            minutes = [self.session_chunk(s, m, with_cortisol=m == 0) for m in range(self.session_minutes // 2)]
            bodies += _backlog(minutes)
        for r in range(len(self.records)):
            bodies += _backlog([self.record_chunk(r, m) for m in range(BP_SETUP_MINUTES)])
        return bodies


def _backlog(minutes: list[dict]) -> list[dict]:
    """One subject's per-minute bodies merged BACKLOG_MINUTES at a time."""
    bodies = []
    for i in range(0, len(minutes), BACKLOG_MINUTES):
        group = minutes[i:i + BACKLOG_MINUTES]
        body = {"subject_id": group[0]["subject_id"], "chunks": [c for b in group for c in b["chunks"]]}
        ibi = [e for b in group for e in b.get("ibi", ())]
        if ibi:
            body["ibi"] = ibi
        if "cortisol" in group[0]:
            body["cortisol"] = group[0]["cortisol"]
        bodies.append(body)
    return bodies


def expected_stored(body: dict) -> int:
    return len(body["chunks"]) + (1 if body.get("ibi") else 0) + len(body.get("cortisol", ()))


# -- client ----------------------------------------------------------------------


class Client:
    """One keep-alive connection; records every request it makes."""

    def __init__(self, port: int, log: "RequestLog"):
        self.log = log
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)

    def call(self, route: str, method: str, path: str, body: dict | None = None, check=None):
        """(status, parsed body or None, latency ms); failures are logged."""
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data is not None else {}
        started = time.perf_counter()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self.log.record(route, 0, (time.perf_counter() - started) * 1000, f"{path}: {exc}", data)
            return 0, None, None
        latency_ms = (time.perf_counter() - started) * 1000
        problem = None
        parsed = None
        if not 200 <= status < 300:
            problem = f"{method} {path}: HTTP {status} {raw[:200]!r}"
        else:
            try:
                parsed = raw.decode() if route == "location" else json.loads(raw)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                problem = f"{method} {path}: unreadable body: {exc}"
            if problem is None and check is not None:
                try:
                    problem = check(parsed)
                except (KeyError, TypeError, ValueError) as exc:
                    problem = f"malformed reply: {exc!r}"
                if problem:
                    problem = f"{method} {path}: {problem}"
        self.log.record(route, status, latency_ms, problem, data)
        return status, parsed, latency_ms

    def close(self):
        self.conn.close()


class RequestLog:
    def __init__(self):
        self.lock = threading.Lock()
        self.latencies: dict[str, list[float]] = {}
        self.statuses: dict[int, int] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.sync_bytes = 0

    def record(self, route, status, latency_ms, problem, data):
        with self.lock:
            self.attempted += 1
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if problem:
                self.problems.append(problem)
            else:
                self.latencies.setdefault(route, []).append(latency_ms)
            if route == "sync" and data is not None:
                self.sync_bytes += len(data)

    def add_problem(self, problem: str):
        with self.lock:
            self.attempted += 1
            self.problems.append(problem)


def _has_fields(doc, fields):
    if not isinstance(doc, dict):
        return "body is not an object"
    missing = [f for f in fields if f not in doc]
    return f"missing fields {missing}" if missing else None


def check_sync(body):
    expected = expected_stored(body)

    def check(doc):
        problem = _has_fields(doc, ("subject_id", "stored", "duplicates"))
        if problem:
            return problem
        if doc["stored"] != expected or doc["duplicates"] != 0:
            return f"stored {doc['stored']} duplicates {doc['duplicates']}, expected {expected} new"
        return None

    return check


def check_stress(versions):
    def check(doc):
        problem = _has_fields(doc, STRESS_FIELDS)
        if problem:
            return problem
        if doc["model_version"] != versions["stress"]:
            return f"model_version {doc['model_version']} is not the trained {versions['stress']}"
        if doc["label"] not in ("stressed", "not_stressed") or not 0.0 <= doc["probability"] <= 1.0:
            return f"label {doc['label']!r} probability {doc['probability']!r}"
        if doc["window_end_ms"] <= doc["window_start_ms"]:
            return "empty window"
        return None

    return check


def check_bp(versions):
    def check(doc):
        problem = _has_fields(doc, BP_FIELDS)
        if problem:
            return problem
        if (doc["model_version_sbp"], doc["model_version_dbp"]) != (versions["bp_sbp"], versions["bp_dbp"]):
            return "model versions differ from the trained ones"
        if doc["sbp_mmhg"] < doc["dbp_mmhg"]:
            return f"sbp {doc['sbp_mmhg']} below dbp {doc['dbp_mmhg']}"
        return None

    return check


def check_location(identity):
    from homevitals.errors import FormatError
    from homevitals.location import LocationFix, parse_message

    def check(message):
        try:
            result = parse_message(message)
        except (FormatError, KeyError, TypeError, ValueError) as exc:
            return f"unparseable location message: {exc}"
        if isinstance(result, LocationFix) and (result.user != identity or result.room not in ROOMS.values()):
            return f"fix {result} does not name {identity} in a registered room"
        return None

    return check


def check_tag_event(doc):
    problem = _has_fields(doc, ("accepted", "t_server_ms"))
    if problem:
        return problem
    return None if doc["accepted"] is True else "event not accepted"


# -- server processes ---------------------------------------------------------------


class Server:
    """A `homevitals serve` process; traced runs start it through the launcher."""

    def __init__(self, root: Path, workdir: Path, config: Path, spans: Path | None):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
        if spans is None:
            argv = [sys.executable, "-m", "homevitals.cli", "serve", "--config", str(config)]
        else:
            env["PYTHONPATH"] += os.pathsep + str(root)
            argv = [sys.executable, str(root / "perfbench" / "serve_traced.py"),
                    "--spans", str(spans), "serve", "--config", str(config)]
        self.spans = spans
        self.stderr = open(workdir / "server.log", "ab")
        self.proc = subprocess.Popen(
            argv, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=self.stderr
        )
        try:
            self.port = self._read_port()
        except BaseException:
            self.proc.kill()
            self._reap()
            raise

    def _read_port(self) -> int:
        """Port from the serve command's first line, "listening on HOST:PORT"."""
        fd = self.proc.stdout.fileno()
        line = b""
        deadline = time.monotonic() + START_TIMEOUT_S
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError("server did not report its port in time")
            byte = os.read(fd, 1)
            if not byte:
                raise RuntimeError(f"server exited with {self.proc.wait()} before listening")
            line += byte
        return int(line.decode().strip().rsplit(":", 1)[1])

    def kill9(self) -> None:
        """Ungraceful stop; a traced server first writes out its spans."""
        if self.spans is not None:
            self.proc.send_signal(signal.SIGUSR1)
            deadline = time.monotonic() + START_TIMEOUT_S
            while not self.spans.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        self.proc.send_signal(signal.SIGKILL)
        self._reap()

    def stop(self) -> None:
        """Graceful stop (the serve command's Ctrl-C path)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


# -- the workload -------------------------------------------------------------------


class Pass:
    """One set-up-then-traffic pass, traced or not."""

    def __init__(self, root: Path, workdir: Path, inputs: Inputs, traced: bool):
        self.root, self.workdir, self.inputs, self.traced = root, workdir, inputs, traced
        self.setup_log = RequestLog()
        self.log = RequestLog()
        self.servers: list[Server] = []
        self.span_files: list[Path] = []
        self.setup_times: list[float] = []
        self.versions: list[dict] = []
        self.refresh_ms: list[float] = []

    def _store_dir(self, index: int) -> Path:
        return self.workdir / f"{'traced' if self.traced else 'plain'}-setup{index}"

    def _start(self, store_dir: Path) -> Server:
        spans = None
        if self.traced:
            spans = store_dir / f"spans-{len(self.span_files)}.json"
            self.span_files.append(spans)
        server = Server(self.root, store_dir, store_dir / "service.cfg", spans)
        self.servers.append(server)
        return server

    def setup(self, index: int, bodies: list[dict]) -> Server:
        store_dir = self._store_dir(index)
        store_dir.mkdir(parents=True)
        (store_dir / "service.cfg").write_text(self.inputs.config_text(store_dir / "store.jsonl"))
        started = time.perf_counter()
        server = self._start(store_dir)
        client = Client(server.port, self.setup_log)
        for body in bodies:
            client.call("sync", "POST", "/signals/sync", body, check_sync(body))
        _, stress, _ = client.call("train_stress", "POST", "/train/stress", {"seed": self.inputs.seed})
        _, bp, _ = client.call("train_bp", "POST", "/train/bp", {"seed": self.inputs.seed})
        client.close()
        server.kill9()
        server = self._start(store_dir)
        client = Client(server.port, self.setup_log)
        client.call("health", "GET", "/health")
        self.setup_times.append(time.perf_counter() - started)

        versions = {
            "stress": (stress or {}).get("version"),
            "bp_sbp": (bp or {}).get("bp_sbp"),
            "bp_dbp": (bp or {}).get("bp_dbp"),
        }
        self.versions.append(versions)
        # Every acknowledged chunk must have survived the kill: resending each
        # subject's last set-up request stores nothing.
        for body in {b["subject_id"]: b for b in bodies}.values():

            def resync(doc, body=body):
                if not isinstance(doc, dict) or doc.get("stored") != 0:
                    return f"resync after kill -9 stored {doc!r}"
                return None

            client.call("resync", "POST", "/signals/sync", body, resync)
        client.close()
        return server

    def traffic(self, server: Server, seconds: float) -> float:
        inputs = self.inputs
        versions = self.versions[-1]
        n = len(inputs.sessions)
        deadline = time.perf_counter() + seconds

        def hub():
            client = Client(server.port, self.log)
            step = 0
            while time.perf_counter() < deadline:
                s, k = step % n, step // n
                body = inputs.session_chunk(s, inputs.session_minutes // 2 + k)
                client.call("sync", "POST", "/signals/sync", body, check_sync(body))
                client.call("tag_event", "POST", "/tags/event", {"kind": "user", "index": s + 1}, check_tag_event)
                room = sorted(ROOMS)[step % len(ROOMS)]
                client.call("tag_event", "POST", "/tags/event", {"kind": "location", "index": room}, check_tag_event)
                step += 1
            client.close()

        def dashboard():
            client = Client(server.port, self.log)
            step = 0
            while time.perf_counter() < deadline:
                sid = inputs.subject_ids[step % n]
                latencies = [
                    client.call("stress", "GET", f"/stress/{sid}", check=check_stress(versions))[2],
                    client.call("bp", "GET", f"/bp/{sid}", check=check_bp(versions))[2],
                    client.call("location", "GET", f"/location/{sid}", check=check_location(sid))[2],
                ]
                if None not in latencies:
                    self.refresh_ms.append(sum(latencies))
                step += 1
            client.close()

        def guarded(client_loop):
            def run():
                try:
                    client_loop()
                except Exception as exc:  # a client bug must fail the run, not vanish
                    self.log.add_problem(f"{client_loop.__name__} client stopped: {exc!r}")

            return run

        started = time.perf_counter()
        threads = [threading.Thread(target=guarded(hub)), threading.Thread(target=guarded(dashboard))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        return sum(map(len, self.log.latencies.values())) / elapsed

    def run(self, setups: int, seconds: float) -> dict:
        bodies = self.inputs.setup_requests()
        try:
            server = None
            for index in range(setups):
                if server is not None:
                    server.stop()
                server = self.setup(index, bodies)
            requests_per_s = self.traffic(server, seconds)
            store_bytes = (self._store_dir(setups - 1) / "store.jsonl").stat().st_size
        finally:
            for server in self.servers:
                if server.proc.returncode is None:
                    server.stop()
        if any(v != self.versions[0] for v in self.versions) or None in self.versions[0].values():
            self.setup_log.add_problem(f"trained model versions missing or differing between set-ups: {self.versions}")
        return {"requests_per_s": requests_per_s, "store_bytes": store_bytes}


def run(root: Path, workdir: Path, seed: int, seconds: float) -> dict:
    inputs = Inputs(seed)
    plain = Pass(root, workdir, inputs, traced=False)
    outcome = plain.run(SETUPS, seconds)
    log = plain.log
    lat = log.latencies
    problems = plain.setup_log.problems + log.problems
    return {
        "attempted": plain.setup_log.attempted + log.attempted,
        "failed": len(problems),
        "problems": problems[:20],
        "metrics": {
            "setup_s": median(plain.setup_times),
            "throughput_per_s": outcome["requests_per_s"],
            "ingest_p50_ms": percentile(lat["sync"], 50) if lat.get("sync") else float("nan"),
            "answer_p50_ms": percentile(plain.refresh_ms, 50) if plain.refresh_ms else float("nan"),
        },
        "named": {
            "setup_s": named(median(plain.setup_times), "s", len(plain.setup_times)),
            "requests_per_s": named(outcome["requests_per_s"], "1/s"),
            "sync_p50_ms": timing(lat.get("sync", []), 50),
            "sync_p90_ms": timing(lat.get("sync", []), 90),
            "stress_query_p50_ms": timing(lat.get("stress", []), 50),
            "stress_query_p90_ms": timing(lat.get("stress", []), 90),
            "bp_query_p50_ms": timing(lat.get("bp", []), 50),
            "bp_query_p90_ms": timing(lat.get("bp", []), 90),
            "location_p50_ms": timing(lat.get("location", []), 50),
            "tag_event_p50_ms": timing(lat.get("tag_event", []), 50),
            "refresh_p50_ms": timing(plain.refresh_ms, 50),
        },
        "detail": {
            "setup_s_each": [round(t, 3) for t in plain.setup_times],
            "store_mb": round(outcome["store_bytes"] / 1e6, 3),
            "refresh_ms_first_last": [round(v) for v in plain.refresh_ms[:3] + plain.refresh_ms[-3:]],
            "model_versions": plain.versions[-1],
        },
    }


def run_traced(root: Path, workdir: Path, seed: int, seconds: float) -> dict:
    """An untraced pass, then a traced one; per-layer metrics from the second."""
    from .layers import ROUTE_SPANS, mean_span_ms, per_layer
    from .tracer import merge_summaries

    inputs = Inputs(seed)
    plain = Pass(root, workdir, inputs, traced=False)
    untraced = plain.run(1, seconds)
    traced_pass = Pass(root, workdir, inputs, traced=True)
    traced = traced_pass.run(1, seconds)
    summary = merge_summaries(json.loads(path.read_text()) for path in traced_pass.span_files)

    logs = (traced_pass.setup_log, traced_pass.log)
    external = {
        "store.file_mb": traced["store_bytes"] / 1e6,
        "store.bytes_per_synced_byte": traced["store_bytes"] / sum(log.sync_bytes for log in logs),
        "http.requests": sum(log.attempted for log in logs),
        "http.status_4xx": sum(n for log in logs for s, n in log.statuses.items() if 400 <= s < 500),
        "http.status_5xx": sum(n for log in logs for s, n in log.statuses.items() if s >= 500),
        "trace.overhead_pct": 100 * (untraced["requests_per_s"] / traced["requests_per_s"] - 1),
    }
    for route, span in ROUTE_SPANS.items():
        samples = [ms for log in logs for ms in log.latencies.get(route, [])]
        server_ms = mean_span_ms(summary, span)
        if samples and server_ms is not None:
            external[f"http.self_ms.{route}"] = sum(samples) / len(samples) - server_ms
    problems = [p for run in (plain, traced_pass) for log in (run.setup_log, run.log) for p in log.problems]
    return {
        "attempted": sum(log.attempted for run in (plain, traced_pass) for log in (run.setup_log, run.log)),
        "failed": len(problems),
        "problems": problems[:20],
        "metrics": per_layer(summary, external),
        "named": {},
        "detail": {
            "untraced_requests_per_s": round(untraced["requests_per_s"], 3),
            "traced_requests_per_s": round(traced["requests_per_s"], 3),
        },
    }
