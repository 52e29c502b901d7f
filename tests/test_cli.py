"""CLI behavior: simulate outputs in documented formats, evaluate report
shapes, serve/locate round-trip, exit codes."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from homevitals import cli
from homevitals.labeling import load_cortisol_csv
from homevitals.service import JsonlStore, ServiceConfig, VitalsService, series_to_payload
from homevitals.signals import Channel, load_ibi_csv, load_series_csv, save_series_csv
from homevitals.simulate import cohort_sessions
from helpers import every_entry

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, timeout=240):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "homevitals.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


class TestSimulateCommands:
    def test_simulate_stress_writes_csv_set(self, tmp_path):
        out = tmp_path / "cohort"
        result = run_cli("simulate", "stress", "--subjects", "2", "--seed", "1", "--out", str(out))
        assert result.returncode == 0, result.stderr
        for sid in ("S00", "S01"):
            for stem in ("eda", "bvp", "st", "ibi", "cortisol"):
                assert (out / f"{sid}_{stem}.csv").exists()
        header = (out / "S00_eda.csv").read_text().splitlines()[0]
        assert header == "t_ms,value"
        assert (out / "S00_ibi.csv").read_text().splitlines()[0] == "t_ms,ibi_s"
        assert (out / "S00_cortisol.csv").read_text().splitlines()[0] == (
            "subject_id,timepoint,t_ms,concentration_ugdl"
        )

    def test_simulate_stress_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "stress", "--subjects", "1", "--seed", "3", "--out", str(a))
        run_cli("simulate", "stress", "--subjects", "1", "--seed", "3", "--out", str(b))
        assert (a / "S00_eda.csv").read_bytes() == (b / "S00_eda.csv").read_bytes()
        assert (a / "S00_cortisol.csv").read_bytes() == (b / "S00_cortisol.csv").read_bytes()

    def test_simulate_stress_uses_the_experiments_session_seeds(self, tmp_path):
        out = tmp_path / "cohort"
        run_cli("simulate", "stress", "--subjects", "2", "--seed", "4", "--out", str(out))
        for profile, bundle, _samples in cohort_sessions(2, seed=4):
            expected = tmp_path / f"{profile.subject_id}_expected.csv"
            save_series_csv(bundle.bvp, expected)
            assert (out / f"{profile.subject_id}_bvp.csv").read_bytes() == expected.read_bytes()

    def test_simulate_bp_writes_units(self, tmp_path):
        out = tmp_path / "bp"
        result = run_cli(
            "simulate", "bp", "--records", "1", "--mode", "long", "--seed", "0", "--out", str(out)
        )
        assert result.returncode == 0, result.stderr
        for u in range(3):
            assert (out / f"R00_u{u}_ppg.csv").exists()
            assert (out / f"R00_u{u}_sbp.csv").exists()
            assert (out / f"R00_u{u}_dbp.csv").exists()

    def test_simulate_locate_script(self, tmp_path):
        script = {
            "users": {"1": "alice"},
            "locations": {"10": "kitchen", "11": "bedroom"},
            "steps": [
                {"t_s": 0, "user": "alice", "room": "kitchen"},
                {"t_s": 100, "user": "alice", "room": None},
            ],
        }
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        result = run_cli("simulate", "locate", "--script", str(path))
        assert result.returncode == 0, result.stderr
        lines = result.stdout.strip().splitlines()
        assert '"status":"ok"' in lines[0] and '"room":"kitchen"' in lines[0]
        assert '"status":"not_found"' in lines[1]


class TestIngestAndTrain:
    def test_csv_to_store_to_model(self, tmp_path):
        data = tmp_path / "data"
        store = tmp_path / "store.jsonl"
        run_cli("simulate", "stress", "--subjects", "4", "--seed", "0", "--out", str(data))
        run_cli("simulate", "bp", "--records", "1", "--mode", "short", "--seed", "0", "--out", str(data))
        result = run_cli("ingest", "--store", str(store), "--data", str(data))
        assert result.returncode == 0, result.stderr
        ack = json.loads(result.stdout)
        assert ack["stored"] > 0 and ack["duplicates"] == 0
        # Re-ingesting the same data is a no-op.
        again = json.loads(run_cli("ingest", "--store", str(store), "--data", str(data)).stdout)
        assert again["stored"] == 0 and again["duplicates"] == ack["stored"]

        config = tmp_path / "train.cfg"
        config.write_text("forest.n_trees = 5\nforest.max_depth = 6\nbp.boost_estimators = 3\n")
        trained = run_cli(
            "train", "stress", "--store", str(store), "--config", str(config), "--seed", "1"
        )
        assert trained.returncode == 0, trained.stderr
        assert json.loads(trained.stdout)["model_key"] == "stress"
        trained_bp = run_cli(
            "train", "bp", "--store", str(store), "--config", str(config), "--seed", "1"
        )
        assert trained_bp.returncode == 0, trained_bp.stderr
        assert "bp_sbp" in json.loads(trained_bp.stdout)


def oracle_bodies(data: Path) -> list[dict]:
    """The sync bodies `homevitals ingest` built field by field before the
    sync-body codec existed, kept as the codec's oracle."""
    bodies = []
    wrist = {"eda": Channel.EDA, "bvp": Channel.BVP, "st": Channel.ST}
    subjects = sorted({p.name.rsplit("_", 1)[0] for p in data.glob("*_eda.csv")})
    for sid in subjects:
        payload = {"subject_id": sid, "chunks": []}
        for stem, channel in wrist.items():
            payload["chunks"].append(
                series_to_payload(load_series_csv(data / f"{sid}_{stem}.csv", channel))
            )
        ibi_path = data / f"{sid}_ibi.csv"
        if ibi_path.exists():
            ibi = load_ibi_csv(ibi_path)
            payload["ibi"] = [[int(t), float(v)] for t, v in ibi]
        cortisol_path = data / f"{sid}_cortisol.csv"
        if cortisol_path.exists():
            payload["cortisol"] = [
                {
                    "timepoint": s.timepoint.value,
                    "t_ms": s.t_ms,
                    "concentration_ugdl": s.concentration_ugdl,
                }
                for s in load_cortisol_csv(cortisol_path)
            ]
        bodies.append(payload)
    units = sorted({p.name[: -len("_ppg.csv")] for p in data.glob("*_ppg.csv")})
    for stem in units:
        payload = {
            "subject_id": stem.rsplit("_u", 1)[0],
            "chunks": [
                series_to_payload(load_series_csv(data / f"{stem}_ppg.csv", Channel.PPG)),
                series_to_payload(
                    load_series_csv(data / f"{stem}_sbp.csv", Channel.DERIVED, 1.0),
                    name="sbp_mmhg",
                ),
                series_to_payload(
                    load_series_csv(data / f"{stem}_dbp.csv", Channel.DERIVED, 1.0),
                    name="dbp_mmhg",
                ),
            ],
        }
        bodies.append(payload)
    return bodies


def records_without_created_at(path: Path) -> list[dict]:
    store = JsonlStore(path)
    records = list(store.records(every_entry(store)))
    store.close()
    for record in records:
        del record["created_at_ms"]
    return records


@pytest.fixture(scope="module")
def csv_set(tmp_path_factory):
    """A simulate stress and bp CSV set; one subject lacks its IBI file and
    another its cortisol file, so both optional parts are exercised."""
    data = tmp_path_factory.mktemp("csv_set")
    assert cli.main(["simulate", "stress", "--subjects", "3", "--seed", "2", "--out", str(data)]) == 0
    assert cli.main(
        ["simulate", "bp", "--records", "2", "--mode", "short", "--seed", "1", "--out", str(data)]
    ) == 0
    (data / "S01_ibi.csv").unlink()
    (data / "S02_cortisol.csv").unlink()
    return data


class TestIngestBodies:
    def test_ingest_sends_the_oracle_bodies(self, csv_set, tmp_path, monkeypatch):
        sent = []
        sync = VitalsService.sync_signals

        def recording_sync(service, body):
            sent.append(body)
            return sync(service, body)

        monkeypatch.setattr(VitalsService, "sync_signals", recording_sync)
        assert cli.main(["ingest", "--store", str(tmp_path / "s.jsonl"), "--data", str(csv_set)]) == 0
        assert [body["subject_id"] for body in sent] == ["S00", "S01", "S02", "R00", "R01"]
        assert sent == oracle_bodies(csv_set)

    def test_ingest_store_matches_the_oracle_store(self, csv_set, tmp_path):
        ingested, oracle = tmp_path / "ingested.jsonl", tmp_path / "oracle.jsonl"
        assert cli.main(["ingest", "--store", str(ingested), "--data", str(csv_set)]) == 0
        store = JsonlStore(str(oracle))
        try:
            service = VitalsService(ServiceConfig().with_storage(str(oracle)), store)
            for body in oracle_bodies(csv_set):
                service.sync_signals(body)
        finally:
            store.close()
        assert records_without_created_at(ingested) == records_without_created_at(oracle)


class TestEvaluateCommands:
    def test_evaluate_stress_report_shape(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(
            "evaluate", "stress",
            "--subjects", "6", "--seeds", "2", "--trees", "5", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        rows = report["rows"]
        assert [row["signals"] for row in rows] == [
            "EDA",
            "EDA+BVP",
            "EDA+BVP+IBI",
            "EDA+BVP+IBI+ST",
        ]
        assert [row["total_features"] for row in rows] == [18, 35, 41, 47]
        for row in rows:
            assert 0 <= row["accuracy_pct"] <= 100
            assert 0 <= row["auc"] <= 1

    def test_evaluate_bp_report_shape(self, tmp_path):
        # Both modes: four regressor columns per target per mode.
        out = tmp_path / "bp.json"
        result = run_cli(
            "evaluate", "bp",
            "--records", "2", "--mode", "both", "--seeds", "1", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        assert set(report["modes"].keys()) == {"short_term", "long_term"}
        for table in report["modes"].values():
            assert set(table.keys()) == {"sbp", "dbp"}
            for target in table.values():
                assert set(target.keys()) == {"mlp", "dt", "adaboost_dt", "adaboost_mlp"}
                for metrics in target.values():
                    assert metrics["mae"] >= 0
                    assert 0 <= metrics["pct_within_5mmhg"] <= 100

    def test_report_roc(self, tmp_path):
        out = tmp_path / "roc.json"
        result = run_cli(
            "report", "roc", "--subjects", "6", "--trees", "5", "--out", str(out)
        )
        assert result.returncode == 0, result.stderr
        curves = json.loads(out.read_text())["curves"]
        assert set(curves.keys()) == {"EDA", "EDA+BVP", "EDA+BVP+IBI", "EDA+BVP+IBI+ST"}
        for points in curves.values():
            assert points[0] == [0.0, 0.0]
            assert points[-1] == [1.0, 1.0]


@pytest.fixture
def served(tmp_path):
    config_path = tmp_path / "service.cfg"
    config_path.write_text(
        "listen_port = 0\n"
        f"storage_path = {tmp_path / 'store.jsonl'}\n"
        "tags.user.1 = alice\n"
        "tags.location.10 = kitchen\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "homevitals.cli", "serve", "--config", str(config_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    port = int(line.strip().rsplit(":", 1)[1])
    yield proc, port
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=10)


class TestServeAndLocate:
    def test_locate_round_trip(self, served):
        proc, port = served
        base = f"http://127.0.0.1:{port}"
        for kind, index in (("user", 1), ("location", 10)):
            request = urllib.request.Request(
                f"{base}/tags/event",
                data=json.dumps({"kind": kind, "index": index}).encode(),
                headers={"Content-Type": "application/json"},
            )
            urllib.request.urlopen(request)
        result = run_cli("locate", "alice", "--server", base)
        assert result.returncode == 0, result.stderr
        assert '"room":"kitchen"' in result.stdout

    def test_locate_unknown_identity_nonzero_exit(self, served):
        proc, port = served
        result = run_cli("locate", "carol", "--server", f"http://127.0.0.1:{port}")
        assert result.returncode == 1
        assert "carol" in result.stderr or "not" in result.stderr.lower()


def test_unknown_command_exits_nonzero():
    result = run_cli("frobnicate")
    assert result.returncode == 2


def stored_subjects(path: Path) -> set[str]:
    store = JsonlStore(path)
    subjects = {record["subject_id"] for record in store.records(every_entry(store))}
    store.close()
    return subjects


class TestIngestRejectsBadFiles:
    """A bad or missing file stops ingest with one error line; the subjects
    synced before it stay stored."""

    def ingest_error(self, data: Path, store: Path) -> str:
        result = run_cli("ingest", "--store", str(store), "--data", str(data))
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ")
        return line

    def test_bad_cell(self, csv_set, tmp_path):
        data, store = tmp_path / "data", tmp_path / "store.jsonl"
        shutil.copytree(csv_set, data)
        bvp = data / "S01_bvp.csv"
        rows = bvp.read_bytes().split(b"\r\n")
        rows[2] = b"abc," + rows[2].split(b",")[1]
        bvp.write_bytes(b"\r\n".join(rows))
        assert self.ingest_error(data, store).startswith(f"error: {bvp}:3: ")
        assert stored_subjects(store) == {"S00"}

    @pytest.mark.parametrize(("name", "cell"), [("S01_bvp.csv", b"nan"), ("S02_ibi.csv", b"inf")])
    def test_non_finite_cell(self, csv_set, tmp_path, name, cell):
        data, store = tmp_path / "data", tmp_path / "store.jsonl"
        shutil.copytree(csv_set, data)
        path = data / name
        rows = path.read_bytes().split(b"\r\n")
        rows[2] = rows[2].split(b",")[0] + b"," + cell
        path.write_bytes(b"\r\n".join(rows))
        assert self.ingest_error(data, store).startswith(f"error: {path}:3: ")
        assert "S02" not in stored_subjects(store)

    def test_missing_series_file(self, csv_set, tmp_path):
        data, store = tmp_path / "data", tmp_path / "store.jsonl"
        shutil.copytree(csv_set, data)
        (data / "S01_st.csv").unlink()
        assert str(data / "S01_st.csv") in self.ingest_error(data, store)
        assert stored_subjects(store) == {"S00"}


LOCATE_SCRIPT = {
    "users": {"1": "alice", "2": "bob"},
    "locations": {"10": "kitchen", "11": "bedroom"},
    "steps": [
        {"t_s": 0, "user": "alice", "room": "kitchen"},
        {"t_s": 30, "user": "bob", "room": "bedroom"},
        {"t_s": 31.5, "user": "alice", "room": "bedroom"},
        {"t_s": 100, "user": "bob", "room": None},
    ],
}


class TestSimulateLocateScripts:
    def test_output_is_pinned(self, tmp_path, capsys):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(LOCATE_SCRIPT))
        assert cli.main(["simulate", "locate", "--script", str(script), "--seed", "7"]) == 0
        assert capsys.readouterr().out == (
            '{"i_loc":10,"i_tag":1,"room":"kitchen","status":"ok","t1_ms":0,"t2_ms":2812,"user":"alice"}\n'
            '{"i_loc":11,"i_tag":2,"room":"bedroom","status":"ok","t1_ms":30000,"t2_ms":34037,"user":"bob"}\n'
            '{"i_loc":11,"i_tag":1,"room":"bedroom","status":"ok","t1_ms":34037,"t2_ms":34990,"user":"alice"}\n'
            '{"identity":"bob","reason":"no matching tag events in range","status":"not_found"}\n'
        )

    @pytest.mark.parametrize(
        ("text", "reason"),
        [
            ('{"users": {"1": "alice"},', "Expecting"),
            (json.dumps({**LOCATE_SCRIPT, "users": {"one": "alice"}}), "'one'"),
            (json.dumps({**LOCATE_SCRIPT, "steps": [{"user": "alice"}]}), "step 1 needs t_s"),
            (json.dumps({**LOCATE_SCRIPT, "steps": [{"t_s": 0}]}), "step 1 needs t_s and user"),
            (
                json.dumps({**LOCATE_SCRIPT, "steps": [{"t_s": "5", "user": "bob"}]}),
                "t_s '5' is not a finite number",
            ),
            (
                json.dumps({**LOCATE_SCRIPT, "steps": [{"t_s": 0, "user": "carol"}]}),
                "user 'carol' is not registered",
            ),
            (
                json.dumps({**LOCATE_SCRIPT, "steps": [{"t_s": 0, "user": "bob", "room": "den"}]}),
                "room 'den' is not registered",
            ),
        ],
        ids=[
            "invalid json",
            "index not an integer",
            "no t_s",
            "no user",
            "t_s not a number",
            "unknown user",
            "unknown room",
        ],
    )
    def test_malformed_script_is_one_error_line(self, tmp_path, capsys, text, reason):
        script = tmp_path / "script.json"
        script.write_text(text)
        assert cli.main(["simulate", "locate", "--script", str(script)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {script}: ") and reason in line


def ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_serve_stops_cleanly_on_signal_even_with_sigint_ignored(tmp_path, signum):
    # A background job of a non-interactive shell inherits SIGINT as ignored.
    store = tmp_path / "store.jsonl"
    config = tmp_path / "service.cfg"
    config.write_text(f"listen_port = 0\nstorage_path = {store}\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "homevitals.cli", "serve", "--config", str(config)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=ignore_sigint,
    )
    try:
        assert proc.stdout.readline().startswith(b"listening on ")
        proc.send_signal(signum)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    JsonlStore(store).close()  # the log reopens


@pytest.mark.parametrize(
    ("port_line", "flags", "port"),
    [("listen_port = -3\n", [], -3), ("listen_port = 0\n", ["--port", "70000"], 70000)],
    ids=["config", "flag"],
)
def test_serve_refuses_a_port_out_of_range_before_creating_the_store(
    tmp_path, capsys, port_line, flags, port
):
    store = tmp_path / "store.jsonl"
    config = tmp_path / "service.cfg"
    config.write_text(f"{port_line}storage_path = {store}\n")
    assert cli.main(["serve", "--config", str(config), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: listen_port must be in 0..65535, got {port}\n"
    assert not store.exists()


@pytest.mark.parametrize(
    ("line", "reason"),
    [
        ("label.threshold = -1", "threshold must be non-negative and finite, got -1.0"),
        ("forest.n_trees = 0", "forest.n_trees must be >= 1, got 0"),
        ("bp.boost_estimators = 0", "bp.boost_estimators must be >= 1, got 0"),
        ("window.overlap_s = 100", "overlap must satisfy 0 <= overlap < length"),
        ("window.length_s = nan", "window length must be positive and finite"),
        ("match.tolerance_s = -1", "tolerance_s and search_window_s must be finite and positive"),
    ],
    ids=["threshold", "n_trees", "boost_estimators", "overlap", "length", "tolerance"],
)
def test_serve_refuses_a_setting_it_cannot_use_before_creating_the_store(
    tmp_path, capsys, monkeypatch, line, reason
):
    # A server that got this far would serve until stopped.
    monkeypatch.setattr(cli.VitalsHttpServer, "serve_forever", lambda self: pytest.fail("served"))
    store = tmp_path / "store.jsonl"
    config = tmp_path / "service.cfg"
    config.write_text(f"listen_port = 0\n{line}\nstorage_path = {store}\n")
    assert cli.main(["serve", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {reason}\n"
    assert not store.exists()


def test_serve_closes_socket_and_store_on_an_interrupt_before_serving(tmp_path, monkeypatch):
    # A signal that lands just after the listening line, before serve_forever
    # runs: no loop exists for httpd.shutdown() to stop.
    store = tmp_path / "store.jsonl"
    config = tmp_path / "service.cfg"
    config.write_text(f"listen_port = 0\nstorage_path = {store}\n")
    servers = []

    class RecordedServer(cli.VitalsHttpServer):
        def __init__(self, config):
            super().__init__(config)
            servers.append(self)

    def interrupted_print(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "VitalsHttpServer", RecordedServer)
    monkeypatch.setattr(cli, "print", interrupted_print, raising=False)
    handlers = {signum: signal.getsignal(signum) for signum in (signal.SIGINT, signal.SIGTERM)}
    try:
        code = cli.main(["serve", "--config", str(config)])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped serve")
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
    [server] = servers
    assert code == 0
    assert server.store._fh.closed and server.store._reader.closed
    assert server.httpd.socket.fileno() == -1
