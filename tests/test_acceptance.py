"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Heavy datasets are session-scoped so the suite stays inside the
stated runtime budgets.
"""

import itertools
import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from homevitals import experiments
from homevitals.errors import DegenerateInput
from homevitals.features import (
    BP_FEATURE_NAMES,
    BP_REDUCED_NAMES,
    CHANNEL_COMBINATIONS,
    bp_feature_vector,
    bp_reduced_features,
    stress_feature_matrix,
)
from homevitals.location import (
    EventLog,
    LocationFix,
    MatchConfig,
    NoFix,
    TagEvent,
    TagKind,
    match_events,
    register,
    resolve_location,
)
from homevitals.models import (
    AdaBoostR2,
    DecisionTreeRegressor,
    MlpRegressor,
    RandomForestClassifier,
    classification_metrics,
    dumps_model,
    regression_metrics,
    roc_auc,
    subject_split,
)
from homevitals.signals import (
    Channel,
    SampleSeries,
    WindowSpec,
    butter_lowpass_coefficients,
    make_windows,
    preprocess_ppg,
    single_pass_filter,
    zero_phase_filter,
)
from homevitals.simulate import generate_cohort, simulate_bp_records, simulate_session

from helpers import make_bundle, pulse_wave


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}", flush=True)


@pytest.fixture(scope="module")
def stress_datasets():
    return experiments.build_stress_dataset(n_subjects=40, cohort_seed=0)


@pytest.fixture(scope="module")
def bp_dataset():
    return experiments.build_bp_dataset(n_records=20, mode="short_term", seed=0)


def test_criterion_1_preprocessing_conformance():
    started = time.monotonic()
    steps = []
    records = [
        SampleSeries(Channel.PPG, 125.0, 0, pulse_wave(12.0, 125.0, 1.3, noise=0.01, seed=s))
        for s in range(2)
    ]
    preprocess_ppg(records, on_step=steps.append)
    assert steps == ["mean-subtract", "concat", "detrend", "normalize", "mod-subtract", "filter"]

    rate, wn = 125.0, 0.2
    b, a = butter_lowpass_coefficients(4, wn)
    filtered = zero_phase_filter(b, a, np.full(500, 2.5))
    assert np.all(np.abs(filtered - 2.5) <= 1e-6)

    t = np.arange(int(rate * 60)) / rate
    x = np.sin(2 * np.pi * (wn * rate / 2) * t)
    y = single_pass_filter(b, a, x)
    steady = slice(len(x) // 2, None)
    gain = np.sqrt(np.mean(y[steady] ** 2) / np.mean(x[steady] ** 2))
    assert abs(gain - 1 / np.sqrt(2)) < 0.01

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(f"criterion 1 PASS: step order exact, DC gain 1+-1e-6, cutoff gain {gain:.4f} (~0.7071), {elapsed:.1f}s")


def test_criterion_2_windowing_arithmetic():
    rng = np.random.default_rng(202406)
    checked = 0
    while checked < 50:
        length_q = int(rng.integers(8, 401))
        overlap_q = int(rng.integers(0, length_q))
        extra_q = int(rng.integers(0, 2001))
        length_s = length_q * 0.25
        overlap_s = overlap_q * 0.25
        duration_s = length_s + extra_q * 0.25
        windows = make_windows(make_bundle(duration_s=duration_s), WindowSpec(length_s, overlap_s))
        t_ms, l_ms = int(duration_s * 1000), int(length_s * 1000)
        step_ms = int((length_s - overlap_s) * 1000)
        expected = (t_ms - l_ms) // step_ms + 1
        assert len(windows) == expected, (duration_s, length_s, overlap_s)
        checked += 1
    reference = make_windows(make_bundle(duration_s=270.0), WindowSpec(90.0, 45.0))
    assert len(reference) == 5
    report("criterion 2 PASS: 50 random window-count checks exact; (90,45) on 270 s gives 5")


def test_criterion_3_feature_counts():
    windows = make_windows(
        make_bundle(duration_s=90.0, bvp=pulse_wave(90, 64, 1.2, noise=0.02)),
        WindowSpec(90.0, 45.0),
    )
    expected = {
        ("EDA",): 18,
        ("EDA", "BVP"): 35,
        ("EDA", "BVP", "IBI"): 41,
        ("EDA", "BVP", "IBI", "ST"): 47,
    }
    for combo in CHANNEL_COMBINATIONS:
        matrix = stress_feature_matrix(windows, combo)
        assert len(matrix.names) == expected[combo], combo
    segment = SampleSeries(Channel.PPG, 125.0, 0, pulse_wave(20.0, 125.0, 1.4, noise=0.01))
    assert len(bp_feature_vector(segment)) == 106
    assert len(BP_FEATURE_NAMES) == 106
    assert len(bp_reduced_features(segment)) == 10
    assert len(BP_REDUCED_NAMES) == 10
    report("criterion 3 PASS: channel combos give 18/35/41/47 columns; BP catalogs 106 and 10")


def test_criterion_4_sensor_fusion_monotonicity(stress_datasets):
    started = time.monotonic()
    results = experiments.stress_fusion_experiment(
        datasets=stress_datasets, split_seeds=range(10)
    )
    accs = {combo: results[combo].accuracies for combo in CHANNEL_COMBINATIONS}
    monotone = 0
    for s in range(10):
        ladder = [accs[combo][s] for combo in CHANNEL_COMBINATIONS]
        monotone += all(b >= a for a, b in zip(ladder, ladder[1:]))
    all_channel = accs[CHANNEL_COMBINATIONS[-1]]
    elapsed = time.monotonic() - started
    assert monotone >= 8, f"monotone ladders in only {monotone}/10 seeds"
    assert float(np.mean(all_channel)) >= 0.85
    assert min(all_channel) >= 0.85
    assert elapsed < 300.0
    means = [float(np.mean(accs[c])) for c in CHANNEL_COMBINATIONS]
    report(
        "criterion 4 PASS: accuracy ladder "
        + " -> ".join(f"{m:.3f}" for m in means)
        + f", monotone in {monotone}/10 seeds, {elapsed:.0f}s"
    )


def test_criterion_5_bp_regressor_ordering(bp_dataset):
    started = time.monotonic()
    matrix, sbp, dbp = bp_dataset
    params = {"max_depth": 12, "min_samples_leaf": 3}
    wins = {"sbp": 0, "dbp": 0}
    boost_mae = {"sbp": [], "dbp": []}
    for target_name, targets in (("sbp", sbp), ("dbp", dbp)):
        labeled = matrix.with_labels(targets)
        for seed in range(10):
            train, test = subject_split(labeled, 0.25, seed=seed)
            tree = DecisionTreeRegressor(seed=seed, **params).fit(train.X, train.labels)
            boost = AdaBoostR2("dt", n_estimators=30, seed=seed, base_params=params)
            boost.fit(train.X, train.labels)
            mae_tree = regression_metrics(test.labels, tree.predict(test.X)).mae
            mae_boost = regression_metrics(test.labels, boost.predict(test.X)).mae
            wins[target_name] += mae_boost <= mae_tree
            boost_mae[target_name].append(mae_boost)
    elapsed = time.monotonic() - started
    assert wins["sbp"] >= 8 and wins["dbp"] >= 8, wins
    assert max(boost_mae["sbp"]) < 5.0
    assert max(boost_mae["dbp"]) < 5.0
    assert elapsed < 600.0
    report(
        f"criterion 5 PASS: boosted-tree wins SBP {wins['sbp']}/10 DBP {wins['dbp']}/10, "
        f"MAE sbp {np.mean(boost_mae['sbp']):.2f} dbp {np.mean(boost_mae['dbp']):.2f} mmHg, "
        f"{elapsed:.0f}s"
    )


def brute_f1(y_true, y_pred, positive):
    tp = sum(t == positive and p == positive for t, p in zip(y_true, y_pred))
    fp = sum(t != positive and p == positive for t, p in zip(y_true, y_pred))
    fn = sum(t == positive and p != positive for t, p in zip(y_true, y_pred))
    return 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0


def brute_auc(y_true, scores):
    pairs = correct = 0.0
    for (t1, s1), (t2, s2) in itertools.product(zip(y_true, scores), repeat=2):
        if t1 == 1 and t2 == 0:
            pairs += 1
            correct += 1.0 if s1 > s2 else (0.5 if s1 == s2 else 0.0)
    return correct / pairs if pairs else None


def test_criterion_6_metric_oracles():
    # Every binary truth/prediction pattern whose combined length is <= 10
    # bits: 4^5 = 2^10 patterns at n = 5, plus all shorter ones.
    patterns = 0
    for n in range(1, 6):
        for bits in itertools.product((0, 1), repeat=2 * n):
            y_true = list(bits[:n])
            y_pred = list(bits[n:])
            m = classification_metrics(y_true, y_pred)
            f1_pos = brute_f1(y_true, y_pred, 1)
            f1_neg = brute_f1(y_true, y_pred, 0)
            acc = float(np.mean(np.asarray(y_true) == np.asarray(y_pred)))
            assert m.f1_positive == f1_pos
            assert m.f1_negative == f1_neg
            assert m.macro_f1 == (f1_pos + f1_neg) / 2
            assert m.accuracy == acc
            assert m.micro_f1 == pytest.approx(acc, abs=1e-12)  # micro == accuracy
            expected_auc = brute_auc(y_true, y_pred)
            if expected_auc is not None:
                assert roc_auc(y_true, y_pred) == pytest.approx(expected_auc, abs=1e-12)
            patterns += 1
    assert patterns == sum(4**n for n in range(1, 6))
    assert roc_auc([1, 1, 0, 0], [0.9, 0.4, 0.5, 0.1]) == pytest.approx(0.75)
    report(f"criterion 6 PASS: {patterns} exhaustive patterns match brute force; 4-point AUC = 0.75")


def test_criterion_7_mlp_gradient_check():
    rng = np.random.default_rng(17)
    model = MlpRegressor(hidden=8, seed=5)
    X = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    _, grads = model.loss_and_gradients(X, y)
    coords = [(k, idx) for k, arr in model.params.items() for idx in np.ndindex(arr.shape)]
    worst = 0.0
    for pick in rng.choice(len(coords), size=10, replace=False):
        name, idx = coords[pick]
        h = 1e-6
        original = model.params[name][idx]
        model.params[name][idx] = original + h
        loss_plus, _ = model.loss_and_gradients(X, y)
        model.params[name][idx] = original - h
        loss_minus, _ = model.loss_and_gradients(X, y)
        model.params[name][idx] = original
        numeric = (loss_plus - loss_minus) / (2 * h)
        analytic = grads[name][idx]
        rel = abs(analytic - numeric) / max(1e-8, abs(analytic), abs(numeric))
        worst = max(worst, rel)
        assert rel < 1e-4, (name, idx)
    report(f"criterion 7 PASS: 10 gradient coordinates, worst relative error {worst:.2e}")


def test_criterion_8_location_soundness():
    started = time.monotonic()

    class Clock:
        def __init__(self):
            self.t = 0

        def __call__(self):
            return self.t

    # Boundary cases.
    for gap_s, expect_fix in ((5.0, True), (5.001, False)):
        clock = Clock()
        table = register(users=[(1, "alice")], locations=[(10, "kitchen")])
        log = EventLog(table, MatchConfig(), clock)
        log.ingest_event("user", 1)
        clock.t += int(gap_s * 1000)
        log.ingest_event("location", 10)
        result = resolve_location("alice", log)
        assert isinstance(result, LocationFix) is expect_fix, gap_s

    # 1000-step randomized co-location simulation with jitter < tolerance.
    rng = np.random.default_rng(8080)
    clock = Clock()
    table = register(
        users=[(1, "alice")], locations=[(10, "kitchen"), (11, "bedroom"), (12, "bath")]
    )
    cfg = MatchConfig(tolerance_s=5.0, search_window_s=45.0)
    log = EventLog(table, cfg, clock)
    rooms = {10: "kitchen", 11: "bedroom", 12: "bath"}
    wrong = correct = co_located = 0
    for _ in range(1000):
        true_room = int(rng.choice([0, 10, 11, 12]))
        if true_room:
            co_located += 1
            log.ingest_event("user", 1)
            clock.t += int(rng.uniform(0, 4500))
            log.ingest_event("location", true_room)
        result = resolve_location("alice", log, cfg)
        if true_room:
            if isinstance(result, LocationFix) and result.room == rooms[true_room]:
                correct += 1
            elif isinstance(result, LocationFix):
                wrong += 1
        elif isinstance(result, LocationFix):
            wrong += 1
        clock.t += int(rng.uniform(50_000, 70_000))
    assert wrong == 0
    assert correct >= 0.95 * co_located

    # Resolver equals a brute-force pair scan on 200 random logs.
    for trial in range(200):
        trial_rng = np.random.default_rng(trial)
        users, locations = [], []
        for _ in range(int(trial_rng.integers(2, 30))):
            stamp = int(trial_rng.integers(0, 40_000))
            if trial_rng.random() < 0.5:
                users.append(TagEvent(TagKind.USER, 1, stamp))
            else:
                locations.append(TagEvent(TagKind.LOCATION, int(trial_rng.choice([10, 11, 12])), stamp))
        got = match_events(users, locations, 5.0)
        candidates = [
            (u, l)
            for u, l in itertools.product(users, locations)
            if abs(u.t_server_ms - l.t_server_ms) <= 5000
        ]
        if not candidates:
            assert got is None
        else:
            expected = min(
                candidates,
                key=lambda p: (
                    -max(p[0].t_server_ms, p[1].t_server_ms),
                    abs(p[0].t_server_ms - p[1].t_server_ms),
                    p[1].index,
                ),
            )
            assert got == expected
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(
        f"criterion 8 PASS: 0 wrong fixes, {correct}/{co_located} correct while co-located, "
        f"boundaries exact, 200 oracle logs agree, {elapsed:.1f}s"
    )


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _post(base, path, body):
    request = urllib.request.Request(
        f"{base}{path}", data=json.dumps(body).encode(), headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def _get(base, path):
    with urllib.request.urlopen(f"{base}{path}") as response:
        return json.loads(response.read())


def _start_server(config_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "homevitals.cli", "serve", "--config", str(config_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(proc.stderr.read())
    port = int(line.strip().rsplit(":", 1)[1])
    return proc, f"http://127.0.0.1:{port}"


def test_criterion_9_end_to_end(tmp_path):
    from test_service_pipeline import bp_payload, stress_payload

    started = time.monotonic()
    config_path = tmp_path / "service.cfg"
    config_path.write_text(
        "listen_port = 0\n"
        f"storage_path = {tmp_path / 'store.jsonl'}\n"
        "forest.n_trees = 8\n"
        "forest.max_depth = 6\n"
        "bp.boost_estimators = 4\n"
        "tags.user.1 = alice\n"
        "tags.location.10 = kitchen\n"
    )
    proc, base = _start_server(config_path)
    try:
        # simulate -> sync via API
        for i in range(2):
            _post(base, "/signals/sync", stress_payload(f"R{i}", stressed=False, seed=i))
            _post(base, "/signals/sync", stress_payload(f"S{i}", stressed=True, seed=10 + i))
        unit = simulate_bp_records(1, "short_term", seed=0)[0].units[0]
        for i, offset in enumerate((0.0, 300.0, 600.0)):
            _post(base, "/signals/sync", bp_payload(f"P{i}", unit, offset))

        # duplicate sync is idempotent
        again = _post(base, "/signals/sync", stress_payload("R0", stressed=False, seed=0))
        assert again["stored"] == 0 and again["duplicates"] > 0

        # train both models, query all three modalities
        stress_version = _post(base, "/train/stress", {"seed": 1})["version"]
        bp_versions = _post(base, "/train/bp", {"seed": 1})
        stress_response = _get(base, "/stress/S0")
        assert stress_response["model_version"] == stress_version
        assert stress_response["label"] in ("stressed", "not_stressed")
        assert stress_response["window_end_ms"] > stress_response["window_start_ms"]
        bp_response = _get(base, "/bp/P0")
        assert bp_response["model_version_sbp"] == bp_versions["bp_sbp"]
        assert bp_response["sbp_mmhg"] >= bp_response["dbp_mmhg"]
        _post(base, "/tags/event", {"kind": "user", "index": 1})
        _post(base, "/tags/event", {"kind": "location", "index": 10})
        with urllib.request.urlopen(f"{base}/location/alice") as response:
            message = response.read().decode()
        assert '"i_tag":1' in message and '"i_loc":10' in message

        health_before = _get(base, "/health")["records"]
    finally:
        # ungraceful stop: no flush, no shutdown hooks
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)

    # restart on the same store: every acked write must be readable
    proc2, base2 = _start_server(config_path)
    try:
        health_after = _get(base2, "/health")["records"]
        assert health_after >= health_before
        again = _post(base2, "/signals/sync", stress_payload("R0", stressed=False, seed=0))
        assert again["stored"] == 0  # chunks survived the kill
        stress_response2 = _get(base2, "/stress/S0")
        assert stress_response2["model_version"] == stress_version
        bp_response2 = _get(base2, "/bp/P0")
        assert bp_response2["model_version_sbp"] == bp_versions["bp_sbp"]
    finally:
        proc2.send_signal(signal.SIGTERM)
        proc2.wait(timeout=10)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(f"criterion 9 PASS: sync/train/query round-trip, idempotent resync, kill -9 durability, {elapsed:.0f}s")


def test_acknowledged_syncs_survive_kill_9(tmp_path):
    from homevitals.service import JsonlStore
    from test_service_pipeline import bp_payload, stress_payload

    config_path = tmp_path / "service.cfg"
    config_path.write_text(f"listen_port = 0\nstorage_path = {tmp_path / 'store.jsonl'}\n")
    unit = simulate_bp_records(1, "short_term", seed=0)[0].units[0]
    bodies = [stress_payload("S0", stressed=True, seed=3), bp_payload("P0", unit, 0.0)]
    proc, base = _start_server(config_path)
    try:
        acks = [_post(base, "/signals/sync", body) for body in bodies]
    finally:
        proc.send_signal(signal.SIGKILL)  # right after the last acknowledgement
        proc.wait(timeout=10)
    assert [(ack["stored"], ack["duplicates"]) for ack in acks] == [(6, 0), (3, 0)]

    store = JsonlStore(tmp_path / "store.jsonl")
    assert len(store) == 9
    assert sorted(store.subjects("signal_chunk")) == ["P0", "S0"]
    store.close()
    proc2, base2 = _start_server(config_path)
    try:
        assert _get(base2, "/health")["records"] == 9
        for body, ack in zip(bodies, acks):
            again = _post(base2, "/signals/sync", body)
            assert (again["stored"], again["duplicates"]) == (0, ack["stored"])
    finally:
        proc2.send_signal(signal.SIGTERM)
        proc2.wait(timeout=10)


def test_location_state_survives_kill_9(tmp_path):
    config_path = tmp_path / "service.cfg"
    config_path.write_text(
        "listen_port = 0\n"
        f"storage_path = {tmp_path / 'store.jsonl'}\n"
        "tags.user.1 = alice\n"
        "tags.location.10 = kitchen\n"
    )
    proc, base = _start_server(config_path)
    try:
        _post(base, "/tags/register", {"kind": "user", "index": 2, "name": "bob"})
        _post(base, "/tags/register", {"kind": "location", "index": 11, "name": "hall"})
        acks = [
            _post(base, "/tags/event", {"kind": "user", "index": 2}),
            _post(base, "/tags/event", {"kind": "location", "index": 11}),
        ]
        with urllib.request.urlopen(f"{base}/location/bob") as response:
            message = response.read().decode()
        assert '"status":"ok"' in message and '"room":"hall"' in message
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)

    proc2, base2 = _start_server(config_path)
    try:
        with urllib.request.urlopen(f"{base2}/location/bob") as response:
            assert response.read().decode() == message
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base2, "/tags/register", {"kind": "user", "index": 2, "name": "bob"})
        assert err.value.code == 400
        later = _post(base2, "/tags/event", {"kind": "user", "index": 2})
        assert later["t_server_ms"] >= max(ack["t_server_ms"] for ack in acks)
    finally:
        proc2.send_signal(signal.SIGTERM)
        proc2.wait(timeout=10)


def test_criterion_10_determinism():
    profiles, script = generate_cohort(4, seed=11)
    b1, c1 = simulate_session(profiles[0], script, seed=99)
    b2, c2 = simulate_session(profiles[0], script, seed=99)
    assert np.array_equal(b1.eda.values, b2.eda.values)
    assert np.array_equal(b1.bvp.values, b2.bvp.values)
    assert np.array_equal(b1.st.values, b2.st.values)
    assert np.array_equal(b1.ibi.t_ms, b2.ibi.t_ms)
    assert c1 == c2

    r1 = simulate_bp_records(2, "short_term", seed=5)
    r2 = simulate_bp_records(2, "short_term", seed=5)
    for rec1, rec2 in zip(r1, r2):
        assert np.array_equal(rec1.units[0].ppg.values, rec2.units[0].ppg.values)

    rng = np.random.default_rng(3)
    X = rng.normal(size=(120, 5))
    y = (X[:, 0] + X[:, 2] > 0).astype(int)
    blob1 = dumps_model(RandomForestClassifier(n_trees=10, seed=4).fit(X, y), tuple("abcde"))
    blob2 = dumps_model(RandomForestClassifier(n_trees=10, seed=4).fit(X, y), tuple("abcde"))
    assert blob1.encode() == blob2.encode()

    target = X @ np.array([1.0, 0.5, -1.0, 0.0, 2.0])
    m1 = dumps_model(MlpRegressor(hidden=8, epochs=20, seed=6).fit(X, target), tuple("abcde"))
    m2 = dumps_model(MlpRegressor(hidden=8, epochs=20, seed=6).fit(X, target), tuple("abcde"))
    assert m1.encode() == m2.encode()

    a1 = dumps_model(AdaBoostR2("dt", n_estimators=6, seed=7).fit(X, target), tuple("abcde"))
    a2 = dumps_model(AdaBoostR2("dt", n_estimators=6, seed=7).fit(X, target), tuple("abcde"))
    assert a1.encode() == a2.encode()
    report("criterion 10 PASS: simulators and all trained artifacts byte-identical under fixed seeds")
