"""The experiments' ordered process pool: pooled and serial runs give the same
tables, workers never outlive a call, and threaded callers stay in-process."""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import homevitals
from homevitals import experiments
from homevitals.errors import SplitImpossible
from homevitals.features import FeatureMatrix

SMALL_FOREST = {**experiments.FOREST_PARAMS, "n_trees": 20}


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(n)))


def tables() -> dict:
    datasets = experiments.build_stress_dataset(4, cohort_seed=0)
    fusion = experiments.stress_fusion_experiment(
        datasets, split_seeds=range(2), forest_params=SMALL_FOREST
    )
    curves = experiments.stress_roc_curves(datasets, forest_params=SMALL_FOREST)
    bp = experiments.bp_regressor_experiment(
        experiments.build_bp_dataset(4, seed=100), split_seeds=range(2)
    )
    assert multiprocessing.active_children() == []
    return {
        "rows": {
            "+".join(combo): [m.X.tobytes().hex(), list(m.names), m.labels.tobytes().hex()]
            for combo, m in datasets.items()
        },
        "fusion": [r.as_row() for r in fusion.values()],
        "roc": curves,
        "bp": bp,
    }


def one_subject_matrix() -> FeatureMatrix:
    X = [[i, 1.0] for i in range(4)]
    return FeatureMatrix(("a", "b"), X, ["S00"] * 4, labels=[0, 1, 0, 1])


def test_pooled_and_serial_tables_are_byte_equal(monkeypatch):
    use_cpus(monkeypatch, 1)
    serial = json.dumps(tables())
    use_cpus(monkeypatch, 2)
    pooled = json.dumps(tables())
    assert pooled == serial
    # Recorded from the loops that ran every job in the calling process.
    assert hashlib.sha256(serial.encode()).hexdigest()[:16] == "ca0a3076d6e9139d"


def test_pool_returns_in_order_and_leaves_no_worker(monkeypatch):
    use_cpus(monkeypatch, 2)
    pids = experiments._ordered_map(os.getpid, [()] * 4)
    assert os.getpid() not in pids
    assert experiments._ordered_map(divmod, [(n, 3) for n in range(7)]) == [
        divmod(n, 3) for n in range(7)
    ]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_failing_job_raises_its_own_error(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    jobs = [(one_subject_matrix(), seed, SMALL_FOREST) for seed in range(3)]
    with pytest.raises(SplitImpossible):
        experiments._ordered_map(experiments._forest_split_metrics, jobs)
    assert multiprocessing.active_children() == []


def test_threaded_caller_runs_jobs_in_process(monkeypatch):
    use_cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        pids = experiments._ordered_map(os.getpid, [()] * 3)
    finally:
        release.set()
        other.join(timeout=30)
    assert not other.is_alive()
    assert pids == [os.getpid()] * 3
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("module", ["homevitals.service", "homevitals.experiments"])
def test_import_loads_no_process_pool(module):
    src = str(Path(homevitals.__file__).resolve().parent.parent)
    code = (
        f"import sys, {module}; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
