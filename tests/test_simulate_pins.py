"""Recorded bytes of the simulators' raw output: every channel, beat and
cortisol concentration of one stress session, and the PPG and pressure
trajectories of the BP records in both modes. Any change to how the
synthetic data is drawn that moves a single bit fails here."""

import hashlib

import numpy as np
import pytest

from homevitals.simulate import generate_cohort, simulate_bp_records, subject_session


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def test_stress_session_bytes():
    profiles, script = generate_cohort(3, seed=5)
    index = max(range(len(profiles)), key=lambda i: profiles[i].stress_amplitude)
    bundle, samples = subject_session(profiles[index], script, index)
    assert digest(bundle.eda.values, bundle.bvp.values, bundle.st.values) == "94e87491a1e59dd3"
    assert digest(bundle.ibi.t_ms, bundle.ibi.ibi_s) == "ec1fe99bb6b2f171"
    cortisol = (
        np.array([s.t_ms for s in samples], dtype=np.int64),
        np.array([s.concentration_ugdl for s in samples], dtype=np.float64),
    )
    assert digest(*cortisol) == "238dbb75ff011461"


@pytest.mark.parametrize(
    "mode, expected",
    [("short_term", "28034d145d7eae03"), ("long_term", "555abd9e5edc824c")],
)
def test_bp_records_bytes(mode, expected):
    arrays = [
        values
        for record in simulate_bp_records(2, mode, seed=3)
        for unit in record.units
        for values in (unit.ppg.values, unit.sbp.values, unit.dbp.values)
    ]
    assert digest(*arrays) == expected
