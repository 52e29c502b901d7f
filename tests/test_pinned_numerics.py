"""Recorded bytes of the numerical rules: the MLP's training, the EDA tonic
filter, the BP feature path's Butterworth filter, and the rank statistics of
feature selection and ROC-AUC. Any change to how these are computed that moves
a single bit fails here."""

import hashlib
import json

import numpy as np

from helpers import pulse_wave, single_window
from homevitals.features import (
    FeatureMatrix,
    bp_reduced_features,
    eda_features,
    select_features,
)
from homevitals.models import AdaBoostR2, MlpRegressor, roc_auc
from homevitals.signals import Channel, SampleSeries


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def doc_digest(doc: dict) -> str:
    return digest(json.dumps(doc, sort_keys=True).encode())


def regression_data(n=45, d=4, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = 3.0 * X[:, 0] - np.abs(X[:, 1]) + 0.1 * rng.normal(size=n)
    return X, y


def test_mlp_training_bytes():
    X, y = regression_data()
    # 45 rows in batches of 8: the last batch of every epoch is short.
    model = MlpRegressor(hidden=8, epochs=25, batch_size=8, learning_rate=0.02, seed=3).fit(X, y)
    assert doc_digest(model.to_dict()) == "a68a3cb196e9dbbf"
    assert digest(np.asarray(model.loss_history).tobytes()) == "d22a3bd08deecc52"


def test_boosted_mlp_training_bytes():
    X, y = regression_data(seed=6)
    model = AdaBoostR2("mlp", n_estimators=3, seed=2, base_params={"hidden": 6, "epochs": 15})
    assert doc_digest(model.fit(X, y).to_dict()) == "7ea73b476ef30754"


def test_eda_features_bytes():
    rng = np.random.default_rng(11)
    t = np.arange(360) / 4.0
    eda = 2.0 + 0.01 * t + 0.05 * rng.normal(size=t.size)
    for onset in (12.0, 37.5, 61.0, 80.0):
        eda = eda + 0.5 * np.interp(t - onset, [0, 1, 2, 4, 8], [0, 1, 0.7, 0.3, 0])
    assert digest(eda_features(single_window(eda=eda)).tobytes()) == "17e3a2ff5d880668"


def test_bp_reduced_features_bytes():
    rng = np.random.default_rng(12)
    cases = {
        (Channel.PPG, 125.0): "583f05d1032c1ed6",
        (Channel.BVP, 64.0): "bde6cd1261ddb0b4",
    }
    for (channel, rate), expected in cases.items():
        values = pulse_wave(40.0, rate, 1.2, noise=0.02, seed=int(rate))
        drift = 0.3 * np.arange(values.size) / values.size
        values = values + drift + 0.01 * rng.normal(size=values.size)
        fv = bp_reduced_features(SampleSeries(channel, rate, 1_000, values))
        assert digest(fv.tobytes()) == expected, channel


def tied_matrix() -> FeatureMatrix:
    """Integer-valued and coarsely rounded columns, so most values are tied."""
    rng = np.random.default_rng(13)
    y = np.array([0, 1] * 30)
    columns = [
        rng.integers(0, 3, size=y.size) + y,
        rng.integers(0, 2, size=y.size),
        np.round(rng.normal(size=y.size) + 0.8 * y, 1),
        np.full(y.size, 7.0),
        np.round(rng.normal(size=y.size), 0) - y,
    ]
    names = tuple(f"f{j}" for j in range(len(columns)))
    X = np.column_stack(columns).astype(np.float64)
    return FeatureMatrix(names, X, ["S00"] * y.size).with_labels(y)


def test_selection_ranks_and_scores_on_ties():
    result = select_features(tied_matrix())
    assert result.ranked_names == ("f4", "f0", "f2", "f1", "f3")
    assert digest(np.asarray(result.scores).tobytes()) == "0430678bb311645e"
    assert result.selected == ("f4", "f0", "f2")


def test_roc_auc_on_ties():
    rng = np.random.default_rng(14)
    y = rng.integers(0, 2, size=200)
    scores = np.round(rng.normal(size=200) + 0.7 * y, 1)
    assert roc_auc(y, scores).hex() == "0x1.77a6abe55d875p-1"
    assert roc_auc(y, np.zeros(200)) == 0.5
