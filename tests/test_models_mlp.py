"""MLP regressor: convergence on representable targets, finite-difference
gradient verification, loss trajectory, divergence guard."""

import numpy as np
import pytest

from homevitals.models import MlpRegressor


def flatten_params(model):
    return [(name, idx) for name, arr in model.params.items() for idx in np.ndindex(arr.shape)]


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(42)
        model = MlpRegressor(hidden=8, seed=7)
        X = rng.normal(size=(5, 3))
        y = rng.normal(size=5)
        _, grads = model.loss_and_gradients(X, y)
        coords = flatten_params(model)
        picks = rng.choice(len(coords), size=10, replace=False)
        h = 1e-6
        for pick in picks:
            name, idx = coords[pick]
            original = model.params[name][idx]
            model.params[name][idx] = original + h
            loss_plus, _ = model.loss_and_gradients(X, y)
            model.params[name][idx] = original - h
            loss_minus, _ = model.loss_and_gradients(X, y)
            model.params[name][idx] = original
            numeric = (loss_plus - loss_minus) / (2 * h)
            analytic = grads[name][idx]
            rel_err = abs(analytic - numeric) / max(1e-8, abs(analytic), abs(numeric))
            assert rel_err < 1e-4, (name, idx, analytic, numeric)


class TestTraining:
    def test_constant_target(self, rng):
        X = rng.normal(size=(60, 2))
        y = np.full(60, 4.0)
        model = MlpRegressor(hidden=16, epochs=100, seed=0).fit(X, y)
        assert np.all(np.abs(model.predict(X) - 4.0) <= 0.1)

    def test_linear_function_learned(self, rng):
        X = rng.uniform(0, 1, size=(200, 1))
        y = 3.0 * X[:, 0] + 1.0
        model = MlpRegressor(hidden=32, epochs=200, seed=1).fit(X, y)
        X_test = rng.uniform(0, 1, size=(80, 1))
        mae = np.mean(np.abs(model.predict(X_test) - (3.0 * X_test[:, 0] + 1.0)))
        assert mae < 0.1

    def test_loss_non_increasing_at_checkpoints(self, rng):
        X = rng.normal(size=(150, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 0.05 * rng.normal(size=150)
        model = MlpRegressor(hidden=16, epochs=200, seed=3).fit(X, y)
        losses = model.loss_history
        checkpoints = [losses[i] for i in (0, 49, 99, 149, 199)]
        for earlier, later in zip(checkpoints, checkpoints[1:]):
            assert later <= earlier * 1.01 + 1e-12

    def test_deterministic_under_seed(self, rng):
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        a = MlpRegressor(hidden=8, epochs=20, seed=9).fit(X, y)
        b = MlpRegressor(hidden=8, epochs=20, seed=9).fit(X, y)
        assert a.to_dict() == b.to_dict()

    def test_round_trip_serialization(self, rng):
        X = rng.normal(size=(40, 2))
        y = X[:, 0] * 2.0
        model = MlpRegressor(hidden=8, epochs=30, seed=2).fit(X, y)
        clone = MlpRegressor.from_dict(model.to_dict())
        probe = rng.normal(size=(10, 2))
        assert np.allclose(model.predict(probe), clone.predict(probe))


def per_parameter_adam_fit(model, X, y):
    """MlpRegressor.fit with Adam stepped one parameter array at a time: the
    loop the flat-vector step must reproduce bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    model.x_mean = X.mean(axis=0)
    x_std = X.std(axis=0)
    model.x_std = np.where(x_std > 0, x_std, 1.0)
    model.y_mean = float(y.mean())
    y_std = float(y.std())
    model.y_std = y_std if y_std > 0 else 1.0
    rng = np.random.default_rng(model.seed)
    model.init_params(d, rng)
    Xs = model._standardize_x(X)
    ys = (y - model.y_mean) / model.y_std
    adam_m = {k: np.zeros_like(v) for k, v in model.params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.params.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    model.loss_history = []
    for _ in range(model.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, model.batch_size):
            idx = order[start : start + model.batch_size]
            loss, grads = model._loss_and_grads(Xs[idx], ys[idx])
            batch_losses.append(loss)
            step += 1
            for k, g in grads.items():
                adam_m[k] = beta1 * adam_m[k] + (1 - beta1) * g
                adam_v[k] = beta2 * adam_v[k] + (1 - beta2) * g**2
                m_hat = adam_m[k] / (1 - beta1**step)
                v_hat = adam_v[k] / (1 - beta2**step)
                model.params[k] -= model.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        model.loss_history.append(float(np.mean(batch_losses)))
    return model


class TestFlatAdam:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "hidden, n_rows, batch_size", [(4, 64, 32), (16, 70, 32), (32, 45, 8), (8, 13, 32)]
    )
    def test_fit_matches_the_per_parameter_loop_byte_for_byte(
        self, seed, hidden, n_rows, batch_size
    ):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(n_rows, 3))
        y = X @ np.array([1.5, -0.5, 2.0]) + rng.normal(size=n_rows)
        model = MlpRegressor(hidden=hidden, epochs=12, batch_size=batch_size, seed=seed)
        oracle = MlpRegressor(hidden=hidden, epochs=12, batch_size=batch_size, seed=seed)
        model.fit(X, y)
        per_parameter_adam_fit(oracle, X, y)
        assert list(model.params) == list(oracle.params)
        for name, value in oracle.params.items():
            assert model.params[name].shape == value.shape
            assert model.params[name].tobytes() == value.tobytes(), name
        assert np.array(model.loss_history).tobytes() == np.array(oracle.loss_history).tobytes()
