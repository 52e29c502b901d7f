"""Single-hidden-layer perceptron regressor trained with mini-batch gradient
descent and Adam's per-parameter adaptive step.

Inputs and targets are standardized internally with train-set statistics;
predictions are mapped back. One analytic backward pass serves both training
and loss_and_gradients, so the gradients checked against finite differences
are the ones every training step follows.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateTraining, InputError, TrainingDiverged
from .tree import _validate_xy


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


class MlpRegressor:
    def __init__(
        self,
        hidden: int = 64,
        epochs: int = 200,
        batch_size: int = 32,
        learning_rate: float = 0.01,
        seed: int = 0,
    ):
        if hidden < 1 or epochs < 1 or batch_size < 1:
            raise InputError("hidden, epochs, and batch_size must be >= 1")
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.seed = seed
        self.params: dict[str, np.ndarray] = {}
        self.x_mean: np.ndarray | None = None
        self.x_std: np.ndarray | None = None
        self.y_mean = 0.0
        self.y_std = 1.0
        self.loss_history: list[float] = []

    # -- parameter plumbing ------------------------------------------------

    def init_params(self, n_features: int, rng: np.random.Generator | None = None) -> None:
        rng = rng or np.random.default_rng(self.seed)
        self.params = {
            "w1": rng.normal(0.0, np.sqrt(2.0 / n_features), size=(n_features, self.hidden)),
            "b1": np.zeros(self.hidden),
            "w2": rng.normal(0.0, np.sqrt(1.0 / self.hidden), size=(self.hidden, 1)),
            "b2": np.zeros(1),
        }
        if self.x_mean is None:
            self.x_mean = np.zeros(n_features)
            self.x_std = np.ones(n_features)

    def _standardize_x(self, X: np.ndarray) -> np.ndarray:
        return (X - self.x_mean) / self.x_std

    # -- forward / backward ------------------------------------------------

    def _forward(self, Xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z1 = Xs @ self.params["w1"] + self.params["b1"]
        h = _relu(z1)
        out = h @ self.params["w2"] + self.params["b2"]
        return out[:, 0], h

    def _loss_and_grads(
        self, Xs: np.ndarray, ys: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Mean-squared error and its analytic gradients over standardized rows."""
        pred, h = self._forward(Xs)
        err = pred - ys
        dout = (2.0 / Xs.shape[0]) * err[:, None]
        dz1 = (dout @ self.params["w2"].T) * (h > 0)
        grads = {
            "w2": h.T @ dout,
            "b2": dout.sum(axis=0),
            "w1": Xs.T @ dz1,
            "b1": dz1.sum(axis=0),
        }
        return float(np.mean(err**2)), grads

    def loss_and_gradients(self, X, y) -> tuple[float, dict[str, np.ndarray]]:
        """Mean-squared error on the batch plus the gradients training uses.

        Inputs go through the fitted standardization (identity before fit).
        """
        X, y = _validate_xy(np.atleast_2d(np.asarray(X, dtype=np.float64)), np.asarray(y))
        if not self.params:
            self.init_params(X.shape[1])
        ys = (np.asarray(y, dtype=np.float64) - self.y_mean) / self.y_std
        return self._loss_and_grads(self._standardize_x(X), ys)

    # -- training ----------------------------------------------------------

    def fit(self, X, y) -> "MlpRegressor":
        X, y = _validate_xy(X, y)
        y = y.astype(np.float64)
        n, d = X.shape
        if n == 0:
            raise DegenerateTraining("empty training set")
        self.x_mean = X.mean(axis=0)
        x_std = X.std(axis=0)
        self.x_std = np.where(x_std > 0, x_std, 1.0)
        self.y_mean = float(y.mean())
        y_std = float(y.std())
        self.y_std = y_std if y_std > 0 else 1.0

        rng = np.random.default_rng(self.seed)
        self.init_params(d, rng)
        Xs = self._standardize_x(X)
        ys = (y - self.y_mean) / self.y_std

        adam_m = {k: np.zeros_like(v) for k, v in self.params.items()}
        adam_v = {k: np.zeros_like(v) for k, v in self.params.items()}
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        self.loss_history = []
        initial_loss = None
        for _ in range(self.epochs):
            order = rng.permutation(n)
            batch_losses = []
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                loss, grads = self._loss_and_grads(Xs[idx], ys[idx])
                batch_losses.append(loss)
                step += 1
                for k, g in grads.items():
                    adam_m[k] = beta1 * adam_m[k] + (1 - beta1) * g
                    adam_v[k] = beta2 * adam_v[k] + (1 - beta2) * g**2
                    m_hat = adam_m[k] / (1 - beta1**step)
                    v_hat = adam_v[k] / (1 - beta2**step)
                    self.params[k] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
            epoch_loss = float(np.mean(batch_losses))
            self.loss_history.append(epoch_loss)
            if initial_loss is None:
                initial_loss = max(epoch_loss, 1e-12)
            if not np.isfinite(epoch_loss) or epoch_loss > 1e6 * initial_loss:
                raise TrainingDiverged(
                    f"epoch loss {epoch_loss:.3g} exploded past 1e6x the initial loss"
                )
        return self

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        pred, _ = self._forward(self._standardize_x(X))
        return pred * self.y_std + self.y_mean

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "hidden": self.hidden,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
            "params": {k: v.tolist() for k, v in self.params.items()},
            "x_mean": self.x_mean.tolist(),
            "x_std": self.x_std.tolist(),
            "y_mean": self.y_mean,
            "y_std": self.y_std,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MlpRegressor":
        model = cls(
            hidden=doc["hidden"],
            epochs=doc["epochs"],
            batch_size=doc["batch_size"],
            learning_rate=doc["learning_rate"],
            seed=doc["seed"],
        )
        model.params = {k: np.asarray(v, dtype=np.float64) for k, v in doc["params"].items()}
        model.x_mean = np.asarray(doc["x_mean"], dtype=np.float64)
        model.x_std = np.asarray(doc["x_std"], dtype=np.float64)
        model.y_mean = float(doc["y_mean"])
        model.y_std = float(doc["y_std"])
        return model
