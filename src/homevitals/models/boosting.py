"""AdaBoost.R2 for regression: linear loss, weighted bootstrap resampling for
the base learner, weighted-median aggregation.

Per round: fit the base on a weight-proportional resample, compute absolute
errors normalized by their maximum, average them under the current weights
(the round loss L), stop if L >= 0.5, otherwise keep the member with weight
ln(1/beta) where beta = L / (1 - L) and reweight toward the hard rows.

With tree members, `fit` and `from_dict` stack the members into one node
table with their leaf values, so a prediction routes every row through all
members in one pass before the weighted median; MLP members predict one by
one.
"""

from __future__ import annotations

import logging

import numpy as np

from ..errors import InputError
from .mlp import MlpRegressor
from .tree import DecisionTreeRegressor, _NodeTable, _validate_xy

log = logging.getLogger(__name__)

_MIN_BETA = 1e-10

#: Base learner class per kind, with the parameters `base_params` may override.
_BASES = {
    "dt": (DecisionTreeRegressor, {"max_depth": 8, "min_samples_leaf": 3}),
    "mlp": (MlpRegressor, {"hidden": 32, "epochs": 60}),
}


class AdaBoostR2:
    def __init__(
        self,
        base_kind: str = "dt",
        n_estimators: int = 50,
        seed: int = 0,
        base_params: dict | None = None,
    ):
        if base_kind not in _BASES:
            raise InputError(f"base_kind must be one of {tuple(_BASES)}, got {base_kind!r}")
        if n_estimators < 1:
            raise InputError("n_estimators must be >= 1")
        self.base_kind = base_kind
        self.n_estimators = n_estimators
        self.seed = seed
        self.base_params = dict(base_params or {})
        self.members: list[tuple[object, float]] = []

    def fit(self, X, y) -> "AdaBoostR2":
        X, y = _validate_xy(X, y)
        y = y.astype(np.float64)
        n = X.shape[0]
        if n == 0:
            raise InputError("empty training set")
        rng = np.random.default_rng(self.seed)
        weights = np.full(n, 1.0 / n)
        base_cls, defaults = _BASES[self.base_kind]
        params = {**defaults, **self.base_params}
        self.members = []
        for round_idx in range(self.n_estimators):
            boot = rng.choice(n, size=n, replace=True, p=weights)
            base = base_cls(seed=int(rng.integers(0, 2**31 - 1)), **params)
            base.fit(X[boot], y[boot])
            errors = np.abs(base.predict(X) - y)
            max_error = errors.max()
            if max_error > 0:
                errors = errors / max_error
            avg_loss = float(np.sum(weights * errors))
            if avg_loss <= 0.0:
                # Perfect fit: keep the member and stop boosting.
                self.members.append((base, float(np.log(1.0 / _MIN_BETA))))
                break
            if avg_loss >= 0.5:
                if not self.members:
                    # Degenerate first round: a single member ensemble whose
                    # weight is irrelevant to the weighted median; fixed at 1.
                    log.warning(
                        "AdaBoost.R2 first-round average loss %.3f >= 0.5; "
                        "returning single-member ensemble",
                        avg_loss,
                    )
                    self.members.append((base, 1.0))
                break
            beta = avg_loss / (1.0 - avg_loss)
            self.members.append((base, float(np.log(1.0 / beta))))
            if round_idx < self.n_estimators - 1:
                weights = weights * np.power(beta, 1.0 - errors)
                total = weights.sum()
                if total <= 0:
                    break
                weights = weights / total
        self._stack_members()
        return self

    def _stack_members(self) -> None:
        """Stack tree members into one node table with their leaf values."""
        if self.base_kind == "dt" and self.members:
            trees = [m for m, _ in self.members]
            self._nodes = _NodeTable.stack(trees)
            self._leaf_value = np.concatenate([tree._leaf_value for tree in trees])

    def predict(self, X) -> np.ndarray:
        if not self.members:
            raise InputError("ensemble is not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.base_kind == "dt":
            preds = self._leaf_value[self._nodes.route(X)]  # (n, members)
        else:
            preds = np.vstack([m.predict(X) for m, _ in self.members]).T
        member_weights = np.asarray([w for _, w in self.members])
        order = np.argsort(preds, axis=1)
        sorted_weights = member_weights[order]
        cdf = np.cumsum(sorted_weights, axis=1)
        median_pos = np.argmax(cdf >= 0.5 * cdf[:, -1][:, None], axis=1)
        rows = np.arange(preds.shape[0])
        return preds[rows, order[rows, median_pos]]

    @property
    def member_weights(self) -> list[float]:
        return [w for _, w in self.members]

    def to_dict(self) -> dict:
        return {
            "base_kind": self.base_kind,
            "n_estimators": self.n_estimators,
            "seed": self.seed,
            "base_params": self.base_params,
            "members": [
                {"weight": w, "model": m.to_dict()} for m, w in self.members
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AdaBoostR2":
        ensemble = cls(
            base_kind=doc["base_kind"],
            n_estimators=doc["n_estimators"],
            seed=doc["seed"],
            base_params=doc.get("base_params") or {},
        )
        base_cls = _BASES[ensemble.base_kind][0]
        ensemble.members = [
            (base_cls.from_dict(m["model"]), float(m["weight"])) for m in doc["members"]
        ]
        ensemble._stack_members()
        return ensemble
