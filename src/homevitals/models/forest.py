"""Random forest classifier over the from-scratch CART trees.

Each tree trains on a bootstrap resample with ceil(sqrt(d)) candidate
features per split; the forest probability is the fraction of tree votes and
class ties break to the lowest class (not-stressed in the stress pipeline).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateTraining, InputError
from .tree import DecisionTreeClassifier, _validate_xy


class RandomForestClassifier:
    def __init__(
        self,
        n_trees: int = 100,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        features_per_split: int | None = None,
        seed: int = 0,
    ):
        if n_trees < 1:
            raise InputError("n_trees must be >= 1")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.features_per_split = features_per_split
        self.seed = seed
        self.trees: list[DecisionTreeClassifier] = []
        self.bootstrap_indices: list[np.ndarray] = []
        self.classes_: np.ndarray | None = None

    def fit(self, X, y) -> "RandomForestClassifier":
        X, y = _validate_xy(X, y)
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise DegenerateTraining("training labels contain a single class")
        n, d = X.shape
        mtry = self.features_per_split or math.ceil(math.sqrt(d))
        seeds = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self.trees = []
        self.bootstrap_indices = []
        for tree_seed in seeds:
            rng = np.random.default_rng(tree_seed)
            boot = rng.integers(0, n, size=n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                features_per_split=mtry,
                seed=rng.integers(0, 2**31 - 1),
            )
            yb = y[boot]
            if np.unique(yb).size < 2:
                # Degenerate bootstrap: retry once with a reshuffle, else accept
                # the constant tree (its vote is still well defined).
                boot = rng.integers(0, n, size=n)
                yb = y[boot]
            tree.fit(X[boot], yb)
            self.trees.append(tree)
            self.bootstrap_indices.append(boot)
        return self

    def _vote_matrix(self, X: np.ndarray) -> np.ndarray:
        """votes[i, k]: number of trees predicting class k for row i.

        A tree fit on a one-class resample predicts only that class;
        searchsorted finds that class's column among the forest's."""
        X = np.asarray(X, dtype=np.float64)
        votes = np.zeros((X.shape[0], len(self.classes_)))
        for tree in self.trees:
            pred = tree.predict(X)
            cols = np.searchsorted(self.classes_, pred)
            votes[np.arange(X.shape[0]), cols] += 1.0
        return votes

    def predict_proba(self, X) -> np.ndarray:
        """Per-row fraction of tree votes, columns ordered by self.classes_."""
        return self._vote_matrix(X) / self.n_trees

    def predict(self, X) -> np.ndarray:
        votes = self._vote_matrix(X)
        # argmax takes the first maximum, so ties go to the lowest class.
        return self.classes_[np.argmax(votes, axis=1)]

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "features_per_split": self.features_per_split,
            "seed": self.seed,
            "classes": [float(c) for c in self.classes_],
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RandomForestClassifier":
        forest = cls(
            n_trees=doc["n_trees"],
            max_depth=doc["max_depth"],
            min_samples_leaf=doc["min_samples_leaf"],
            features_per_split=doc["features_per_split"],
            seed=doc["seed"],
        )
        forest.classes_ = np.asarray(doc["classes"])
        forest.trees = [DecisionTreeClassifier.from_dict(t) for t in doc["trees"]]
        return forest
