"""Random forest classifier over the from-scratch CART trees.

Each tree trains on a bootstrap resample with ceil(sqrt(d)) candidate
features per split; the forest probability is the fraction of tree votes and
class ties break to the lowest class (not-stressed in the stress pipeline).

`fit` draws every tree's bootstrap and seed first, then grows all trees in
lockstep (`tree._fit_classifiers`): one node per tree per round and one
batched Gini split search per round, which gives each tree exactly the nodes
it would get grown alone.

`fit` and `from_dict` stack the trees into one node table whose leaves hold
the forest column of the class their tree predicts there, so a prediction is
one routing pass over all trees followed by an integer vote count.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateTraining, InputError
from .tree import (
    DecisionTreeClassifier,
    _document_classes,
    _fit_classifiers,
    _NodeTable,
    _validate_xy,
)


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
        if features_per_split is not None and features_per_split < 1:
            raise InputError("features_per_split must be >= 1")
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
            if np.unique(y[boot]).size < 2:
                # Degenerate bootstrap: retry once with a reshuffle, else accept
                # the constant tree (its vote is still well defined).
                boot = rng.integers(0, n, size=n)
            self.trees.append(tree)
            self.bootstrap_indices.append(boot)
        _fit_classifiers(self.trees, X, y, self.bootstrap_indices)
        self._stack_trees()
        return self

    def _stack_trees(self) -> None:
        """Build the stacked node table. A leaf's vote is the first maximum of
        its tree's leaf probabilities, as DecisionTreeClassifier.predict takes
        it; a tree fit on a one-class resample knows only that class, so
        searchsorted finds its column among the forest's."""
        self._nodes = _NodeTable.stack(self.trees)
        self._vote_column = np.concatenate([
            np.searchsorted(self.classes_, tree.classes_[np.argmax(tree._leaf_proba, axis=1)])
            for tree in self.trees
        ])

    def _votes(self, X) -> np.ndarray:
        """votes[i, k]: number of trees voting for class k on row i."""
        X = np.asarray(X, dtype=np.float64)
        columns = self._vote_column[self._nodes.route(X)]  # (rows, trees)
        n_rows, n_classes = columns.shape[0], len(self.classes_)
        cells = np.arange(n_rows)[:, None] * n_classes + columns
        return np.bincount(cells.ravel(), minlength=n_rows * n_classes).reshape(n_rows, n_classes)

    def predict_proba(self, X) -> np.ndarray:
        """Per-row fraction of tree votes, columns ordered by self.classes_."""
        return self._votes(X) / self.n_trees

    def predict(self, X) -> np.ndarray:
        votes = self._votes(X)
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
        forest.classes_ = _document_classes(doc["classes"])
        forest.trees = [DecisionTreeClassifier.from_dict(t) for t in doc["trees"]]
        forest._stack_trees()
        return forest
