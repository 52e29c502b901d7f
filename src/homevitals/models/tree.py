"""CART decision trees built from scratch: Gini splits for classification,
variance-reduction splits for regression, mean-payload leaves.

Both trees grow through one loop, `_TreeBase._grow`: it pops nodes depth
first, stops on a pure node, too few rows or the depth limit, draws the
node's candidate features, splits, and pushes the left child before the
right. Each tree supplies only its node statistics (impurity and leaf
payload) and its split scorer.

Split search is vectorized across a node's candidate features: their values
form one (features x rows) block, sorted row-wise by a single argsort, and
every boundary between distinct values of every candidate is scored from
prefix sums along the rows. The winner is the first minimal boundary within a
feature and, across features, the first minimal feature in candidate order,
exactly as a per-feature loop would choose, so training stays fast enough for
hundred-tree forests and boosting.

Prediction goes through one router, `_NodeTable.route`. A tree is a node
table of one tree: `fit` and `from_dict` build its `feature`, `threshold`,
`left` and `right` numpy arrays and its leaf payload once. Forests and
boosted ensembles stack their trees into one table (`_NodeTable.stack`) and
route every (row, tree) pair in one pass, level by level.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateTraining, FormatError, InputError

_LEAF = -1


def _validate_xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise InputError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise InputError(f"y length {y.shape} does not match {X.shape[0]} rows")
    if X.size and not np.all(np.isfinite(X)):
        raise InputError("X contains NaN or Inf")
    return X, y


def _document_classes(values: list[float]) -> np.ndarray:
    """Class labels read back from a model document, which writes them as
    floats: int64 when every label is a whole number, as the integer labels
    classifiers are fitted with, so predict keeps its dtype; else float64."""
    classes = np.asarray(values, dtype=np.float64)
    if np.all(np.isfinite(classes) & (classes == np.round(classes))):
        return classes.astype(np.int64)
    return classes


class _NodeTable:
    """The nodes of one or more trees as flat arrays: the split feature
    (_LEAF at a leaf), the threshold, and the table ids of the left and right
    children. Tree t starts at node roots[t]."""

    def _set_nodes(self, feature, threshold, left, right, roots=(0,)) -> None:
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.roots = np.asarray(roots, dtype=np.int64)
        # The fewest columns X can have: one past the highest split feature.
        self.n_columns = int(self.feature.max(initial=_LEAF)) + 1
        # The router's copy, in which a leaf tests column 0 and has itself as
        # both children, so a pair that reaches a leaf stays there.
        leaf = self.feature == _LEAF
        ids = np.arange(leaf.size)
        self._test = np.where(leaf, 0, self.feature)
        self._if_below = np.where(leaf, ids, self.left)
        self._if_not_below = np.where(leaf, ids, self.right)
        self._depth, level = 0, self.roots[~leaf[self.roots]]
        while level.size:
            self._depth += 1
            level = np.concatenate((self.left[level], self.right[level]))
            level = level[~leaf[level]]

    @staticmethod
    def stack(trees: list["_NodeTable"]) -> "_NodeTable":
        """One table holding every tree's nodes, in order, children re-indexed.
        A leaf's children are never read, so they are shifted like the rest."""
        sizes = [tree.feature.size for tree in trees]
        offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1]
        table = _NodeTable()
        table._set_nodes(
            np.concatenate([tree.feature for tree in trees]),
            np.concatenate([tree.threshold for tree in trees]),
            np.concatenate([tree.left + at for tree, at in zip(trees, offsets)]),
            np.concatenate([tree.right + at for tree, at in zip(trees, offsets)]),
            roots=offsets,
        )
        return table

    def route(self, X: np.ndarray) -> np.ndarray:
        """The leaf id of every (row, tree) pair, shape (rows, trees).

        All pairs start at their tree's root and step down one level per pass,
        as many passes as the deepest leaf needs. A row goes left where its
        value is below the threshold, so NaN goes right at every node.
        """
        if X.ndim != 2:
            raise InputError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[1] < self.n_columns:
            raise InputError(
                f"X has {X.shape[1]} columns; the trees split on column {self.n_columns - 1}"
            )
        n_rows, n_trees = X.shape[0], self.roots.size
        node = np.tile(self.roots, n_rows)
        # Where each pair's row starts in X read as one flat C-order array.
        row_start = np.repeat(np.arange(n_rows) * X.shape[1], n_trees)
        values = np.ravel(X)
        for _ in range(self._depth):
            below = values[row_start + self._test[node]] < self.threshold[node]
            node = np.where(below, self._if_below[node], self._if_not_below[node])
        return node.reshape(n_rows, n_trees)


class _TreeBase(_NodeTable):
    """Shared structure: growth, and the node table of one tree."""

    def __init__(self, max_depth=None, min_samples_leaf=1, features_per_split=None, seed=0):
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)
        self.features_per_split = features_per_split
        self.seed = seed
        self._set_nodes([], [], [], [], roots=[])

    def _new_node(self, payloads: list) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        payloads.append(None)
        return len(self.feature) - 1

    def _candidate_features(self, rng: np.random.Generator, d: int) -> np.ndarray:
        k = self.features_per_split
        if k is None or k >= d:
            return np.arange(d)
        return rng.choice(d, size=k, replace=False)

    def _grow(self, X: np.ndarray, node_stats, best_split) -> list:
        """Grow the tree over every row of X, set its node arrays, and return
        each node's leaf payload (None for internal nodes).

        node_stats(idx) gives (impurity, leaf payload) for the rows idx, and
        best_split(idx, features) gives (cost, position in features,
        threshold) or None. Features are drawn only for nodes that do not
        stop, so the seed's draws follow the depth-first order exactly.
        """
        rng = np.random.default_rng(self.seed)
        # Nodes grow as lists; _set_nodes turns them into arrays at the end.
        self.feature, self.threshold, self.left, self.right = [], [], [], []
        payloads: list = []
        stack = [(self._new_node(payloads), np.arange(X.shape[0]), 0)]
        while stack:
            node, idx, depth = stack.pop()
            impurity, payload = node_stats(idx)
            stop = (
                impurity == 0.0
                or idx.size < 2 * self.min_samples_leaf
                or (self.max_depth is not None and depth >= self.max_depth)
            )
            best = None
            if not stop:
                features = self._candidate_features(rng, X.shape[1])
                best = best_split(idx, features)
            if best is None:
                payloads[node] = payload
                continue
            _cost, at, thr = best
            f = int(features[at])
            go_left = X[idx, f] < thr
            self.feature[node] = f
            self.threshold[node] = thr
            self.left[node] = self._new_node(payloads)
            self.right[node] = self._new_node(payloads)
            stack.append((self.left[node], idx[go_left], depth + 1))
            stack.append((self.right[node], idx[~go_left], depth + 1))
        self._set_nodes(self.feature, self.threshold, self.left, self.right)
        return payloads

    def _leaf_ids(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id for every row: the router's one-tree case."""
        return self.route(X)[:, 0]

    def _split_structure(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
        }

    def _load_structure(self, doc: dict, payload_key: str) -> list:
        """Set the node arrays from a tree document and return its per-node
        leaf payloads. A document whose nodes do not form a tree raises
        FormatError: each list needs one entry per node, a feature is -1 (a
        leaf) or a column, and a split's children come after it in the table,
        which also keeps routing from cycling. A missing key or a
        non-numeric entry raises what indexing or numpy raises, which
        load_document reports as a FormatError."""
        keys = ("feature", "threshold", "left", "right", payload_key)
        n = len(doc["feature"])
        if n == 0 or any(len(doc[key]) != n for key in keys):
            raise FormatError(f"tree document lists {keys} must have one entry per node")
        feature, left, right = (
            np.asarray(doc[key], dtype=np.int64) for key in ("feature", "left", "right")
        )
        threshold = np.asarray(doc["threshold"], dtype=np.float64)
        if np.any(feature < _LEAF):
            raise FormatError("tree document has a split feature below -1")
        splits = np.flatnonzero(feature != _LEAF)
        for child in (left[splits], right[splits]):
            if np.any((child <= splits) | (child >= n)):
                raise FormatError("tree document has a split whose child id is not after it")
        self._set_nodes(feature, threshold, left, right)
        return doc[payload_key]


def _sorted_block(X: np.ndarray, idx: np.ndarray, features: np.ndarray):
    """Candidate columns of the node's rows as a (features x rows) block,
    each row sorted; returns (sort order, sorted values). The sort is stable
    because float prefix sums over tied rows depend on their order."""
    block = X[np.ix_(idx, features)].T
    order = np.argsort(block, axis=1, kind="stable")
    return order, np.take_along_axis(block, order, axis=1)


def _pick_split(cost, xs, min_leaf):
    """Return (cost, row of xs, threshold) for the lowest-cost valid boundary.

    cost[f, i] scores splitting feature row f after sorted position i; a
    boundary is valid between distinct values with min_leaf rows each side.
    """
    n = xs.shape[1]
    n_left = np.arange(1, n)
    valid = (xs[:, :-1] < xs[:, 1:]) & (n_left >= min_leaf) & (n - n_left >= min_leaf)
    cost = np.where(valid, cost, np.inf)
    at = np.argmin(cost, axis=1)
    per_feature = cost[np.arange(cost.shape[0]), at]
    f = int(np.argmin(per_feature))
    if per_feature[f] == np.inf:
        return None
    i = at[f]
    return float(per_feature[f]), f, float((xs[f, i] + xs[f, i + 1]) / 2.0)


def _best_split_classification(X, idx, features, onehot, min_leaf):
    """Best Gini split of rows idx over the candidate features, or None."""
    order, xs = _sorted_block(X, idx, features)
    n = idx.size
    counts_left = np.cumsum(onehot[order], axis=1)[:, :-1]  # split after position i
    counts_right = onehot.sum(axis=0) - counts_left
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    gini_left = 1.0 - np.sum((counts_left / n_left[:, None]) ** 2, axis=2)
    gini_right = 1.0 - np.sum((counts_right / n_right[:, None]) ** 2, axis=2)
    cost = (n_left * gini_left + n_right * gini_right) / n
    return _pick_split(cost, xs, min_leaf)


def _best_split_regression(X, idx, features, y, min_leaf):
    """Best variance-reduction split of rows idx over the candidate features, or None."""
    order, xs = _sorted_block(X, idx, features)
    ys = y[order]
    n = idx.size
    s = np.cumsum(ys, axis=1)[:, :-1]
    s2 = np.cumsum(ys**2, axis=1)[:, :-1]
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    # Row sums of C-contiguous rows: the same pairwise summation as a 1-D sum.
    total = ys.sum(axis=1)[:, None]
    total2 = (ys**2).sum(axis=1)[:, None]
    sse_left = s2 - s**2 / n_left
    sse_right = (total2 - s2) - (total - s) ** 2 / n_right
    cost = (sse_left + sse_right) / n
    return _pick_split(cost, xs, min_leaf)


class DecisionTreeClassifier(_TreeBase):
    """Binary-or-multiclass CART with Gini splits and class-count leaves."""

    def __init__(self, max_depth=None, min_samples_leaf=1, features_per_split=None, seed=0):
        super().__init__(max_depth, min_samples_leaf, features_per_split, seed)
        self.classes_: np.ndarray | None = None
        self.leaf_counts: list[np.ndarray | None] = []
        self._leaf_proba: np.ndarray | None = None

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = _validate_xy(X, y)
        if X.shape[0] == 0:
            raise DegenerateTraining("empty training set")
        self.classes_ = np.unique(y)
        onehot = np.zeros((X.shape[0], len(self.classes_)))
        onehot[np.arange(X.shape[0]), np.searchsorted(self.classes_, y)] = 1.0

        def gini_and_counts(idx):
            counts = onehot[idx].sum(axis=0)
            return 1.0 - np.sum((counts / idx.size) ** 2), counts

        def best_split(idx, features):
            return _best_split_classification(
                X, idx, features, onehot[idx], self.min_samples_leaf
            )

        self.leaf_counts = self._grow(X, gini_and_counts, best_split)
        self._leaf_proba = self._proba_table()
        return self

    def _proba_table(self) -> np.ndarray:
        """Class probabilities per node (zero rows for internal nodes)."""
        table = np.zeros((len(self.leaf_counts), len(self.classes_)))
        for node, counts in enumerate(self.leaf_counts):
            if counts is not None:
                table[node] = counts / counts.sum()
        return table

    def predict_proba(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self._leaf_proba[self._leaf_ids(X)]

    def predict(self, X) -> np.ndarray:
        proba = self.predict_proba(X)
        # Ties break to the first (lowest) class.
        return self.classes_[np.argmax(proba, axis=1)]

    def to_dict(self) -> dict:
        doc = self._split_structure()
        doc["classes"] = [float(c) for c in self.classes_]
        doc["leaf_counts"] = [
            None if c is None else [float(v) for v in c] for c in self.leaf_counts
        ]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "DecisionTreeClassifier":
        tree = cls()
        leaf_counts = tree._load_structure(doc, "leaf_counts")
        tree.classes_ = _document_classes(doc["classes"])
        tree.leaf_counts = [
            None if c is None else np.asarray(c, dtype=np.float64) for c in leaf_counts
        ]
        tree._leaf_proba = tree._proba_table()
        return tree


class DecisionTreeRegressor(_TreeBase):
    """CART regressor: splits minimize within-child variance, leaves predict means."""

    def __init__(self, max_depth=None, min_samples_leaf=1, features_per_split=None, seed=0):
        super().__init__(max_depth, min_samples_leaf, features_per_split, seed)
        self.leaf_values: list[float | None] = []
        self._leaf_value: np.ndarray | None = None

    def fit(self, X, y) -> "DecisionTreeRegressor":
        X, y = _validate_xy(X, y)
        y = y.astype(np.float64)
        n = X.shape[0]
        if n == 0:
            raise DegenerateTraining("empty training set")
        if n < self.min_samples_leaf:
            raise DegenerateTraining(
                f"{n} rows cannot satisfy min_samples_leaf={self.min_samples_leaf}"
            )

        def variance_and_mean(idx):
            target = y[idx]
            return float(target.var()), float(target.mean())

        def best_split(idx, features):
            return _best_split_regression(X, idx, features, y[idx], self.min_samples_leaf)

        self.leaf_values = self._grow(X, variance_and_mean, best_split)
        self._leaf_value = self._value_table()
        return self

    def _value_table(self) -> np.ndarray:
        """Leaf mean per node (zero for internal nodes)."""
        return np.asarray([0.0 if v is None else v for v in self.leaf_values], dtype=np.float64)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return self._leaf_value[self._leaf_ids(X)]

    def to_dict(self) -> dict:
        doc = self._split_structure()
        doc["leaf_values"] = [None if v is None else float(v) for v in self.leaf_values]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "DecisionTreeRegressor":
        tree = cls()
        leaf_values = tree._load_structure(doc, "leaf_values")
        tree.leaf_values = [None if v is None else float(v) for v in leaf_values]
        tree._leaf_value = tree._value_table()
        return tree
