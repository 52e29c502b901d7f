"""CART decision trees built from scratch: Gini splits for classification,
variance-reduction splits for regression, mean-payload leaves.

Both trees grow through one loop, `_TreeBase._grow`, over a list of trees
(a lone tree is a list of one). Each round pops one node from every tree
that has one left; a node stops on purity, too few rows or the depth limit,
and otherwise draws its candidate features from its tree's own generator,
is split, and pushes its left child before its right. So every tree keeps
the node ids and feature draws of its own depth-first order, as if it grew
alone. Each tree kind supplies only its node statistics (impurity and leaf
payload) and its split scorer, both called once per round for the round's
nodes.

The classifier's scorer, `_best_splits_classification`, scores all of a
round's nodes at once, so a forest's hundred trees cost a few dozen numpy
calls per round: nodes of a similar row count share one padded (nodes x
features x rows) block of integer keys, each a value's rank in its column
combined with the row's class, sorted row-wise in one call; class counts
left of every boundary are prefix sums of per-class planes. The regressor
scores its one node per round over a (features x rows) block, sorted
row-wise by a stable argsort, from prefix sums of the targets. Either way
the winner is the first minimal boundary within a feature and, across
features, the first minimal feature in candidate order, with the same
floats a per-feature loop computes.

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
# The batched Gini search holds at most _BLOCK_CELLS (node, feature, row,
# class) cells in one block, which bounds its memory at a few tens of MB;
# nodes of up to 2**_SMALLEST_BAND rows share one band.
_BLOCK_CELLS = 1 << 19
_SMALLEST_BAND = 4


def _validate_xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2:
        raise InputError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[1] == 0:
        raise InputError("X has no feature columns")
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
        if features_per_split is not None and features_per_split < 1:
            raise InputError("features_per_split must be >= 1")
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

    @staticmethod
    def _grow(trees: list["_TreeBase"], X: np.ndarray, rows: list, node_stats, best_splits) -> list:
        """Grow every tree of `trees` in lockstep, set their node arrays, and
        return each tree's list of leaf payloads (None for internal nodes).

        Tree t grows over the rows rows[t] of X, in that order. Each round
        pops one node from every tree that has one left. node_stats(nodes),
        for nodes [(t, idx), ...], gives each node's (impurity, leaf payload);
        best_splits(jobs), for jobs [(t, idx, features), ...], gives each
        job's (cost, position in features, threshold) or None. A tree draws
        candidate features from its own generator, only for nodes that do not
        stop, and pushes the left child before the right, so each tree's
        draws and node ids follow its own depth-first order exactly as if it
        grew alone.
        """
        d = X.shape[1]
        rngs = [np.random.default_rng(tree.seed) for tree in trees]
        payloads: list[list] = [[] for _ in trees]
        stacks = []
        for tree, tree_payloads, tree_rows in zip(trees, payloads, rows):
            # Nodes grow as lists; _set_nodes turns them into arrays at the end.
            tree.feature, tree.threshold, tree.left, tree.right = [], [], [], []
            stacks.append([(tree._new_node(tree_payloads), tree_rows, 0)])
        growing = list(range(len(trees)))
        while growing:
            popped = [stacks[t].pop() for t in growing]
            stats = node_stats([(t, idx) for t, (_node, idx, _depth) in zip(growing, popped)])
            jobs, splitting = [], []
            for t, (node, idx, depth), (impurity, payload) in zip(growing, popped, stats):
                tree = trees[t]
                if (
                    impurity == 0.0
                    or idx.size < 2 * tree.min_samples_leaf
                    or (tree.max_depth is not None and depth >= tree.max_depth)
                ):
                    payloads[t][node] = payload
                    continue
                jobs.append((t, idx, tree._candidate_features(rngs[t], d)))
                splitting.append((node, depth, payload))
            bests = best_splits(jobs)
            for (t, idx, features), (node, depth, payload), best in zip(jobs, splitting, bests):
                if best is None:
                    payloads[t][node] = payload
                    continue
                tree = trees[t]
                _cost, at, thr = best
                f = int(features[at])
                go_left = X[idx, f] < thr
                tree.feature[node] = f
                tree.threshold[node] = thr
                tree.left[node] = tree._new_node(payloads[t])
                tree.right[node] = tree._new_node(payloads[t])
                stacks[t].append((tree.left[node], idx[go_left], depth + 1))
                stacks[t].append((tree.right[node], idx[~go_left], depth + 1))
            growing = [t for t in growing if stacks[t]]
        for tree in trees:
            tree._set_nodes(tree.feature, tree.threshold, tree.left, tree.right)
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


def _column_ranks(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's rank among the distinct values of its column, and the
    value of each rank: (ranks, values), with ranks[f, i] the rank of row i
    in column f and values[f, r] the value of rank r. Equal values share a
    rank, -0.0 and 0.0 included, as they tie in a sort; a midpoint between
    a zero and any other value is the same float for either zero."""
    n, d = X.shape
    order = np.argsort(X, axis=0)
    xs = np.take_along_axis(X, order, axis=0)
    new = np.ones(xs.shape, dtype=bool)
    new[1:] = xs[1:] != xs[:-1]
    dense = np.cumsum(new, axis=0) - 1
    ranks = np.empty((d, n), dtype=np.intp)
    ranks[np.arange(d), order] = dense
    values = np.zeros((d, n))
    values[np.arange(d), dense] = xs
    return ranks, values


def _class_sum(terms: list) -> np.ndarray:
    """Sum per-class arrays in the order numpy's pairwise summation adds a
    contiguous axis of len(terms) values: one running sum below eight
    classes, eight interleaved ones up to 128, halves above. So each element
    is the float np.sum(..., axis=-1) gives for the same values side by side."""
    n = len(terms)
    if n < 8:
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total
    if n <= 128:
        stop = n - n % 8
        r = list(terms[:8])
        for i in range(8, stop, 8):
            r = [a + b for a, b in zip(r, terms[i : i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for term in terms[stop:]:
            total = total + term
        return total
    half = n // 2 - (n // 2) % 8
    return _class_sum(terms[:half]) + _class_sum(terms[half:])


def _best_splits_classification(columns, codes, n_classes, nodes, min_leaf) -> list:
    """Best Gini split of every node over its candidate features, or None.

    columns is _column_ranks(X); nodes lists (t, idx, features): the node's
    rows of X and its candidate columns; codes[t][i] is the class of row i
    of X in tree t, 0 to n_classes - 1. Nodes with as many candidates and a
    row count in the same power-of-two band share one padded block
    (_gini_block), so a round of a forest's growth costs a few dozen numpy
    calls, not a few dozen per node. Each result is the (cost, position in
    features, threshold) a per-node search over that node alone gives, to
    the bit.
    """
    groups: dict[tuple, list] = {}
    for at, (_t, idx, features) in enumerate(nodes):
        band = max((idx.size - 1).bit_length(), _SMALLEST_BAND)
        groups.setdefault((features.size, band), []).append(at)
    found = [None] * len(nodes)
    for (k, _band), members in groups.items():
        width = max(nodes[at][1].size for at in members)
        per_block = max(1, _BLOCK_CELLS // max(k * width * n_classes, 1))
        for start in range(0, len(members), per_block):
            block = members[start : start + per_block]
            scored = _gini_block(
                columns, codes, n_classes, [nodes[at] for at in block], width, min_leaf
            )
            for at, best in zip(block, scored):
                found[at] = best
    return found


def _gini_block(columns, codes, n_classes, nodes, width, min_leaf) -> list:
    """Score nodes as one (nodes x features x width) block.

    Each cell is the key rank * n_classes + class, so one integer sort per
    row orders a candidate's rows by value and carries their classes along.
    Rows past a node's count are padding, whose key sorts after every real
    one. Only the order within a run of equal values differs from a stable
    sort of the values, and no boundary inside a run is valid, so the class
    counts left of every valid boundary are the same. They are prefix sums
    of one plane per class but the last, whose count is the rest of n_left;
    every count is a whole number, so each is exact, and the Gini terms are
    summed in class order (_class_sum). Costs, first-minimum ties and
    midpoint thresholds are thus the floats of a per-node search. A boundary
    is valid between distinct values with min_leaf rows on each side.
    """
    ranks, values = columns
    n_rows = ranks.shape[1]
    sizes = np.array([idx.size for _t, idx, _f in nodes])
    real = np.arange(width) < sizes[:, None]
    rows = np.zeros(real.shape, dtype=np.intp)
    rows[real] = np.concatenate([idx for _t, idx, _f in nodes])
    features = np.array([f for _t, _idx, f in nodes])
    trees = np.array([t for t, _idx, _f in nodes])
    keys = np.take(ranks, features[:, :, None] * n_rows + rows[:, None, :])
    keys *= n_classes
    keys += codes[trees[:, None], rows][:, None, :]
    # Padding: a rank past every real one, in the last class, which no plane counts.
    np.copyto(keys, n_rows * n_classes + n_classes - 1, where=~real[:, None, :])
    keys.sort(axis=2)
    ranked, classes = np.divmod(keys, n_classes)
    planes = classes == np.arange(n_classes - 1)[:, None, None, None]
    counts = np.cumsum(planes, axis=3, dtype=np.float64)
    left = counts[..., :-1]  # split after sorted position i
    right = counts[..., -1:] - left
    n = sizes[:, None, None]
    n_left = np.arange(1, width, dtype=np.float64)
    n_right = n - n_left
    last_left = n_left - _class_sum(list(left))
    last_right = n_right - _class_sum(list(right))
    # Past a node's last row n_right is 0 or less; no boundary there is valid.
    right_div = np.maximum(n_right, 1.0)
    gini_left = _gini_sum([*left, last_left], n_left)
    gini_right = _gini_sum([*right, last_right], right_div)
    gini_left *= n_left
    gini_right *= n_right
    cost = gini_left
    cost += gini_right
    cost /= n
    valid = ranked[..., :-1] < ranked[..., 1:]
    valid &= (n_left >= min_leaf) & (n_right >= max(min_leaf, 1))
    cost[~valid] = np.inf
    at = np.argmin(cost, axis=2)
    per_feature = np.take_along_axis(cost, at[..., None], axis=2)[..., 0]
    f = np.argmin(per_feature, axis=1)
    node = np.arange(len(nodes))
    best, i = per_feature[node, f], at[node, f]
    column = features[node, f]
    thr = (values[column, ranked[node, f, i]] + values[column, ranked[node, f, i + 1]]) / 2.0
    return [
        None if b == np.inf else (b, at_f, t)
        for b, at_f, t in zip(best.tolist(), f.tolist(), thr.tolist())
    ]


def _gini_sum(counts: list, n_side: np.ndarray) -> np.ndarray:
    """1 - sum over classes of (count / n_side) ** 2, per boundary."""
    terms = []
    for count in counts:
        term = count / n_side
        terms.append(np.square(term, out=term))
    total = _class_sum(terms)
    return np.subtract(1.0, total, out=total)


def _best_split_regression(columns, idx, features, y, min_leaf):
    """Best variance-reduction split of rows idx over the candidate features:
    (cost, position in features, threshold), or None; columns is
    _column_ranks(X).

    The node's rows are put in value order for each candidate column, the
    order a stable argsort of the values gives, as a (features x rows)
    block. The keys rank * rows + position are distinct, so one integer sort
    gives the stable order, which matters because float prefix sums over
    tied rows depend on it. A boundary after sorted position i is valid
    between distinct values with min_leaf rows each side, and its threshold
    is their midpoint.
    """
    ranks, values = columns
    n = idx.size
    keys = ranks[features[:, None], idx] * n
    keys += np.arange(n)
    keys.sort(axis=1)
    ranked, order = np.divmod(keys, n)
    ys = y[order]
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
    valid = (ranked[:, :-1] < ranked[:, 1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    cost = np.where(valid, cost, np.inf)
    at = np.argmin(cost, axis=1)
    per_feature = cost[np.arange(cost.shape[0]), at]
    f = int(np.argmin(per_feature))
    if per_feature[f] == np.inf:
        return None
    i = at[f]
    column = values[features[f]]
    return float(per_feature[f]), f, float((column[ranked[f, i]] + column[ranked[f, i + 1]]) / 2.0)


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
        _fit_classifiers([self], X, y, [np.arange(X.shape[0])])
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


def _fit_classifiers(trees: list["DecisionTreeClassifier"], X, y, rows: list) -> None:
    """Fit trees[t] on the rows rows[t] of X and y, in that order. A tree
    knows only the classes its rows hold, and its Gini terms run over those,
    so trees with the same number of classes grow in lockstep, one batched
    split search per round. The trees share max_depth, min_samples_leaf and
    features_per_split."""
    for tree, tree_rows in zip(trees, rows):
        tree.classes_ = np.unique(y[tree_rows])
    columns = _column_ranks(X)
    by_count: dict[int, list[int]] = {}
    for t, tree in enumerate(trees):
        by_count.setdefault(tree.classes_.size, []).append(t)
    for n_classes, members in by_count.items():
        group = [trees[t] for t in members]
        # codes[i][r]: the class of row r in group[i], for the rows it holds.
        codes = np.stack([np.searchsorted(tree.classes_, y) for tree in group])

        def gini_and_counts(nodes):
            sizes = np.array([idx.size for _i, idx in nodes])
            labels = codes[
                np.repeat([i for i, _idx in nodes], sizes),
                np.concatenate([idx for _i, idx in nodes]),
            ]
            cells = np.repeat(np.arange(len(nodes)) * n_classes, sizes) + labels
            counts = np.bincount(cells, minlength=len(nodes) * n_classes)
            counts = counts.reshape(len(nodes), n_classes).astype(np.float64)
            gini = 1.0 - np.sum((counts / sizes[:, None]) ** 2, axis=1)
            return zip(gini.tolist(), counts)

        def best_splits(jobs):
            return _best_splits_classification(
                columns, codes, n_classes, jobs, group[0].min_samples_leaf
            )

        payloads = _TreeBase._grow(
            group, X, [rows[t] for t in members], gini_and_counts, best_splits
        )
        for tree, leaf_counts in zip(group, payloads):
            tree.leaf_counts = leaf_counts
            tree._leaf_proba = tree._proba_table()


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

        columns = _column_ranks(X)

        def variance_and_mean(nodes):
            # The arithmetic of target.var() and target.mean(), without
            # their per-call overhead.
            for _t, idx in nodes:
                target = y[idx]
                mean = target.sum() / idx.size
                deviation = target - mean
                yield float((deviation * deviation).sum() / idx.size), float(mean)

        def best_splits(jobs):
            return [
                _best_split_regression(columns, idx, features, y[idx], self.min_samples_leaf)
                for _t, idx, features in jobs
            ]

        (self.leaf_values,) = self._grow([self], X, [np.arange(n)], variance_and_mean, best_splits)
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
