"""CART and random-forest behavior, including a brute-force split oracle."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import reference_leaf_ids
from homevitals.errors import DegenerateTraining, InputError
from homevitals.models import (
    AdaBoostR2,
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    MlpRegressor,
    RandomForestClassifier,
    dumps_model,
    load_document,
)
from homevitals.models.tree import (
    _best_split_regression,
    _best_splits_classification,
    _class_sum,
    _column_ranks,
)


def reference_split(X, idx, features, score):
    """Per-feature loop: the first minimal boundary within a feature, then the
    first minimal feature in candidate order. Returns (cost, position, thr)."""
    best = None
    for at, f in enumerate(features):
        found = score(X[idx, f])
        if found and (best is None or found[0] < best[0]):
            best = (found[0], at, found[1])
    return best


def reference_gini(x, onehot, min_leaf):
    order = np.argsort(x, kind="stable")
    xs = x[order]
    n = x.size
    counts_left = np.cumsum(onehot[order], axis=0)[:-1]
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    counts_right = counts_left[-1] + onehot[order][-1] - counts_left
    gini_left = 1.0 - np.sum((counts_left / n_left[:, None]) ** 2, axis=1)
    gini_right = 1.0 - np.sum((counts_right / n_right[:, None]) ** 2, axis=1)
    cost = (n_left * gini_left + n_right * gini_right) / n
    valid = (xs[:-1] < xs[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    cost = np.where(valid, cost, np.inf)
    i = int(np.argmin(cost))
    return float(cost[i]), float((xs[i] + xs[i + 1]) / 2.0)


def reference_variance(x, y, min_leaf):
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    n = x.size
    s = np.cumsum(ys)[:-1]
    s2 = np.cumsum(ys**2)[:-1]
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    total, total2 = ys.sum(), (ys**2).sum()
    sse_left = s2 - s**2 / n_left
    sse_right = (total2 - s2) - (total - s) ** 2 / n_right
    cost = (sse_left + sse_right) / n
    valid = (xs[:-1] < xs[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    cost = np.where(valid, cost, np.inf)
    i = int(np.argmin(cost))
    return float(cost[i]), float((xs[i] + xs[i + 1]) / 2.0)


def split_cases(n_cases):
    """Tied feature values, leaf minima above one, and candidate subsets in
    random order, as features_per_split draws them."""
    for case in range(n_cases):
        rng = np.random.default_rng(case)
        n = int(rng.integers(2, 120))
        d = int(rng.integers(1, 9))
        X = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 2)))
        idx = np.sort(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False))
        k = int(rng.integers(1, d + 1))
        features = rng.choice(d, size=k, replace=False)
        yield rng, X, idx, features, int(rng.choice([1, 2, 5]))


def digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def brute_force_best_accuracy(X, y):
    """Exhaustive axis-aligned stump search on tiny instances."""
    best = np.mean(y == np.bincount(y).argmax())
    n, d = X.shape
    for f in range(d):
        for thr in np.unique(X[:, f]):
            for left_class in (0, 1):
                pred = np.where(X[:, f] < thr, left_class, 1 - left_class)
                best = max(best, np.mean(pred == y))
    return best


class TestDecisionTreeClassifier:
    def test_memorizes_distinct_rows(self, rng):
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        tree = DecisionTreeClassifier().fit(X, y)
        assert np.array_equal(tree.predict(X), y)

    def test_monotone_feature_transform_invariance(self):
        # Threshold splits only see order, so a strictly monotone rescaling of
        # any feature leaves the induced partition unchanged. Probe points use
        # coordinates drawn from the training values: midpoint thresholds are
        # only order-equivalent at points that never fall strictly between a
        # straddling pair of training values.
        for trial in range(10):
            trial_rng = np.random.default_rng(trial)
            X = trial_rng.normal(size=(8, 2))
            y = trial_rng.integers(0, 2, size=8)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            mix = trial_rng.integers(0, 8, size=(12, 2))
            X_probe = np.column_stack([X[mix[:, 0], 0], X[mix[:, 1], 1]])
            tree = DecisionTreeClassifier(seed=5).fit(X, y)
            base_train = tree.predict(X)
            base_probe = tree.predict(X_probe)

            def transform(M):
                out = M.copy()
                out[:, 0] = np.exp(out[:, 0])
                out[:, 1] = out[:, 1] ** 3 + 2.0
                return out

            tree_t = DecisionTreeClassifier(seed=5).fit(transform(X), y)
            assert np.array_equal(tree_t.predict(transform(X)), base_train)
            assert np.array_equal(tree_t.predict(transform(X_probe)), base_probe)

    def test_matches_exhaustive_stump_on_depth_one(self):
        # A depth-1 tree must achieve the best single-split training accuracy.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(8, 2))
            y = rng.integers(0, 2, size=8)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            tree = DecisionTreeClassifier(max_depth=1).fit(X, y)
            acc = np.mean(tree.predict(X) == y)
            assert acc == pytest.approx(brute_force_best_accuracy(X, y)), seed

    def test_single_class_prediction_constant(self):
        X = np.arange(10.0).reshape(-1, 1)
        tree = DecisionTreeClassifier().fit(X, np.zeros(10, dtype=int))
        assert np.all(tree.predict(X) == 0)

    def test_round_trip_serialization(self, rng):
        X = rng.normal(size=(30, 4))
        y = (X[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        clone = DecisionTreeClassifier.from_dict(tree.to_dict())
        probe = rng.normal(size=(15, 4))
        assert np.array_equal(tree.predict(probe), clone.predict(probe))


@pytest.mark.parametrize("cls", [DecisionTreeClassifier, RandomForestClassifier])
def test_loaded_classifier_predicts_the_fitted_labels_and_dtype(cls, rng):
    # Documents write classes as floats; a loaded classifier still returns the
    # int64 labels it was fitted with, and its document bytes do not move.
    X = np.round(rng.normal(size=(60, 4)), 1)
    y = (X[:, 0] > 0).astype(np.int64) + 2 * (X[:, 1] > 0.5)
    params = {"n_trees": 5} if cls is RandomForestClassifier else {"max_depth": 4}
    model = cls(seed=3, **params).fit(X, y)
    clone = cls.from_dict(json.loads(json.dumps(model.to_dict())))
    probe = np.vstack([X, rng.normal(size=(20, 4))])
    fitted, loaded = model.predict(probe), clone.predict(probe)
    assert fitted.dtype == loaded.dtype == np.int64
    assert loaded.tobytes() == fitted.tobytes()
    assert clone.predict_proba(probe).tobytes() == model.predict_proba(probe).tobytes()
    assert digest(clone.to_dict()) == digest(model.to_dict())


def test_loaded_classifier_keeps_fractional_classes_as_floats(rng):
    X = rng.normal(size=(30, 2))
    y = np.where(X[:, 0] > 0, 0.5, 1.5)
    tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
    clone = DecisionTreeClassifier.from_dict(tree.to_dict())
    assert clone.predict(X).dtype == np.float64
    assert clone.predict(X).tobytes() == tree.predict(X).tobytes()


class TestDecisionTreeRegressor:
    def test_constant_target(self, rng):
        X = rng.normal(size=(20, 2))
        tree = DecisionTreeRegressor().fit(X, np.full(20, 7.5))
        assert np.allclose(tree.predict(X), 7.5)

    def test_depth_zero_predicts_global_mean(self, rng):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        tree = DecisionTreeRegressor(max_depth=0).fit(X, y)
        assert np.allclose(tree.predict(X), y.mean())

    def test_step_function_split_recovered(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = np.where(X[:, 0] < 0.6, 1.0, 5.0)
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        split = tree.threshold[0]
        gap = X[1, 0] - X[0, 0]
        assert abs(split - 0.6) <= gap
        assert np.allclose(tree.predict(X), y)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateTraining):
            DecisionTreeRegressor().fit(np.empty((0, 2)), np.empty(0))


class TestRandomForest:
    def test_separable_data_generalizes(self, rng):
        X = rng.normal(size=(200, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        X_test = rng.normal(size=(100, 2))
        y_test = (X_test[:, 0] + X_test[:, 1] > 0).astype(int)
        forest = RandomForestClassifier(n_trees=30, seed=1).fit(X, y)
        assert np.mean(forest.predict(X_test) == y_test) >= 0.93

    def test_linearly_separable_single_feature_perfect(self, rng):
        X = np.vstack([rng.uniform(0, 1, size=(50, 2)), rng.uniform(2, 3, size=(50, 2))])
        y = np.repeat([0, 1], 50)
        forest = RandomForestClassifier(n_trees=15, seed=0).fit(X, y)
        probe = np.vstack([rng.uniform(0, 1, size=(20, 2)), rng.uniform(2, 3, size=(20, 2))])
        assert np.array_equal(forest.predict(probe), np.repeat([0, 1], 20))

    def test_label_noise_accuracy_near_chance(self):
        accs = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(160, 4))
            y = rng.integers(0, 2, size=160)
            forest = RandomForestClassifier(n_trees=10, max_depth=4, seed=seed)
            forest.fit(X[:120], y[:120])
            accs.append(np.mean(forest.predict(X[120:]) == y[120:]))
        assert 0.4 <= np.mean(accs) <= 0.6

    def test_single_tree_memorizes_bootstrap(self, rng):
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        forest = RandomForestClassifier(n_trees=1, seed=3).fit(X, y)
        boot = forest.bootstrap_indices[0]
        assert np.array_equal(forest.predict(X[boot]), y[boot])

    def test_proba_is_vote_fraction(self, rng):
        X = rng.normal(size=(80, 2))
        y = (X[:, 0] > 0).astype(int)
        forest = RandomForestClassifier(n_trees=7, seed=2).fit(X, y)
        proba = forest.predict_proba(X)
        assert proba.shape == (80, 2)
        votes = proba * 7
        assert np.allclose(votes, np.rint(votes))
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_single_class_rejected(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(DegenerateTraining):
            RandomForestClassifier(n_trees=3).fit(X, np.zeros(10, dtype=int))

    def test_deterministic_under_seed(self, rng):
        X = rng.normal(size=(100, 3))
        y = (X[:, 1] > 0.2).astype(int)
        a = RandomForestClassifier(n_trees=9, seed=11).fit(X, y)
        b = RandomForestClassifier(n_trees=9, seed=11).fit(X, y)
        assert a.to_dict() == b.to_dict()


class TestSplitSearch:
    def test_classification_matches_per_feature_reference(self):
        # Nodes of different sizes and candidate counts, from two trees that
        # code the classes differently, scored in one call as a round of
        # lockstep growth scores them.
        for case in range(150):
            rng = np.random.default_rng(case)
            n, d = int(rng.integers(2, 120)), int(rng.integers(1, 9))
            X = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 2)))
            n_classes = int(rng.choice([2, 3, 9]))
            y = rng.integers(0, n_classes, size=n)
            codes = np.stack([y, (y + 1) % n_classes])
            min_leaf = int(rng.choice([1, 2, 5]))
            nodes = [
                (
                    int(rng.integers(0, 2)),
                    rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False),
                    rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False),
                )
                for _ in range(int(rng.integers(1, 12)))
            ]
            found = _best_splits_classification(_column_ranks(X), codes, n_classes, nodes, min_leaf)
            assert len(found) == len(nodes)
            for (t, idx, features), got in zip(nodes, found):
                onehot = np.eye(n_classes)[codes[t][idx]]
                expected = reference_split(
                    X, idx, features, lambda x: reference_gini(x, onehot, min_leaf)
                )
                assert got == expected, case

    @pytest.mark.parametrize("n_classes", [1, 2, 3, 7, 8, 9, 15, 16, 17, 40, 128, 129, 300])
    def test_class_sum_adds_as_numpy_sums_a_row(self, n_classes):
        # The batched Gini search sums its per-class planes in the order
        # numpy's pairwise summation adds a contiguous row, which the
        # per-node search summed with np.sum over its class axis.
        rng = np.random.default_rng(n_classes)
        terms = (rng.random((6, 5, n_classes)) * 10.0) ** 2
        planes = [terms[..., c] for c in range(n_classes)]
        assert _class_sum(planes).tobytes() == np.sum(terms, axis=-1).tobytes()
        assert _class_sum([p[0, 0] for p in planes]) == np.sum(terms[0, 0])

    def test_regression_matches_per_feature_reference(self):
        for rng, X, idx, features, min_leaf in split_cases(300):
            y = np.round(rng.normal(size=X.shape[0]) * 10, int(rng.integers(0, 3)))
            target = y[idx]
            expected = reference_split(
                X, idx, features, lambda x: reference_variance(x, target, min_leaf)
            )
            found = _best_split_regression(_column_ranks(X), idx, features, target, min_leaf)
            assert found == expected

    def test_fixed_seed_models_match_recorded_digests(self):
        # Digests of to_dict() recorded with the per-feature split search.
        rng = np.random.default_rng(2024)
        X = np.round(rng.normal(size=(150, 9)), 1)
        noise = rng.normal(scale=0.5, size=150)
        y = (X[:, 0] + X[:, 3] + noise > 0).astype(int) + (X[:, 5] > 0.8)
        forest = RandomForestClassifier(n_trees=12, min_samples_leaf=2, seed=7).fit(X, y)
        assert digest(forest.to_dict()) == "3d8e10e4b63f8717"
        t = X[:, 1] * 3.0 + np.round(X[:, 2], 0) + rng.normal(scale=0.2, size=150)
        params = {"max_depth": 6, "min_samples_leaf": 3}
        boost = AdaBoostR2("dt", n_estimators=8, seed=5, base_params=params).fit(X, t)
        assert digest(boost.to_dict()) == "65d38d3ceaadb1ee"

    @pytest.mark.parametrize(
        ("kind", "max_depth", "min_leaf", "per_split", "expected"),
        [
            ("clf", None, 1, None, "92748c19a80789cc"),
            ("clf", None, 1, 2, "4affad35cca21101"),
            ("clf", None, 4, None, "95641fd7535d8ac7"),
            ("clf", None, 4, 2, "5f09f33f69e395fc"),
            ("clf", 3, 1, None, "69e608a0a5e2c2c7"),
            ("clf", 3, 1, 2, "8977cb6a8a2672eb"),
            ("clf", 3, 4, None, "43b8871250a9b5b9"),
            ("clf", 3, 4, 2, "e56614ddb3f61b0f"),
            ("reg", None, 1, None, "0da4ec8d8e5e5c38"),
            ("reg", None, 1, 2, "5cedf85781fc3d0e"),
            ("reg", None, 4, None, "7d4a32af6bf5473d"),
            ("reg", None, 4, 2, "4f287b8379677082"),
            ("reg", 3, 1, None, "5c55503c2086c080"),
            ("reg", 3, 1, 2, "554148387abb23e4"),
            ("reg", 3, 4, None, "20791277c3fe9b8a"),
            ("reg", 3, 4, 2, "f256948773b717f5"),
            ("one_class", None, 1, 2, "7e9f1a6e21bc226f"),
            ("constant", None, 1, 2, "170da2838a81dde6"),
        ],
    )
    def test_single_tree_matches_recorded_digest(
        self, kind, max_depth, min_leaf, per_split, expected
    ):
        # Digests of to_dict() recorded with one growth loop per tree class.
        # Node ids follow the depth-first push order and features_per_split
        # draws follow the order of non-stopping nodes, so changing either
        # moves the digest.
        rng = np.random.default_rng(77)
        X = np.round(rng.normal(size=(80, 5)), 0)
        labels = (X[:, 0] + np.round(rng.normal(size=80), 0) > 0).astype(int) + (X[:, 2] > 1)
        targets = np.round(X[:, 1] * 2 + rng.normal(size=80), 0)
        cls, y = {
            "clf": (DecisionTreeClassifier, labels),
            "reg": (DecisionTreeRegressor, targets),
            "one_class": (DecisionTreeClassifier, np.ones(80, dtype=int)),
            "constant": (DecisionTreeRegressor, np.full(80, 4.5)),
        }[kind]
        params = {"max_depth": max_depth, "min_samples_leaf": min_leaf}
        tree = cls(features_per_split=per_split, seed=3, **params).fit(X, y)
        assert digest(tree.to_dict()) == expected
        probe = np.vstack([X, rng.normal(size=(40, 5))])
        clone = cls.from_dict(tree.to_dict())
        # A loaded classifier holds its classes as floats, so its labels are
        # compared by value and its probabilities by bytes.
        assert np.array_equal(clone.predict(probe), tree.predict(probe))
        scores = "predict" if cls is DecisionTreeRegressor else "predict_proba"
        assert getattr(clone, scores)(probe).tobytes() == getattr(tree, scores)(probe).tobytes()

    def test_predict_proba_is_leaf_count_fraction(self, rng):
        X = np.round(rng.normal(size=(90, 3)), 1)
        y = rng.integers(0, 3, size=90)
        tree = DecisionTreeClassifier(max_depth=3, seed=2).fit(X, y)
        for model in (tree, DecisionTreeClassifier.from_dict(tree.to_dict())):
            proba = model.predict_proba(X)
            for row, node in zip(proba, model._leaf_ids(X)):
                counts = model.leaf_counts[node]
                assert np.array_equal(row, counts / counts.sum())


# -- stacked routing against the per-tree loops it replaced --------------------


def reference_tree_labels(tree, X):
    """DecisionTreeClassifier.predict over the per-tree router."""
    return tree.classes_[np.argmax(tree._leaf_proba[reference_leaf_ids(tree, X)], axis=1)]


def reference_votes(forest, X):
    """votes[i, k]: number of trees predicting class k for row i, counted one
    tree at a time. A tree fit on a one-class resample predicts only that
    class; searchsorted finds that class's column among the forest's."""
    X = np.asarray(X, dtype=np.float64)
    votes = np.zeros((X.shape[0], len(forest.classes_)))
    for tree in forest.trees:
        cols = np.searchsorted(forest.classes_, reference_tree_labels(tree, X))
        votes[np.arange(X.shape[0]), cols] += 1.0
    return votes


def assert_forest_matches_reference(forest, X):
    votes = reference_votes(forest, X)
    assert forest.predict_proba(X).tobytes() == (votes / forest.n_trees).tobytes()
    assert forest.predict(X).tobytes() == forest.classes_[np.argmax(votes, axis=1)].tobytes()
    for tree in forest.trees:
        assert tree._leaf_ids(X).tobytes() == reference_leaf_ids(tree, X).tobytes()


def with_non_finite(rng, X, share):
    """A copy of X with about `share` of its cells set to NaN, +inf or -inf."""
    X = X.copy()
    hit = rng.random(X.shape) < share
    X[hit] = rng.choice([np.nan, np.inf, -np.inf], size=int(hit.sum()))
    return X


@st.composite
def forest_cases(draw):
    """Small data with tied values and leaf counts, 2 or 3 classes with gaps
    between the labels, a few trees whose resamples may hold one class, and
    probes of 0 to 30 rows, some holding NaN or +-inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    X = np.round(rng.normal(size=(n, d)), draw(st.integers(0, 1)))
    labels = np.array([2, 5, 7])[: draw(st.integers(2, 3))]
    y = rng.choice(labels, size=n)
    y[:2] = labels[:2]
    forest = RandomForestClassifier(
        n_trees=draw(st.integers(1, 8)),
        max_depth=draw(st.sampled_from([0, 1, 3, None])),
        min_samples_leaf=draw(st.sampled_from([1, 2, 4])),
        seed=draw(st.integers(0, 1000)),
    )
    probe = np.vstack([X, rng.normal(size=(draw(st.integers(0, 10)), d))])
    probe = with_non_finite(rng, probe[rng.permutation(len(probe))], draw(st.sampled_from([0, 0.3])))
    return forest.fit(X, y), probe[: draw(st.integers(0, 30))]


@given(forest_cases())
def test_stacked_forest_votes_as_the_per_tree_loop(case):
    forest, probe = case
    assert_forest_matches_reference(forest, probe)
    loaded = load_document(json.loads(dumps_model(forest, [f"f{i}" for i in range(probe.shape[1])])))
    assert_forest_matches_reference(loaded, probe)
    assert loaded.predict_proba(probe).tobytes() == forest.predict_proba(probe).tobytes()


class TestStackedRoutingCases:
    def test_forest_with_one_class_resamples(self, rng):
        X = np.array([[0.0], [1.0], [2.0]])
        forest = RandomForestClassifier(n_trees=20, seed=4).fit(X, np.array([3, 3, 8]))
        assert {len(t.classes_) for t in forest.trees} == {1, 2}
        assert_forest_matches_reference(forest, np.vstack([X, rng.normal(size=(5, 1))]))

    def test_root_only_trees(self, rng):
        X = rng.normal(size=(30, 3))
        y = (X[:, 0] > 0).astype(int)
        stumps = RandomForestClassifier(n_trees=6, max_depth=0, seed=1).fit(X, y)
        assert all(len(t.feature) == 1 for t in stumps.trees)
        assert_forest_matches_reference(stumps, X)
        pure = DecisionTreeClassifier().fit(X, np.full(30, 4))
        assert len(pure.feature) == 1 and pure.predict(X).tolist() == [4] * 30
        assert pure.predict(X[:, :0]).tolist() == [4] * 30  # no split reads a column

    def test_tied_leaf_counts_vote_the_lowest_class(self):
        # Identical rows cannot be split, so each tree is one leaf holding its
        # resample's counts; a tie there goes to the lowest class.
        X = np.zeros((6, 2))
        for y in (np.array([0, 1, 0, 1, 2, 2]), np.array([1, 0, 1, 0, 1, 0])):
            forest = RandomForestClassifier(n_trees=9, seed=2).fit(X, y)
            assert_forest_matches_reference(forest, X)
            tree = DecisionTreeClassifier().fit(X, y)
            assert tree.predict(X[:1]).tolist() == [0]

    def test_zero_rows(self, rng):
        X = rng.normal(size=(40, 2))
        y = rng.integers(0, 3, size=40)
        forest = RandomForestClassifier(n_trees=4, seed=0).fit(X, y)
        empty = np.empty((0, 2))
        assert forest.predict_proba(empty).shape == (0, 3)
        assert forest.predict(empty).shape == (0,)
        assert_forest_matches_reference(forest, empty)
        assert forest.trees[0].predict(empty).shape == (0,)

    def test_non_finite_rows_route_as_comparisons_say(self, rng):
        # NaN and +inf are never below a threshold, so they go right at every
        # node; -inf always goes left.
        X = rng.normal(size=(60, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        forest = RandomForestClassifier(n_trees=7, max_depth=4, seed=3).fit(X, y)
        probe = np.array([[np.nan, np.nan], [np.inf, np.inf], [-np.inf, -np.inf], [np.nan, 0.0]])
        assert_forest_matches_reference(forest, probe)
        for tree in forest.trees:
            rightmost = leftmost = 0
            while tree.feature[rightmost] != -1:
                rightmost = tree.right[rightmost]
            while tree.feature[leftmost] != -1:
                leftmost = tree.left[leftmost]
            assert tree._leaf_ids(probe[:3]).tolist() == [rightmost, rightmost, leftmost]

    @pytest.mark.parametrize("cls", [DecisionTreeClassifier, RandomForestClassifier])
    def test_refit_predicts_as_a_fresh_model(self, cls, rng):
        X1 = rng.normal(size=(50, 2))
        y1 = (X1[:, 0] > 0).astype(int)
        X2 = rng.normal(size=(70, 5))
        y2 = (X2[:, 4] > 0).astype(int) + (X2[:, 3] > 0.5) + 10
        params = {"n_trees": 6} if cls is RandomForestClassifier else {"max_depth": 5}
        model = cls(seed=3, **params).fit(X1, y1).fit(X2, y2)
        fresh = cls(seed=3, **params).fit(X2, y2)
        probe = np.vstack([X2, rng.normal(size=(20, 5))])
        assert model.predict(probe).tobytes() == fresh.predict(probe).tobytes()
        assert model.predict_proba(probe).tobytes() == fresh.predict_proba(probe).tobytes()


# -- lockstep growth against the per-tree growth it replaced ------------------


def reference_best_split_classification(X, idx, features, onehot, min_leaf):
    """The per-node Gini search over a (features x rows x classes) one-hot
    block, sorted by a stable argsort of the values, that the batched search
    replaced."""
    block = X[np.ix_(idx, features)].T
    order = np.argsort(block, axis=1, kind="stable")
    xs = np.take_along_axis(block, order, axis=1)
    n = idx.size
    counts_left = np.cumsum(onehot[order], axis=1)[:, :-1]
    counts_right = onehot.sum(axis=0) - counts_left
    n_left = np.arange(1, n, dtype=np.float64)
    n_right = n - n_left
    gini_left = 1.0 - np.sum((counts_left / n_left[:, None]) ** 2, axis=2)
    gini_right = 1.0 - np.sum((counts_right / n_right[:, None]) ** 2, axis=2)
    cost = (n_left * gini_left + n_right * gini_right) / n
    valid = (xs[:, :-1] < xs[:, 1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    cost = np.where(valid, cost, np.inf)
    at = np.argmin(cost, axis=1)
    per_feature = cost[np.arange(cost.shape[0]), at]
    f = int(np.argmin(per_feature))
    if per_feature[f] == np.inf:
        return None
    i = at[f]
    return float(per_feature[f]), f, float((xs[f, i] + xs[f, i + 1]) / 2.0)


def reference_classifier_fit(tree, X, y):
    """DecisionTreeClassifier.fit as one tree grown alone, depth first, one
    node and one split search at a time."""
    tree.classes_ = np.unique(y)
    onehot = np.zeros((X.shape[0], len(tree.classes_)))
    onehot[np.arange(X.shape[0]), np.searchsorted(tree.classes_, y)] = 1.0
    rng = np.random.default_rng(tree.seed)
    tree.feature, tree.threshold, tree.left, tree.right = [], [], [], []
    payloads = []
    stack = [(tree._new_node(payloads), np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        counts = onehot[idx].sum(axis=0)
        impurity = 1.0 - np.sum((counts / idx.size) ** 2)
        stop = (
            impurity == 0.0
            or idx.size < 2 * tree.min_samples_leaf
            or (tree.max_depth is not None and depth >= tree.max_depth)
        )
        best = None
        if not stop:
            features = tree._candidate_features(rng, X.shape[1])
            best = reference_best_split_classification(
                X, idx, features, onehot[idx], tree.min_samples_leaf
            )
        if best is None:
            payloads[node] = counts
            continue
        _cost, at, thr = best
        f = int(features[at])
        go_left = X[idx, f] < thr
        tree.feature[node] = f
        tree.threshold[node] = thr
        tree.left[node] = tree._new_node(payloads)
        tree.right[node] = tree._new_node(payloads)
        stack.append((tree.left[node], idx[go_left], depth + 1))
        stack.append((tree.right[node], idx[~go_left], depth + 1))
    tree._set_nodes(tree.feature, tree.threshold, tree.left, tree.right)
    tree.leaf_counts = payloads
    tree._leaf_proba = tree._proba_table()
    return tree


def reference_forest_fit(forest, X, y):
    """RandomForestClassifier.fit with each tree fit alone on its bootstrap."""
    forest.classes_ = np.unique(y)
    n, d = X.shape
    mtry = forest.features_per_split or math.ceil(math.sqrt(d))
    forest.trees, forest.bootstrap_indices = [], []
    for tree_seed in np.random.SeedSequence(forest.seed).spawn(forest.n_trees):
        rng = np.random.default_rng(tree_seed)
        boot = rng.integers(0, n, size=n)
        tree = DecisionTreeClassifier(
            max_depth=forest.max_depth,
            min_samples_leaf=forest.min_samples_leaf,
            features_per_split=mtry,
            seed=rng.integers(0, 2**31 - 1),
        )
        if np.unique(y[boot]).size < 2:
            boot = rng.integers(0, n, size=n)
        forest.trees.append(reference_classifier_fit(tree, X[boot], y[boot]))
        forest.bootstrap_indices.append(boot)
    return forest


@st.composite
def growth_cases(draw):
    """Small data with many tied values, 2, 3 or 9 classes (so resamples
    often miss classes or hold only one), and every growth parameter."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    X = np.round(rng.normal(size=(n, d)), draw(st.integers(0, 1)))
    n_classes = draw(st.sampled_from([2, 3, 9]))
    y = rng.integers(0, n_classes, size=n) * 3 + 1
    y[:2] = [1, 4]
    params = {
        "max_depth": draw(st.sampled_from([None, 3])),
        "min_samples_leaf": draw(st.integers(1, 4)),
        "features_per_split": draw(st.sampled_from([None, 1, 2])),
        "seed": draw(st.integers(0, 1000)),
    }
    return X, y, params, draw(st.integers(1, 7))


@given(growth_cases())
def test_lockstep_growth_matches_growing_each_tree_alone(case):
    X, y, params, n_trees = case
    forest = RandomForestClassifier(n_trees=n_trees, **params).fit(X, y)
    expected = reference_forest_fit(RandomForestClassifier(n_trees=n_trees, **params), X, y)
    assert json.dumps(forest.to_dict()) == json.dumps(expected.to_dict())
    assert len(forest.bootstrap_indices) == n_trees
    for got, want in zip(forest.bootstrap_indices, expected.bootstrap_indices):
        assert got.tobytes() == want.tobytes()
    tree = DecisionTreeClassifier(**params).fit(X, y)
    alone = reference_classifier_fit(DecisionTreeClassifier(**params), X, y)
    assert json.dumps(tree.to_dict()) == json.dumps(alone.to_dict())


@pytest.mark.parametrize("per_split", [0, -2])
@pytest.mark.parametrize(
    "cls", [DecisionTreeClassifier, DecisionTreeRegressor, RandomForestClassifier]
)
def test_features_per_split_below_one_is_refused_at_construction(cls, per_split):
    with pytest.raises(InputError, match="features_per_split"):
        cls(features_per_split=per_split)


@pytest.mark.parametrize(
    "make",
    [
        DecisionTreeClassifier,
        DecisionTreeRegressor,
        RandomForestClassifier,
        MlpRegressor,
        lambda: AdaBoostR2("dt"),
    ],
    ids=["dt-classifier", "dt-regressor", "forest", "mlp", "adaboost-dt"],
)
def test_fit_refuses_x_without_columns(make):
    with pytest.raises(InputError, match="X has no feature columns"):
        make().fit(np.zeros((4, 0)), [0, 1, 0, 1])


class TestPredictRejectsUnusableInput:
    @pytest.fixture(scope="class")
    def models(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(80, 3))
        y = (X[:, 2] > 0).astype(int)
        return (
            DecisionTreeClassifier(max_depth=3).fit(X, y),
            DecisionTreeRegressor(max_depth=3).fit(X, X[:, 2]),
            RandomForestClassifier(n_trees=5, seed=1).fit(X, y),
        )

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 1), ()])
    def test_input_that_is_not_2d(self, models, shape):
        for model in models:
            with pytest.raises(InputError, match="2-D"):
                model.predict(np.zeros(shape))
        with pytest.raises(InputError, match="2-D"):
            models[2].predict_proba(np.zeros(shape))

    def test_fewer_columns_than_the_splits_read(self, models):
        for model in models:
            assert model.predict(np.zeros((4, 3))).shape == (4,)
            for X in (np.zeros((4, 2)), np.zeros((0, 2))):
                with pytest.raises(InputError, match="split on column 2"):
                    model.predict(X)
