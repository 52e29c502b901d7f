"""Subject-wise splitting and versioned model artifacts."""

import json
import threading

import numpy as np
import pytest

from homevitals.errors import FormatError, InputError, SplitImpossible
from homevitals.features import FeatureMatrix
from homevitals.models import (
    DecisionTreeRegressor,
    RandomForestClassifier,
    check_feature_schema,
    document_version,
    dumps_model,
    load_document,
    model_document,
    subject_split,
)


def matrix_with_subjects(rows_per_subject, n_features=3, seed=0):
    rng = np.random.default_rng(seed)
    subject_ids = [sid for sid, count in rows_per_subject.items() for _ in range(count)]
    names = tuple(f"f{i}" for i in range(n_features))
    X = [rng.normal(size=n_features) for _ in subject_ids]
    return FeatureMatrix(names, X, subject_ids, labels=rng.integers(0, 2, size=len(X)))


class TestSubjectSplit:
    def test_four_equal_subjects_quarter(self):
        m = matrix_with_subjects({f"S{i}": 10 for i in range(4)})
        train, test = subject_split(m, 0.25, seed=0)
        assert len(set(test.subject_ids)) == 1
        assert len(test) == 10

    def test_disjoint_for_any_seed(self):
        m = matrix_with_subjects({f"S{i}": int(5 + i) for i in range(6)})
        for seed in range(25):
            train, test = subject_split(m, 0.25, seed=seed)
            assert set(train.subject_ids) & set(test.subject_ids) == set()
            assert len(train) + len(test) == len(m)

    def test_forty_subjects_quarter(self):
        m = matrix_with_subjects({f"S{i:02d}": 10 for i in range(40)})
        train, test = subject_split(m, 0.25, seed=7)
        assert len(set(test.subject_ids)) == 10
        assert len(set(train.subject_ids)) == 30

    def test_single_subject_impossible(self):
        m = matrix_with_subjects({"S0": 20})
        with pytest.raises(SplitImpossible):
            subject_split(m)

    def test_deterministic_per_seed(self):
        m = matrix_with_subjects({f"S{i}": 8 for i in range(10)})
        a1 = subject_split(m, seed=3)[1].subject_ids
        a2 = subject_split(m, seed=3)[1].subject_ids
        assert a1 == a2


class TestSerialization:
    def test_artifact_round_trip_and_version(self, rng):
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] > 0).astype(int)
        names = ("a", "b", "c", "d")
        forest = RandomForestClassifier(n_trees=5, seed=1).fit(X, y)
        doc = json.loads(dumps_model(forest, names))
        loaded = load_document(doc)
        assert tuple(doc["feature_names"]) == names
        assert np.array_equal(loaded.predict(X), forest.predict(X))
        assert doc["format"] == "homevitals-model"
        assert doc["schema_version"] == 1
        assert len(document_version(doc)) == 12

    def test_retrain_is_byte_identical(self, rng):
        X = rng.normal(size=(50, 3))
        y = (X[:, 1] > 0).astype(int)
        blob1 = dumps_model(RandomForestClassifier(n_trees=4, seed=9).fit(X, y), ("x", "y", "z"))
        blob2 = dumps_model(RandomForestClassifier(n_trees=4, seed=9).fit(X, y), ("x", "y", "z"))
        assert blob1.encode() == blob2.encode()

    def test_schema_check(self, rng):
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(int)
        forest = RandomForestClassifier(n_trees=3, seed=0).fit(X, y)
        doc = model_document(forest, ("f0", "f1"))
        check_feature_schema(doc, ("f0", "f1"))
        with pytest.raises(InputError):
            check_feature_schema(doc, ("f1", "f0"))

    def test_loaded_kind_dispatch(self, rng):
        X = rng.normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(int)
        forest = RandomForestClassifier(n_trees=3, seed=2).fit(X, y)
        doc = model_document(forest, ("f0", "f1"))
        clone = load_document(doc)
        assert isinstance(clone, RandomForestClassifier)


def load_in_time(doc, seconds=30.0):
    """load_document(doc), failing the test if it has not returned in time: a
    document whose children form a cycle once made loading spin forever."""
    outcome = {}

    def load():
        try:
            outcome["model"] = load_document(doc)
        except Exception as exc:  # re-raised in the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=load, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"load_document still running after {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["model"]


def tree_document():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(80, 3))
    tree = DecisionTreeRegressor(max_depth=3).fit(X, X[:, 0] + X[:, 1] ** 2)
    return model_document(tree, ("a", "b", "c"))


def inner_node(nodes):
    """The first split below the root."""
    return next(i for i in range(1, len(nodes["feature"])) if nodes["feature"][i] != -1)


def set_child_outside_table(nodes):
    nodes["left"][0] = 99


def set_child_back_to_root(nodes):
    nodes["right"][inner_node(nodes)] = 0


def set_child_to_itself(nodes):
    nodes["left"][0] = 0


def set_feature_below_minus_one(nodes):
    nodes["feature"][0] = -2


def drop_a_threshold(nodes):
    nodes["threshold"].pop()


def drop_the_thresholds(nodes):
    del nodes["threshold"]


def drop_the_leaf_values(nodes):
    del nodes["leaf_values"]


class TestMalformedDocuments:
    def test_the_unbroken_document_loads(self):
        doc = tree_document()
        assert load_in_time(doc).to_dict() == doc["model"]

    @pytest.mark.parametrize(
        "break_nodes",
        [
            set_child_outside_table,
            set_child_back_to_root,
            set_child_to_itself,
            set_feature_below_minus_one,
            drop_a_threshold,
            drop_the_thresholds,
            drop_the_leaf_values,
        ],
    )
    def test_broken_tree_is_a_format_error(self, break_nodes):
        doc = tree_document()
        break_nodes(doc["model"])
        with pytest.raises(FormatError):
            load_in_time(doc)

    @pytest.mark.parametrize("key", ["classes", "trees", "n_trees"])
    def test_forest_without_a_key_is_a_format_error(self, rng, key):
        X = rng.normal(size=(30, 2))
        forest = RandomForestClassifier(n_trees=2, seed=0).fit(X, (X[:, 0] > 0).astype(int))
        doc = model_document(forest, ("f0", "f1"))
        del doc["model"][key]
        with pytest.raises(FormatError, match=key):
            load_in_time(doc)

    @pytest.mark.parametrize("key", ["n_trees", "features_per_split"])
    def test_forest_with_a_parameter_below_one_is_a_format_error(self, rng, key):
        # The forest's constructor refuses the value with an InputError; in a
        # stored document that is a malformed document, not a bad request.
        X = rng.normal(size=(30, 2))
        forest = RandomForestClassifier(n_trees=2, seed=0).fit(X, (X[:, 0] > 0).astype(int))
        doc = model_document(forest, ("f0", "f1"))
        doc["model"][key] = 0
        with pytest.raises(FormatError, match=key):
            load_in_time(doc)
