"""FeatureVector/FeatureMatrix/SelectionResult container contracts."""

import numpy as np
import pytest

from homevitals.errors import InputError
from homevitals.features import FeatureMatrix, FeatureVector, SelectionResult


def vec(subject="S0", origin="0", names=("a", "b"), values=(1.0, 2.0), flags=()):
    return FeatureVector(subject, origin, tuple(names), np.asarray(values), tuple(flags))


class TestFeatureVector:
    def test_lookup_by_name(self):
        assert vec()["b"] == 2.0
        with pytest.raises(KeyError):
            vec()["zz"]

    def test_nan_rejected_with_name(self):
        with pytest.raises(InputError, match="'b'"):
            vec(values=(1.0, np.nan))

    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError):
            vec(names=("a", "a"))

    def test_concat_requires_same_origin(self):
        left = vec(names=("a",), values=(1.0,))
        right = vec(names=("b",), values=(2.0,), origin="1")
        with pytest.raises(InputError):
            FeatureVector.concat([left, right])
        merged = FeatureVector.concat([left, vec(names=("b",), values=(2.0,))])
        assert merged.names == ("a", "b")


class TestFeatureMatrix:
    def test_rectangularity_enforced(self):
        with pytest.raises(InputError):
            FeatureMatrix([vec(), vec(names=("a", "c"))])

    def test_select_columns_preserves_rows(self):
        matrix = FeatureMatrix([vec(), vec(origin="1", values=(3.0, 4.0))])
        sub = matrix.select_columns(["b"])
        assert sub.names == ("b",)
        assert list(sub.X[:, 0]) == [2.0, 4.0]


def test_selection_result_validates_scores_order():
    with pytest.raises(InputError):
        SelectionResult(("a", "b"), (0.1, 0.9), ("a",))
    SelectionResult(("a", "b"), (0.9, 0.1), ("a",))
