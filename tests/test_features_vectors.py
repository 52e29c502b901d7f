"""FeatureMatrix/SelectionResult container contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homevitals.errors import InputError
from homevitals.features import FeatureMatrix, SelectionResult


def two_rows(labels=None, subjects=("S0", "S0")):
    return FeatureMatrix(("a", "b"), [[1.0, 2.0], [3.0, 4.0]], subjects, labels)


class TestFeatureMatrix:
    def test_non_finite_value_rejected_with_its_name(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InputError, match="non-finite feature value for 'b'"):
                FeatureMatrix(("a", "b", "c"), [[1.0, 2.0, 3.0], [1.0, bad, np.nan]], ["S0"] * 2)

    def test_duplicate_names_rejected(self):
        with pytest.raises(InputError, match="feature names must be unique"):
            FeatureMatrix(("a", "a"), [[1.0, 2.0]], ["S0"])

    def test_rectangularity_enforced(self):
        with pytest.raises(InputError, match="3 columns for 2 names"):
            FeatureMatrix(("a", "b"), [[1.0, 2.0, 3.0]], ["S0"])
        with pytest.raises(InputError, match="2-D"):
            FeatureMatrix(("a", "b"), [1.0, 2.0], ["S0"])
        with pytest.raises(InputError, match="1 subject ids for 2 rows"):
            FeatureMatrix(("a", "b"), [[1.0, 2.0], [3.0, 4.0]], ["S0"])

    def test_construction_copies_x(self):
        X = np.array([[1.0, 2.0]])
        matrix = FeatureMatrix(("a", "b"), X, ["S0"])
        X[0, 0] = 9.0
        assert matrix.X[0, 0] == 1.0 and X.flags.writeable

    def test_select_columns_preserves_rows(self):
        matrix = two_rows()
        sub = matrix.select_columns(["b"])
        assert sub.names == ("b",)
        assert list(sub.X[:, 0]) == [2.0, 4.0]


    def test_derived_operations_reject_what_construction_would(self):
        matrix = two_rows()
        with pytest.raises(InputError, match="unknown feature names: \\['zz'\\]"):
            matrix.select_columns(["a", "zz"])
        with pytest.raises(InputError, match="feature names must be unique"):
            matrix.select_columns(["a", "b", "a"])
        with pytest.raises(InputError, match="one feature-name list"):
            FeatureMatrix.concat([matrix, matrix.select_columns(["b", "a"])])
        with pytest.raises(InputError, match="cannot mix labeled and unlabeled"):
            FeatureMatrix.concat([matrix, matrix.with_labels([0, 1])])
        with pytest.raises(InputError, match="cannot mix labeled and unlabeled"):
            FeatureMatrix.concat([matrix.with_labels([0, 1]), matrix])
        with pytest.raises(InputError, match="labels length 3 does not match 2 rows"):
            matrix.with_labels([0, 1, 0])
        with pytest.raises(InputError, match="at least one row"):
            matrix.select_rows([])
        with pytest.raises(InputError, match="nothing to concatenate"):
            FeatureMatrix.concat([])

    def test_construction_rejects_no_rows_and_empty_subject_ids(self):
        with pytest.raises(InputError, match="at least one row"):
            FeatureMatrix(("a", "b"), np.empty((0, 2)), [])
        with pytest.raises(InputError, match="subject ids must be non-empty"):
            two_rows(subjects=("S0", ""))
        with pytest.raises(InputError, match="labels length 1 does not match 2 rows"):
            two_rows(labels=[1.0])

    def test_derived_arrays_are_read_only_and_own_their_labels(self):
        labels = np.array([0.0, 1.0])
        matrix = two_rows(labels, subjects=("S0", "S1"))
        labels[0] = 9.0  # the matrix keeps a copy
        derived = [
            matrix,
            matrix.with_labels(labels),
            matrix.select_rows([1, 0]),
            matrix.select_columns(["b"]),
            FeatureMatrix.concat([matrix, matrix]),
        ]
        assert matrix.labels[0] == 0.0
        for m in derived:
            for array in (m.X, m.labels):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 1.0
            assert m.X.flags.c_contiguous


NAMES = ("a", "b", "c", "d")
FINITE = st.floats(-1e6, 1e6)


def draw_rows(draw, names) -> tuple[list[str], np.ndarray]:
    """Subject ids and an X of 1 to 5 rows."""
    n = draw(st.integers(1, 5))
    values = st.lists(FINITE, min_size=len(names), max_size=len(names))
    subjects = st.sampled_from(["S0", "S1", "S2"])
    return [draw(subjects) for _ in range(n)], np.array([draw(values) for _ in range(n)])


def draw_labels(draw, rows, labeled: bool) -> list[float] | None:
    return draw(st.lists(FINITE, min_size=len(rows), max_size=len(rows))) if labeled else None


def assert_same_matrix(derived: FeatureMatrix, expected: FeatureMatrix) -> None:
    assert derived.names == expected.names
    assert derived.subject_ids == expected.subject_ids
    assert derived.X.dtype == np.float64 and derived.X.shape == expected.X.shape
    assert np.array_equal(derived.X, expected.X)
    if expected.labels is None:
        assert derived.labels is None
    else:
        assert np.array_equal(derived.labels, expected.labels)
    assert not derived.X.flags.writeable
    assert derived.labels is None or not derived.labels.flags.writeable


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_derived_matrices_equal_the_matrix_built_from_their_rows(data):
    draw = data.draw
    names = tuple(draw(st.permutations(NAMES))[: draw(st.integers(1, len(NAMES)))])
    labeled = draw(st.booleans())
    subjects, X = draw_rows(draw, names)
    labels = draw_labels(draw, subjects, labeled)
    matrix = FeatureMatrix(names, X, subjects, labels)
    assert_same_matrix(matrix, matrix)

    relabeled = draw_labels(draw, subjects, True)
    assert_same_matrix(matrix.with_labels(relabeled), FeatureMatrix(names, X, subjects, relabeled))

    idx = draw(st.lists(st.integers(0, len(subjects) - 1), min_size=1, max_size=8))
    expected = FeatureMatrix(
        names, X[idx], [subjects[i] for i in idx], None if labels is None else [labels[i] for i in idx]
    )
    assert_same_matrix(matrix.select_rows(idx), expected)

    picked = tuple(draw(st.permutations(names))[: draw(st.integers(0, len(names)))])
    cols = [names.index(n) for n in picked]
    expected = FeatureMatrix(picked, X[:, cols], subjects, labels)
    assert_same_matrix(matrix.select_columns(picked), expected)

    more_subjects, more_X = draw_rows(draw, names)
    more_labels = draw_labels(draw, more_subjects, labeled)
    expected = FeatureMatrix(
        names,
        np.concatenate([X, more_X]),
        subjects + more_subjects,
        None if not labeled else labels + more_labels,
    )
    more = FeatureMatrix(names, more_X, more_subjects, more_labels)
    assert_same_matrix(FeatureMatrix.concat([matrix, more]), expected)


def test_selection_result_validates_scores_order():
    with pytest.raises(InputError):
        SelectionResult(("a", "b"), (0.1, 0.9), ("a",))
    SelectionResult(("a", "b"), (0.9, 0.1), ("a",))
