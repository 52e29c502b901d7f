"""Feature selection: Mann-Whitney oracle, BH step-up and null behavior."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import homevitals
from homevitals.errors import LabelMissing
from homevitals.features import (
    FeatureMatrix,
    benjamini_hochberg,
    mann_whitney_u,
    select_features,
)


def labeled_matrix(X, y):
    names = tuple(f"f{i}" for i in range(X.shape[1]))
    return FeatureMatrix(names, X, [f"S{i % 5}" for i in range(X.shape[0])], labels=y)


class TestMannWhitney:
    def test_matches_scipy_asymptotic(self, rng):
        for _ in range(40):
            n1 = int(rng.integers(5, 30))
            n2 = int(rng.integers(5, 30))
            a = np.round(rng.normal(size=n1), 1)  # rounding forces ties
            b = np.round(rng.normal(0.3, 1.0, size=n2), 1)
            u, p = mann_whitney_u(a, b)
            ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
            assert u == pytest.approx(ref.statistic)
            assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_identical_groups_p_one(self):
        _, p = mann_whitney_u(np.ones(10), np.ones(12))
        assert p == 1.0


class TestBenjaminiHochberg:
    def test_rejects_strong_signal_keeps_null(self):
        p = np.array([1e-6, 2e-6, 0.8, 0.9, 0.5])
        keep = benjamini_hochberg(p, alpha=0.05)
        assert list(keep) == [True, True, False, False, False]

    def test_step_up_property(self):
        # Classic BH: a marginal p-value survives because a later one passes.
        p = np.array([0.01, 0.039, 0.041])
        keep = benjamini_hochberg(p, alpha=0.06)
        assert list(keep) == [True, True, True]


class TestSelectFeatures:
    def test_separating_column_ranks_first_both_modes(self, rng):
        n = 120
        y = rng.integers(0, 2, size=n)
        X = rng.normal(size=(n, 6))
        X[:, 2] = y * 4.0 + 0.1 * rng.normal(size=n)  # near-perfect separator
        result = select_features(labeled_matrix(X, y))
        assert result.ranked_names[0] == "f2"
        assert "f2" in result.selected

    def test_null_matrix_selects_nothing_mostly(self):
        empties = 0
        trials = 20
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            y = rng.integers(0, 2, size=80)
            X = rng.normal(size=(80, 12))  # labels independent of features
            result = select_features(labeled_matrix(X, y))
            empties += len(result.selected) == 0
        assert empties >= 0.9 * trials

    def test_significance_invariant_under_monotone_rescaling(self, rng):
        y = rng.integers(0, 2, size=70)
        X = rng.normal(size=(70, 5))
        X[:, 1] += 0.8 * y
        X[:, 4] -= 0.5 * y
        m = labeled_matrix(X, y)
        base = select_features(m)
        X2 = X.copy()
        X2[:, 1] = np.exp(X2[:, 1])  # strictly monotone per-feature maps
        X2[:, 4] = X2[:, 4] ** 3
        X2[:, 0] = 10 * X2[:, 0] - 3
        rescaled = select_features(labeled_matrix(X2, y))
        assert base.ranked_names == rescaled.ranked_names
        assert base.selected == rescaled.selected
        assert np.allclose(base.scores, rescaled.scores)

    def test_scores_non_increasing(self, rng):
        y = rng.integers(0, 2, size=90)
        X = rng.normal(size=(90, 8))
        X[:, 3] += y
        result = select_features(labeled_matrix(X, y))
        assert all(a >= b for a, b in zip(result.scores, result.scores[1:]))

    def test_labels_required(self, rng):
        X = rng.normal(size=(30, 3))
        with pytest.raises(LabelMissing):
            select_features(FeatureMatrix(("a", "b", "c"), X, ["S0"] * 30))


def test_features_do_not_import_the_models():
    src = str(Path(homevitals.__file__).resolve().parent.parent)
    code = (
        "import sys, homevitals.features; "
        "print(sorted(m for m in sys.modules if m.startswith('homevitals.models')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
