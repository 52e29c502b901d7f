"""AdaBoost.R2: degenerate cases, weight positivity, benchmark vs single tree."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import reference_leaf_ids
from homevitals.errors import InputError
from homevitals.models import AdaBoostR2, DecisionTreeRegressor, dumps_model, load_document


def noisy_sine(n, seed, noise=0.4):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 6, size=(n, 1))
    y = np.sin(X[:, 0]) * 3.0 + noise * rng.normal(size=n)
    return X, y


class TestAdaBoostR2:
    def test_single_estimator_equals_base(self, rng):
        X = rng.normal(size=(80, 2))
        y = X[:, 0] ** 2 + X[:, 1]
        boost = AdaBoostR2(base_kind="dt", n_estimators=1, seed=5).fit(X, y)
        base_model, _ = boost.members[0]
        probe = rng.normal(size=(30, 2))
        assert np.allclose(boost.predict(probe), base_model.predict(probe), atol=1e-12)

    def test_perfect_base_stops_after_first_round(self, rng):
        # A memorizing tree has zero training error, so boosting ends at one member.
        X = rng.normal(size=(50, 1))
        y = (X[:, 0] > 0).astype(float)
        boost = AdaBoostR2(
            base_kind="dt",
            n_estimators=25,
            seed=1,
            base_params={"max_depth": None, "min_samples_leaf": 1},
        ).fit(X, y)
        assert len(boost.members) == 1

    def test_member_weights_positive(self):
        X, y = noisy_sine(150, seed=3)
        boost = AdaBoostR2(base_kind="dt", n_estimators=20, seed=3).fit(X, y)
        assert len(boost.members) >= 2
        assert all(w > 0 for w in boost.member_weights)

    def test_beats_single_tree_across_seeds(self):
        wins = 0
        for seed in range(10):
            X, y = noisy_sine(240, seed=seed)
            X_test, y_test = noisy_sine(120, seed=1000 + seed, noise=0.0)
            params = {"max_depth": 6, "min_samples_leaf": 3}
            tree = DecisionTreeRegressor(seed=seed, **params).fit(X, y)
            boost = AdaBoostR2(
                base_kind="dt", n_estimators=25, seed=seed, base_params=params
            ).fit(X, y)
            mae_tree = np.mean(np.abs(tree.predict(X_test) - y_test))
            mae_boost = np.mean(np.abs(boost.predict(X_test) - y_test))
            wins += mae_boost <= mae_tree
        assert wins >= 8

    def test_mlp_base_supported(self, rng):
        X = rng.uniform(-1, 1, size=(60, 1))
        y = 2.0 * X[:, 0]
        boost = AdaBoostR2(
            base_kind="mlp",
            n_estimators=3,
            seed=2,
            base_params={"hidden": 8, "epochs": 40},
        ).fit(X, y)
        pred = boost.predict(X)
        assert np.mean(np.abs(pred - y)) < 0.5

    def test_weighted_median_prediction(self, rng):
        X, y = noisy_sine(100, seed=7)
        boost = AdaBoostR2(base_kind="dt", n_estimators=10, seed=7).fit(X, y)
        probe = rng.uniform(0, 6, size=(5, 1))
        member_preds = np.vstack([m.predict(probe) for m, _ in boost.members]).T
        weights = np.asarray(boost.member_weights)
        for i, expected in enumerate(boost.predict(probe)):
            order = np.argsort(member_preds[i])
            cdf = np.cumsum(weights[order])
            j = int(np.argmax(cdf >= 0.5 * cdf[-1]))
            assert expected == member_preds[i][order[j]]

    def test_round_trip_serialization(self):
        X, y = noisy_sine(90, seed=11)
        boost = AdaBoostR2(base_kind="dt", n_estimators=8, seed=11).fit(X, y)
        clone = AdaBoostR2.from_dict(boost.to_dict())
        probe = np.linspace(0, 6, 25).reshape(-1, 1)
        assert np.array_equal(boost.predict(probe), clone.predict(probe))

    def test_deterministic_under_seed(self):
        X, y = noisy_sine(90, seed=13)
        a = AdaBoostR2(base_kind="dt", n_estimators=6, seed=4).fit(X, y)
        b = AdaBoostR2(base_kind="dt", n_estimators=6, seed=4).fit(X, y)
        assert a.to_dict() == b.to_dict()


# -- stacked routing against the member loop it replaced -----------------------


def reference_predict(boost, X):
    """Each tree member predicts on its own over the per-tree router; the
    (rows, members) matrix then goes through the weighted median."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    preds = np.vstack([m._leaf_value[reference_leaf_ids(m, X)] for m, _ in boost.members]).T
    member_weights = np.asarray(boost.member_weights)
    order = np.argsort(preds, axis=1)
    cdf = np.cumsum(member_weights[order], axis=1)
    median_pos = np.argmax(cdf >= 0.5 * cdf[:, -1][:, None], axis=1)
    rows = np.arange(preds.shape[0])
    return preds[rows, order[rows, median_pos]]


def assert_matches_reference(boost, X):
    assert boost.predict(X).tobytes() == reference_predict(boost, X).tobytes()
    loaded = load_document(json.loads(dumps_model(boost, [f"f{i}" for i in range(X.shape[1])])))
    assert loaded.predict(X).tobytes() == reference_predict(boost, X).tobytes()


@st.composite
def boost_cases(draw):
    """Small data with tied inputs and targets, shallow to unbounded trees,
    and probes of 0 to 30 rows, some holding NaN or +-inf."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(3, 40)), draw(st.integers(1, 3))
    X = np.round(rng.normal(size=(n, d)), draw(st.integers(0, 1)))
    y = np.round(X[:, 0] * 2 + rng.normal(size=n), draw(st.integers(0, 2)))
    boost = AdaBoostR2(
        "dt",
        n_estimators=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 1000)),
        base_params={
            "max_depth": draw(st.sampled_from([0, 1, 3, None])),
            "min_samples_leaf": draw(st.sampled_from([1, 2, 3])),
        },
    )
    probe = np.vstack([X, rng.normal(size=(draw(st.integers(0, 10)), d))])
    probe = probe[rng.permutation(len(probe))][: draw(st.integers(0, 30))]
    if draw(st.booleans()):
        hit = rng.random(probe.shape) < 0.3
        probe[hit] = rng.choice([np.nan, np.inf, -np.inf], size=int(hit.sum()))
    return boost.fit(X, y), probe


@given(boost_cases())
def test_stacked_members_predict_as_the_member_loop(case):
    boost, probe = case
    assert_matches_reference(boost, probe)


class TestStackedRoutingCases:
    def test_stopped_at_a_perfect_fit(self, rng):
        X = rng.normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(float)
        params = {"max_depth": None, "min_samples_leaf": 1}
        boost = AdaBoostR2("dt", n_estimators=10, seed=1, base_params=params).fit(X, y)
        assert len(boost.members) < 10
        assert boost.member_weights[-1] == np.log(1e10)
        assert_matches_reference(boost, np.vstack([X, rng.normal(size=(10, 2))]))

    def test_first_round_loss_at_least_half_single_member(self, rng):
        # A root-only tree predicts the resample mean m of 0/1 targets; every
        # error is m or 1 - m, so the loss 0.5 / max(m, 1 - m) is >= 0.5.
        X = rng.normal(size=(20, 2))
        y = np.tile([0.0, 1.0], 10)
        boost = AdaBoostR2("dt", n_estimators=10, seed=2, base_params={"max_depth": 0}).fit(X, y)
        assert boost.member_weights == [1.0]
        assert_matches_reference(boost, X)

    def test_zero_rows_and_one_dimensional_rows(self, rng):
        X, y = noisy_sine(60, seed=5)
        boost = AdaBoostR2("dt", n_estimators=6, seed=5).fit(X, y)
        assert boost.predict(np.empty((0, 1))).shape == (0,)
        assert_matches_reference(boost, np.empty((0, 1)))
        assert boost.predict(X[3]).tobytes() == boost.predict(X[3:4]).tobytes()

    def test_refit_predicts_as_a_fresh_model(self, rng):
        X1, y1 = noisy_sine(50, seed=1)
        X2 = rng.normal(size=(70, 4))
        y2 = X2[:, 3] * 5 + X2[:, 2]
        model = AdaBoostR2("dt", n_estimators=6, seed=3).fit(X1, y1).fit(X2, y2)
        fresh = AdaBoostR2("dt", n_estimators=6, seed=3).fit(X2, y2)
        probe = np.vstack([X2, rng.normal(size=(20, 4))])
        assert model.predict(probe).tobytes() == fresh.predict(probe).tobytes()


class TestPredictRejectsUnusableInput:
    def test_input_of_more_than_two_dimensions(self):
        X, y = noisy_sine(40, seed=2)
        boost = AdaBoostR2("dt", n_estimators=3, seed=2).fit(X, y)
        with pytest.raises(InputError, match="2-D"):
            boost.predict(np.zeros((2, 1, 1)))

    def test_fewer_columns_than_the_splits_read(self, rng):
        X = rng.normal(size=(60, 3))
        boost = AdaBoostR2("dt", n_estimators=4, seed=1).fit(X, X[:, 2] * 3)
        with pytest.raises(InputError, match="split on column 2"):
            boost.predict(X[:, :2])
