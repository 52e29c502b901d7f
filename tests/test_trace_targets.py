"""The benchmark's traced run wraps calls into `homevitals` from outside the
program. These tests check that every call it names still resolves where
`perfbench.tracer.install` looks for it: a module attribute, or a method in
the class's own `__dict__` (a method moved into a base class is not found)."""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.layers import targets  # noqa: E402
from perfbench.tracer import Tracer, install  # noqa: E402


@pytest.mark.parametrize(("target", "generator"), [(t[0], t[3]) for t in targets()])
def test_target_resolves_where_install_looks(target, generator):
    module_name, attr = target.split(":")
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        own = vars(getattr(module, cls_name))
        assert method in own, f"{target}: {method} is not defined on {cls_name} itself"
        fn = own[method]
    else:
        fn = getattr(module, attr, None)
    assert callable(fn), target
    assert inspect.isgeneratorfunction(fn) == generator, target


def test_tree_node_counters_read_fitted_trees():
    from homevitals.models import DecisionTreeRegressor, RandomForestClassifier

    hooks = {t[0]: t for t in targets()}
    tracer = Tracer()
    undo = [
        install(tracer, target, name, after=hook)
        for target, name, hook, _generator in (
            hooks["homevitals.models.forest:RandomForestClassifier.fit"],
            hooks["homevitals.models.tree:DecisionTreeRegressor.fit"],
        )
    ]
    try:
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        forest = RandomForestClassifier(n_trees=3, seed=1).fit(X, (X[:, 0] > 0).astype(int))
        tree = DecisionTreeRegressor(max_depth=3).fit(X, X[:, 1])
    finally:
        for step in undo:
            step()
    nodes = sum(len(t.feature) for t in forest.trees) + len(tree.feature)
    assert tracer.counts["models.tree_nodes"] == nodes > 4


def test_extractor_spans_are_recorded_per_window():
    # stress_feature_matrix calls the extractors through a channel table; the
    # wrapped functions must be the ones it calls.
    from helpers import make_bundle
    from homevitals.features import stress_feature_matrix
    from homevitals.signals import WindowSpec, make_windows

    hooks = {t[0]: t for t in targets()}
    extractors = [
        hooks[f"homevitals.features.stress:{channel}_features"]
        for channel in ("eda", "bvp", "ibi", "st")
    ]
    tracer = Tracer()
    undo = [install(tracer, target, name, after=hook) for target, name, hook, _ in extractors]
    try:
        windows = make_windows(make_bundle(duration_s=180.0), WindowSpec(90.0, 45.0))
        matrix = stress_feature_matrix(windows)
    finally:
        for step in undo:
            step()
    spans = tracer.summary()["spans"]
    assert len(matrix) == len(windows) == 3
    for _target, name, _hook, _generator in extractors:
        assert spans[name]["calls"] == len(windows), name
