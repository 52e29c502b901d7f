"""Calibrated synthetic experiments: the sensor-fusion classification table,
the per-regressor blood-pressure table, and exportable ROC curves.

These back the `evaluate` and `report` CLI commands and the acceptance suite.
Every run is fully determined by its seeds.

A table's independent jobs (one per stress subject, per BP record, per
(combination, split seed) or per (target, regressor, split seed)) run on
min(available CPUs, jobs) forked worker processes, and their results are
merged in submission order, so every table is identical to the serial run's.
With one CPU, or when the caller runs other threads, the jobs run in the
calling process. The service trains in its own process and does not use
these pools.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .datasets import (
    BP_BOOST_ROUNDS,
    BP_TREE_PARAMS,
    FOREST_PARAMS,
    bp_rows,
    bp_training_rows,
    stress_rows,
)
from .errors import InputError
from .features import CHANNEL_COMBINATIONS, FeatureMatrix, select_features
from .models import (
    AdaBoostR2,
    DecisionTreeRegressor,
    MlpRegressor,
    RandomForestClassifier,
    classification_metrics,
    regression_metrics,
    roc_points,
    subject_split,
)
from .signals import WindowSpec
from .simulate import BpMode, bp_record, generate_cohort, subject_session

REGRESSOR_NAMES = ("mlp", "dt", "adaboost_dt", "adaboost_mlp")


def _ordered_map(fn: Callable, jobs: Sequence[tuple]) -> list:
    """[fn(*job) for job in jobs], with the jobs spread over forked workers.

    `fn` must be a module-level function and every job a tuple of picklable
    arguments. Results come back in submission order, and a failing job raises
    its own exception, the first in that order as in the serial loop. The jobs
    run in this process when there is one worker, or when other threads are
    live, because forking a threaded process can deadlock the child.
    """
    # Platforms without an affinity call (macOS, Windows) lack a safe fork too.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(jobs))
    if workers <= 1 or threading.active_count() > 1:
        return [fn(*job) for job in jobs]
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:
                future.cancel()


def _subject_rows(profile, script, index: int) -> FeatureMatrix:
    bundle, samples = subject_session(profile, script, index)
    return stress_rows(bundle, samples, WindowSpec())


def build_stress_dataset(
    n_subjects: int = 40, cohort_seed: int = 0
) -> dict[tuple[str, ...], FeatureMatrix]:
    """Labeled feature matrices for every reported channel combination."""
    profiles, script = generate_cohort(n_subjects, seed=cohort_seed)
    jobs = [(profile, script, i) for i, profile in enumerate(profiles)]
    full = FeatureMatrix.concat(_ordered_map(_subject_rows, jobs))
    return {
        combo: full.select_columns([n for n in full.names if n.split("_")[0].upper() in combo])
        for combo in CHANNEL_COMBINATIONS
    }


@dataclass
class StressComboResult:
    channels: tuple[str, ...]
    total_features: int
    selected_features: int
    accuracies: list[float] = field(default_factory=list)
    f1_stressed: list[float] = field(default_factory=list)
    f1_not_stressed: list[float] = field(default_factory=list)
    macro_f1: list[float] = field(default_factory=list)
    auc: list[float] = field(default_factory=list)

    def as_row(self) -> dict:
        return {
            "signals": "+".join(self.channels),
            "total_features": self.total_features,
            "selected_features": self.selected_features,
            "f1_stressed": round(float(np.mean(self.f1_stressed)), 4),
            "f1_not_stressed": round(float(np.mean(self.f1_not_stressed)), 4),
            "macro_f1": round(float(np.mean(self.macro_f1)), 4),
            "accuracy_pct": round(100 * float(np.mean(self.accuracies)), 2),
            "auc": round(float(np.mean(self.auc)), 4) if self.auc else None,
        }


def _forest_split_metrics(matrix: FeatureMatrix, seed: int, forest_params: dict):
    train, test = subject_split(matrix, 0.25, seed=seed)
    forest = RandomForestClassifier(seed=seed, **forest_params)
    forest.fit(train.X, train.labels.astype(int))
    y_test = test.labels.astype(int)
    proba = forest.predict_proba(test.X)
    # Votes are integer counts over n_trees, so the first maximum of the
    # probabilities is the label predict() would give.
    predicted = forest.classes_[np.argmax(proba, axis=1)]
    # Tiny cohorts can yield one-class test splits; AUC is undefined
    # there and simply skipped for that seed.
    both_classes = 0 < y_test.sum() < y_test.size
    return classification_metrics(
        y_test, predicted, scores=proba[:, -1] if both_classes else None
    )


def stress_fusion_experiment(
    datasets: dict[tuple[str, ...], FeatureMatrix] | None = None,
    n_subjects: int = 40,
    cohort_seed: int = 0,
    split_seeds: range = range(10),
    forest_params: dict | None = None,
) -> dict[tuple[str, ...], StressComboResult]:
    """Subject-split random-forest metrics per channel combination."""
    datasets = datasets or build_stress_dataset(n_subjects, cohort_seed)
    forest_params = forest_params or FOREST_PARAMS
    seeds = list(split_seeds)
    jobs = [(matrix, seed, forest_params) for matrix in datasets.values() for seed in seeds]
    scored = iter(_ordered_map(_forest_split_metrics, jobs))
    results: dict[tuple[str, ...], StressComboResult] = {}
    for combo, matrix in datasets.items():
        selection = select_features(matrix)
        result = StressComboResult(
            channels=combo,
            total_features=len(matrix.names),
            selected_features=len(selection.selected),
        )
        for metrics in itertools.islice(scored, len(seeds)):
            result.accuracies.append(metrics.accuracy)
            result.f1_stressed.append(metrics.f1_positive)
            result.f1_not_stressed.append(metrics.f1_negative)
            result.macro_f1.append(metrics.macro_f1)
            if metrics.roc_auc is not None:
                result.auc.append(metrics.roc_auc)
        results[combo] = result
    return results


def _roc_curve(matrix: FeatureMatrix, forest_params: dict) -> list[tuple[float, float]]:
    # Advance past split seeds whose test half is single-class.
    for candidate in range(25):
        train, test = subject_split(matrix, 0.25, seed=candidate)
        y_test = test.labels.astype(int)
        if 0 < y_test.sum() < y_test.size:
            break
    forest = RandomForestClassifier(seed=candidate, **forest_params)
    forest.fit(train.X, train.labels.astype(int))
    return roc_points(y_test, forest.predict_proba(test.X)[:, -1])


def stress_roc_curves(
    datasets: dict[tuple[str, ...], FeatureMatrix] | None = None,
    n_subjects: int = 40,
    cohort_seed: int = 0,
    forest_params: dict | None = None,
) -> dict[str, list[tuple[float, float]]]:
    """One ROC point list per channel combination, from a single split."""
    datasets = datasets or build_stress_dataset(n_subjects, cohort_seed)
    forest_params = forest_params or FOREST_PARAMS
    jobs = [(matrix, forest_params) for matrix in datasets.values()]
    curves = _ordered_map(_roc_curve, jobs)
    return {"+".join(combo): curve for combo, curve in zip(datasets, curves)}


def _record_bp_rows(index: int, mode: BpMode | str, seed: int) -> tuple[str, list]:
    record = bp_record(index, mode, seed)
    rows = [row for unit in record.units for row in bp_rows(unit.ppg, unit.sbp, unit.dbp)]
    return record.record_id, rows


def build_bp_dataset(
    n_records: int = 20,
    mode: BpMode | str = BpMode.SHORT_TERM,
    seed: int = 0,
) -> tuple[FeatureMatrix, np.ndarray, np.ndarray]:
    """Reduced-feature matrix over fixed-length segments plus SBP/DBP targets,
    the records of simulate_bp_records(n_records, mode, seed) in order."""
    if n_records < 1:
        raise InputError("n_records must be >= 1")
    jobs = [(i, mode, seed) for i in range(n_records)]
    return bp_training_rows(_ordered_map(_record_bp_rows, jobs))


def _make_regressor(name: str, seed: int, quick: bool):
    if name == "mlp":
        return MlpRegressor(hidden=32, epochs=60 if quick else 150, seed=seed)
    if name == "dt":
        return DecisionTreeRegressor(seed=seed, **BP_TREE_PARAMS)
    if name == "adaboost_dt":
        return AdaBoostR2("dt", n_estimators=BP_BOOST_ROUNDS, seed=seed, base_params=BP_TREE_PARAMS)
    if name == "adaboost_mlp":
        return AdaBoostR2(
            "mlp",
            n_estimators=5 if quick else 10,
            seed=seed,
            base_params={"hidden": 16, "epochs": 30 if quick else 60},
        )
    raise ValueError(f"unknown regressor {name!r}")


def _regressor_split_metrics(labeled: FeatureMatrix, name: str, split_seed: int, quick: bool):
    train, test = subject_split(labeled, 0.25, seed=split_seed)
    model = _make_regressor(name, split_seed, quick)
    model.fit(train.X, train.labels)
    return regression_metrics(test.labels, model.predict(test.X))


def bp_regressor_experiment(
    dataset: tuple[FeatureMatrix, np.ndarray, np.ndarray] | None = None,
    n_records: int = 20,
    mode: BpMode | str = BpMode.SHORT_TERM,
    seed: int = 0,
    split_seeds: range = range(3),
    quick: bool = True,
) -> dict[str, dict[str, dict]]:
    """Held-out MAE / SD / pct-within-5mmHg per regressor and target."""
    matrix, sbp, dbp = dataset or build_bp_dataset(n_records, mode, seed)
    targets = {"sbp": matrix.with_labels(sbp), "dbp": matrix.with_labels(dbp)}
    seeds = list(split_seeds)
    jobs = [
        (labeled, name, split_seed, quick)
        for labeled in targets.values()
        for name in REGRESSOR_NAMES
        for split_seed in seeds
    ]
    scored = iter(_ordered_map(_regressor_split_metrics, jobs))
    out: dict[str, dict[str, dict]] = {}
    for target_name in targets:
        per_regressor: dict[str, dict] = {}
        for name in REGRESSOR_NAMES:
            metrics = list(itertools.islice(scored, len(seeds)))
            per_regressor[name] = {
                "mae": round(float(np.mean([m.mae for m in metrics])), 3),
                "sd": round(float(np.mean([m.sd for m in metrics])), 3),
                "pct_within_5mmhg": round(
                    float(np.mean([m.pct_within_5mmhg for m in metrics])), 2
                ),
            }
        out[target_name] = per_regressor
    return out
