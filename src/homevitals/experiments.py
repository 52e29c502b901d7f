"""Calibrated synthetic experiments: the sensor-fusion classification table,
the per-regressor blood-pressure table, and exportable ROC curves.

These back the `evaluate` and `report` CLI commands and the acceptance suite.
Every run is fully determined by its seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import bp_rows, stress_rows
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
from .signals import FilterConfig, WindowSpec
from .simulate import BpMode, generate_cohort, simulate_bp_records, simulate_session

BP_SEGMENT_S = 40.0

FOREST_PARAMS = {"n_trees": 100, "max_depth": 12, "min_samples_leaf": 3}
BP_TREE_PARAMS = {"max_depth": 12, "min_samples_leaf": 3}

REGRESSOR_NAMES = ("mlp", "dt", "adaboost_dt", "adaboost_mlp")


def build_stress_dataset(
    n_subjects: int = 40,
    cohort_seed: int = 0,
    spec: WindowSpec | None = None,
) -> dict[tuple[str, ...], FeatureMatrix]:
    """Labeled feature matrices for every reported channel combination."""
    spec = spec or WindowSpec()
    profiles, script = generate_cohort(n_subjects, seed=cohort_seed)
    per_combo: dict[tuple[str, ...], list[FeatureMatrix]] = {
        combo: [] for combo in CHANNEL_COMBINATIONS
    }
    for i, profile in enumerate(profiles):
        bundle, samples = simulate_session(profile, script, seed=1000 + i)
        full = stress_rows(bundle, samples, spec)
        for combo in CHANNEL_COMBINATIONS:
            names = [n for n in full.names if n.split("_")[0].upper() in combo]
            per_combo[combo].append(full.select_columns(names))
    return {combo: FeatureMatrix.concat(parts) for combo, parts in per_combo.items()}


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
    results: dict[tuple[str, ...], StressComboResult] = {}
    for combo, matrix in datasets.items():
        selection = select_features(matrix, mode="significance", seed=cohort_seed)
        result = StressComboResult(
            channels=combo,
            total_features=len(matrix.names),
            selected_features=len(selection.selected),
        )
        for seed in split_seeds:
            train, test = subject_split(matrix, 0.25, seed=seed)
            forest = RandomForestClassifier(seed=seed, **forest_params)
            forest.fit(train.X, train.labels.astype(int))
            y_test = test.labels.astype(int)
            proba = forest.predict_proba(test.X)[:, -1]
            # Tiny cohorts can yield one-class test splits; AUC is undefined
            # there and simply skipped for that seed.
            both_classes = 0 < y_test.sum() < y_test.size
            metrics = classification_metrics(
                y_test, forest.predict(test.X), scores=proba if both_classes else None
            )
            result.accuracies.append(metrics.accuracy)
            result.f1_stressed.append(metrics.f1_positive)
            result.f1_not_stressed.append(metrics.f1_negative)
            result.macro_f1.append(metrics.macro_f1)
            if metrics.roc_auc is not None:
                result.auc.append(metrics.roc_auc)
        results[combo] = result
    return results


def stress_roc_curves(
    datasets: dict[tuple[str, ...], FeatureMatrix] | None = None,
    n_subjects: int = 40,
    cohort_seed: int = 0,
    split_seed: int = 0,
    forest_params: dict | None = None,
) -> dict[str, list[tuple[float, float]]]:
    """One ROC point list per channel combination, from a single split."""
    datasets = datasets or build_stress_dataset(n_subjects, cohort_seed)
    forest_params = forest_params or FOREST_PARAMS
    curves: dict[str, list[tuple[float, float]]] = {}
    for combo, matrix in datasets.items():
        # Advance past split seeds whose test half is single-class.
        for candidate in range(split_seed, split_seed + 25):
            train, test = subject_split(matrix, 0.25, seed=candidate)
            y_test = test.labels.astype(int)
            if 0 < y_test.sum() < y_test.size:
                break
        forest = RandomForestClassifier(seed=candidate, **forest_params)
        forest.fit(train.X, train.labels.astype(int))
        proba = forest.predict_proba(test.X)[:, -1]
        curves["+".join(combo)] = roc_points(y_test, proba)
    return curves


def build_bp_dataset(
    n_records: int = 20,
    mode: BpMode | str = BpMode.SHORT_TERM,
    seed: int = 0,
    segment_s: float = BP_SEGMENT_S,
) -> tuple[FeatureMatrix, np.ndarray, np.ndarray]:
    """Reduced-feature matrix over fixed-length segments plus SBP/DBP targets."""
    segments = []
    for record in simulate_bp_records(n_records, mode, seed=seed):
        for u, unit in enumerate(record.units):
            cfg = FilterConfig.for_rate(unit.ppg.rate_hz)
            segments += bp_rows(
                unit.ppg, unit.sbp, unit.dbp, segment_s, cfg, record.record_id, f"{u}:"
            )
    if not segments:
        raise InputError(f"no whole {segment_s:g} s segment in the simulated records")
    rows, sbp_targets, dbp_targets = zip(*segments)
    return FeatureMatrix(rows), np.asarray(sbp_targets), np.asarray(dbp_targets)


def _make_regressor(name: str, seed: int, quick: bool):
    if name == "mlp":
        return MlpRegressor(hidden=32, epochs=60 if quick else 150, seed=seed)
    if name == "dt":
        return DecisionTreeRegressor(seed=seed, **BP_TREE_PARAMS)
    if name == "adaboost_dt":
        return AdaBoostR2(
            "dt", n_estimators=30, seed=seed, base_params=BP_TREE_PARAMS
        )
    if name == "adaboost_mlp":
        return AdaBoostR2(
            "mlp",
            n_estimators=5 if quick else 10,
            seed=seed,
            base_params={"hidden": 16, "epochs": 30 if quick else 60},
        )
    raise ValueError(f"unknown regressor {name!r}")


def bp_regressor_experiment(
    dataset: tuple[FeatureMatrix, np.ndarray, np.ndarray] | None = None,
    n_records: int = 20,
    mode: BpMode | str = BpMode.SHORT_TERM,
    seed: int = 0,
    split_seeds: range = range(3),
    regressors: tuple[str, ...] = REGRESSOR_NAMES,
    quick: bool = True,
) -> dict[str, dict[str, dict]]:
    """Held-out MAE / SD / pct-within-5mmHg per regressor and target."""
    matrix, sbp, dbp = dataset or build_bp_dataset(n_records, mode, seed)
    out: dict[str, dict[str, dict]] = {}
    for target_name, targets in (("sbp", sbp), ("dbp", dbp)):
        labeled = matrix.with_labels(targets)
        per_regressor: dict[str, dict] = {}
        for name in regressors:
            maes, sds, pcts = [], [], []
            for split_seed in split_seeds:
                train, test = subject_split(labeled, 0.25, seed=split_seed)
                model = _make_regressor(name, split_seed, quick)
                model.fit(train.X, train.labels)
                metrics = regression_metrics(test.labels, model.predict(test.X))
                maes.append(metrics.mae)
                sds.append(metrics.sd)
                pcts.append(metrics.pct_within_5mmhg)
            per_regressor[name] = {
                "mae": round(float(np.mean(maes)), 3),
                "sd": round(float(np.mean(sds)), 3),
                "pct_within_5mmhg": round(float(np.mean(pcts)), 2),
            }
        out[target_name] = per_regressor
    return out
