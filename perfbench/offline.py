"""The offline evaluation workloads: whole tables through the public entry
points of `homevitals.experiments`, repeated until the run time is used.

Table k of a run evaluates cohort seed `seed * 100 + k`, so one seed always
gives the same tables and a run averages over several cohorts.

  ingest  the `build_*_dataset` call: simulation, windows or segments,
          labels and features.
  answer  the whole table, dataset build plus the `*_experiment` call; what
          a researcher waits for.
"""

from __future__ import annotations

import math
import time

from .stats import digest, median, named

#: Small enough that a run holds a few whole tables.
STRESS_SUBJECTS = 4
STRESS_SPLIT_SEEDS = 2
BP_RECORDS = 4
BP_SPLIT_SEEDS = 3

EXPECTED_COMBO_WIDTHS = {1: 18, 2: 35, 3: 41, 4: 47}

#: Model quality, reported as the mean over a run's tables.
QUALITY_UNITS = {"stress_macro_f1": "score", "sbp_mae_mmhg": "mmHg", "dbp_mae_mmhg": "mmHg"}


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def stress_table(cohort_seed: int) -> dict:
    from homevitals import experiments

    started = time.perf_counter()
    datasets = experiments.build_stress_dataset(STRESS_SUBJECTS, cohort_seed=cohort_seed)
    built = time.perf_counter()
    results = experiments.stress_fusion_experiment(
        datasets, cohort_seed=cohort_seed, split_seeds=range(STRESS_SPLIT_SEEDS)
    )
    done = time.perf_counter()
    rows = {"+".join(combo): r.as_row() for combo, r in results.items()}
    problems = []
    for combo, row in rows.items():
        width = EXPECTED_COMBO_WIDTHS.get(len(combo.split("+")))
        if row["total_features"] != width:
            problems.append(f"{combo}: {row['total_features']} columns, expected {width}")
        for key in ("f1_stressed", "f1_not_stressed", "macro_f1", "accuracy_pct"):
            if not _finite(row[key]):
                problems.append(f"{combo}: {key} = {row[key]!r}")
        if row["auc"] is not None and not _finite(row["auc"]):
            problems.append(f"{combo}: auc = {row['auc']!r}")
    if len(rows) != len(EXPECTED_COMBO_WIDTHS):
        problems.append(f"{len(rows)} channel combinations, expected 4")
    full = rows.get("EDA+BVP+IBI+ST", {})
    return {
        "rows": len(next(iter(datasets.values()))),
        "ingest_s": built - started,
        "answer_s": done - started,
        "experiment_s": done - built,
        "quality": {"stress_macro_f1": full.get("macro_f1")},
        "digest": digest(rows),
        "problems": problems,
    }


def bp_table(cohort_seed: int) -> dict:
    from homevitals import experiments

    started = time.perf_counter()
    dataset = experiments.build_bp_dataset(BP_RECORDS, seed=cohort_seed)
    built = time.perf_counter()
    table = experiments.bp_regressor_experiment(
        dataset, split_seeds=range(BP_SPLIT_SEEDS), quick=True
    )
    done = time.perf_counter()
    problems = []
    for target in ("sbp", "dbp"):
        for name in experiments.REGRESSOR_NAMES:
            row = table.get(target, {}).get(name)
            if row is None:
                problems.append(f"{target}/{name}: missing")
                continue
            for key in ("mae", "sd", "pct_within_5mmhg"):
                if not _finite(row.get(key)):
                    problems.append(f"{target}/{name}: {key} = {row.get(key)!r}")
    return {
        "rows": len(dataset[0]),
        "ingest_s": built - started,
        "answer_s": done - started,
        "experiment_s": done - built,
        "quality": {
            "sbp_mae_mmhg": table.get("sbp", {}).get("adaboost_dt", {}).get("mae"),
            "dbp_mae_mmhg": table.get("dbp", {}).get("adaboost_dt", {}).get("mae"),
        },
        "digest": digest(table),
        "problems": problems,
    }


TABLES = {"stress_eval": stress_table, "bp_eval": bp_table}


def run(workload: str, seed: int, seconds: float) -> dict:
    """Whole tables until `seconds` have passed; at least two tables."""
    make = TABLES[workload]
    tables = []
    started = time.perf_counter()
    while len(tables) < 2 or time.perf_counter() - started < seconds:
        tables.append(make(seed * 100 + len(tables)))
    elapsed = time.perf_counter() - started
    rows = sum(t["rows"] for t in tables)
    failed = [t for t in tables if t["problems"]]
    quality = {key: [t["quality"][key] for t in tables] for key in tables[0]["quality"]}
    return {
        "attempted": len(tables),
        "failed": len(failed),
        "problems": [p for t in failed for p in t["problems"]],
        "metrics": {
            "throughput_per_s": rows / elapsed,
            "ingest_p50_ms": 1000 * median([t["ingest_s"] for t in tables]),
            "answer_p50_ms": 1000 * median([t["answer_s"] for t in tables]),
        },
        "named": {
            "rows_per_s": named(rows / elapsed, "1/s", len(tables)),
            "experiment_p50_ms": named(1000 * median([t["experiment_s"] for t in tables]), "ms", len(tables), 50),
            **{
                key: named(sum(values) / len(values) if all(map(_finite, values)) else None,
                           QUALITY_UNITS[key], len(values))
                for key, values in quality.items()
            },
        },
        "detail": {
            "rows_per_table": [t["rows"] for t in tables],
            "table_digests": [t["digest"] for t in tables],
        },
    }
