"""Versioned model artifacts: a self-describing JSON document carrying the
model kind, full parameters, training seed, and the feature-name schema.

Serialization is canonical (sorted keys, fixed separators), so retraining
with the same seed on the same data yields byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

from ..errors import FormatError, InputError
from .boosting import AdaBoostR2
from .forest import RandomForestClassifier
from .mlp import MlpRegressor
from .tree import DecisionTreeClassifier, DecisionTreeRegressor

FORMAT_NAME = "homevitals-model"
SCHEMA_VERSION = 1

_KINDS = {
    RandomForestClassifier: "random_forest",
    DecisionTreeClassifier: "decision_tree_classifier",
    DecisionTreeRegressor: "decision_tree_regressor",
    MlpRegressor: "mlp_regressor",
    AdaBoostR2: "adaboost_r2",
}

_CLASSES = {kind: cls for cls, kind in _KINDS.items()}


def model_document(model, feature_names: Sequence[str], seed: int | None = None) -> dict:
    kind = _KINDS.get(type(model))
    if kind is None:
        raise InputError(f"cannot serialize model of type {type(model).__name__}")
    return {
        "format": FORMAT_NAME,
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "seed": seed if seed is not None else getattr(model, "seed", None),
        "feature_names": list(feature_names),
        "model": model.to_dict(),
    }


def dumps_model(model, feature_names: Sequence[str]) -> str:
    return canonical_json(model_document(model, feature_names))


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def document_version(doc: dict) -> str:
    """Stable short identifier derived from the canonical bytes."""
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:12]


def load_document(doc: dict):
    if doc.get("format") != FORMAT_NAME:
        raise FormatError(f"not a {FORMAT_NAME} document")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(f"unsupported schema version {doc.get('schema_version')}")
    cls = _CLASSES.get(doc.get("kind"))
    if cls is None:
        raise FormatError(f"unknown model kind {doc.get('kind')!r}")
    try:
        return cls.from_dict(doc["model"])
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, InputError) as exc:
        raise FormatError(f"malformed {doc['kind']} document: {type(exc).__name__}: {exc}") from exc


def check_feature_schema(doc: dict, names: Sequence[str]) -> None:
    """Reject a matrix whose feature names do not match the artifact schema."""
    expected = tuple(doc.get("feature_names", ()))
    if tuple(names) != expected:
        raise InputError(
            f"feature schema mismatch: artifact expects {expected}, got {tuple(names)}"
        )
