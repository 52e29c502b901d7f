"""Which calls into `homevitals` the traced run wraps, and how the recorded
spans and counters become the per-layer metrics.

Every time metric is self time in seconds, summed over the traced run: the
time inside that layer's calls minus the time spent in wrapped calls it
made. `_calls` metrics count spans; other counts are noted where defined.
"""

from __future__ import annotations

import json

from .stats import percentile
from .tracer import Tracer, install

ROUTES = ("sync", "stress", "bp", "location", "tag_event", "train_stress", "train_bp")

#: The pipeline span each HTTP route waits on.
ROUTE_SPANS = {
    "sync": "pipeline.sync_signals",
    "stress": "pipeline.query_stress",
    "bp": "pipeline.query_bp",
    "location": "pipeline.locate",
    "tag_event": "pipeline.ingest_tag_event",
    "train_stress": "pipeline.train_stress",
    "train_bp": "pipeline.train_bp",
}

QUERY_SPANS = ("pipeline.query_stress", "pipeline.query_bp")

#: (metric name, unit, how it is derived). Derivations: ("self", span),
#: ("calls", span), ("count", counter), plus a few computed in `per_layer`.
PER_LAYER = [
    ("experiments.build_stress_dataset_s", "s", ("self", "experiments.build_stress_dataset")),
    ("experiments.stress_fusion_s", "s", ("self", "experiments.stress_fusion")),
    ("experiments.build_bp_dataset_s", "s", ("self", "experiments.build_bp_dataset")),
    ("experiments.bp_regressor_s", "s", ("self", "experiments.bp_regressor")),
    ("simulate.session_s", "s", ("self", "simulate.session")),
    ("simulate.bp_records_s", "s", ("self", "simulate.bp_records")),
    ("signals.detect_peaks_s", "s", ("self", "signals.detect_peaks")),
    ("signals.detect_peaks_calls", "count", ("calls", "signals.detect_peaks")),
    ("signals.zero_phase_filter_s", "s", ("self", "signals.zero_phase_filter")),
    ("signals.zero_phase_filter_calls", "count", ("calls", "signals.zero_phase_filter")),
    ("signals.make_windows_s", "s", ("self", "signals.make_windows")),
    ("features.eda_s", "s", ("self", "features.eda")),
    ("features.bvp_s", "s", ("self", "features.bvp")),
    ("features.ibi_s", "s", ("self", "features.ibi")),
    ("features.st_s", "s", ("self", "features.st")),
    ("features.windows", "count", ("count", "features.windows")),
    ("features.bp_reduced_s", "s", ("self", "features.bp_reduced")),
    ("features.bp_segments", "count", ("calls", "features.bp_reduced")),
    ("features.select_s", "s", ("self", "features.select")),
    ("labeling.label_windows_s", "s", ("self", "labeling.label_windows")),
    ("models.forest_fit_s", "s", ("self", "models.forest_fit")),
    ("models.forest_predict_s", "s", ("self", "models.forest_predict")),
    ("models.tree_nodes", "count", ("count", "models.tree_nodes")),
    ("models.dt_fit_s", "s", ("self", "models.dt_fit")),
    ("models.adaboost_fit_s", "s", ("self", "models.adaboost_fit")),
    ("models.mlp_fit_s", "s", ("self", "models.mlp_fit")),
    ("models.load_document_s", "s", ("self", "models.load_document")),
    ("models.load_document_calls", "count", ("calls", "models.load_document")),
    ("models.document_kb", "KiB", ("computed",)),
    ("store.append_s", "s", ("self", "store.append")),
    ("store.appends", "count", ("calls", "store.append")),
    ("store.append_p90_ms", "ms", ("computed",)),
    ("store.records_s", "s", ("self", "store.records")),
    ("store.records_decoded", "count", ("count", "store.records_decoded")),
    ("store.records_decoded_per_query", "count", ("computed",)),
    ("store.latest_s", "s", ("self", "store.latest")),
    ("store.reopen_s", "s", ("self", "store.open")),
    ("store.file_mb", "MB", ("external",)),
    ("store.bytes_per_synced_byte", "ratio", ("external",)),
    ("pipeline.sync_signals_s", "s", ("self", "pipeline.sync_signals")),
    ("pipeline.assemble_bundle_s", "s", ("self", "pipeline.assemble_bundle")),
    ("pipeline.assemble_bundle_calls", "count", ("calls", "pipeline.assemble_bundle")),
    ("pipeline.query_stress_s", "s", ("self", "pipeline.query_stress")),
    ("pipeline.query_bp_s", "s", ("self", "pipeline.query_bp")),
    ("pipeline.train_stress_s", "s", ("self", "pipeline.train_stress")),
    ("pipeline.train_bp_s", "s", ("self", "pipeline.train_bp")),
    ("pipeline.locate_s", "s", ("self", "pipeline.locate")),
    ("pipeline.ingest_tag_event_s", "s", ("self", "pipeline.ingest_tag_event")),
    *[(f"http.self_ms.{route}", "ms", ("external",)) for route in ROUTES],
    ("http.requests", "count", ("external",)),
    ("http.status_4xx", "count", ("external",)),
    ("http.status_5xx", "count", ("external",)),
    ("location.resolve_s", "s", ("self", "location.resolve")),
    ("location.pairs_examined", "count", ("count", "location.pairs_examined")),
    ("location.log_events", "count", ("calls", "location.ingest_event")),
    ("trace.spans", "count", ("computed",)),
    ("trace.overhead_pct", "%", ("external",)),
]

PER_LAYER_UNITS = {name: unit for name, unit, _how in PER_LAYER}


# -- counters taken at the wrapped calls ---------------------------------------


def _count_windows(tracer, args, _result):
    tracer.count("features.windows", len(args[0]))


def _count_forest_nodes(tracer, args, _result):
    tracer.count("models.tree_nodes", sum(len(tree.feature) for tree in args[0].trees))


def _count_tree_nodes(tracer, args, _result):
    tracer.count("models.tree_nodes", len(args[0].feature))


def _count_pairs(tracer, args, _result):
    tracer.count("location.pairs_examined", len(args[0]) * len(args[1]))


def _count_decoded(tracer, _record):
    tracer.count("store.records_decoded")
    if tracer.inside(QUERY_SPANS):
        tracer.count("store.records_decoded_in_query")


def _document_sizer():
    sizes: dict[tuple, int] = {}

    def count(tracer, args, _result):
        doc = args[0]
        model = doc.get("model", {})
        key = (doc.get("kind"), doc.get("seed"), len(doc.get("feature_names", ())),
               len(model.get("trees", model.get("members", ()))))
        if key not in sizes:
            sizes[key] = len(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        tracer.count("models.document_bytes", sizes[key])

    return count


def targets():
    """(target, span name, hook, is_generator) for every wrapped call."""
    return [
        ("homevitals.experiments:build_stress_dataset", "experiments.build_stress_dataset", None, False),
        ("homevitals.experiments:stress_fusion_experiment", "experiments.stress_fusion", None, False),
        ("homevitals.experiments:build_bp_dataset", "experiments.build_bp_dataset", None, False),
        ("homevitals.experiments:bp_regressor_experiment", "experiments.bp_regressor", None, False),
        ("homevitals.simulate.stress_session:simulate_session", "simulate.session", None, False),
        ("homevitals.simulate.bp_records:simulate_bp_records", "simulate.bp_records", None, False),
        ("homevitals.signals.dsp:detect_peaks", "signals.detect_peaks", None, False),
        ("homevitals.signals.dsp:zero_phase_filter", "signals.zero_phase_filter", None, False),
        ("homevitals.signals.windows:make_windows", "signals.make_windows", None, False),
        ("homevitals.features.stress:eda_features", "features.eda", None, False),
        ("homevitals.features.stress:bvp_features", "features.bvp", None, False),
        ("homevitals.features.stress:ibi_features", "features.ibi", None, False),
        ("homevitals.features.stress:st_features", "features.st", None, False),
        ("homevitals.features.stress:stress_feature_matrix", "features.stress_matrix", _count_windows, False),
        ("homevitals.features.pressure:bp_reduced_features", "features.bp_reduced", None, False),
        ("homevitals.features.selection:select_features", "features.select", None, False),
        ("homevitals.labeling:label_windows", "labeling.label_windows", None, False),
        ("homevitals.models.forest:RandomForestClassifier.fit", "models.forest_fit", _count_forest_nodes, False),
        ("homevitals.models.forest:RandomForestClassifier.predict", "models.forest_predict", None, False),
        ("homevitals.models.forest:RandomForestClassifier.predict_proba", "models.forest_predict", None, False),
        ("homevitals.models.tree:DecisionTreeRegressor.fit", "models.dt_fit", _count_tree_nodes, False),
        ("homevitals.models.boosting:AdaBoostR2.fit", "models.adaboost_fit", None, False),
        ("homevitals.models.mlp:MlpRegressor.fit", "models.mlp_fit", None, False),
        ("homevitals.models.serialize:load_document", "models.load_document", _document_sizer(), False),
        ("homevitals.service.store:JsonlStore.__init__", "store.open", None, False),
        ("homevitals.service.store:JsonlStore.append", "store.append", None, False),
        ("homevitals.service.store:JsonlStore.records", "store.records", _count_decoded, True),
        ("homevitals.service.store:JsonlStore.latest", "store.latest", None, False),
        ("homevitals.service.pipeline:VitalsService.sync_signals", "pipeline.sync_signals", None, False),
        ("homevitals.service.pipeline:VitalsService.assemble_bundle", "pipeline.assemble_bundle", None, False),
        ("homevitals.service.pipeline:VitalsService.query_stress", "pipeline.query_stress", None, False),
        ("homevitals.service.pipeline:VitalsService.query_bp", "pipeline.query_bp", None, False),
        ("homevitals.service.pipeline:VitalsService.train_stress", "pipeline.train_stress", None, False),
        ("homevitals.service.pipeline:VitalsService.train_bp", "pipeline.train_bp", None, False),
        ("homevitals.service.pipeline:VitalsService.locate", "pipeline.locate", None, False),
        ("homevitals.service.pipeline:VitalsService.ingest_tag_event", "pipeline.ingest_tag_event", None, False),
        ("homevitals.location:resolve_location", "location.resolve", None, False),
        ("homevitals.location:match_events", "location.match", _count_pairs, False),
        ("homevitals.location:EventLog.ingest_event", "location.ingest_event", None, False),
    ]


def new_tracer() -> Tracer:
    return Tracer(keep_durations={"store.append"})


def install_all(tracer: Tracer) -> None:
    """Import every traced module, then wrap every target."""
    import homevitals.cli  # noqa: F401  (loads every module that may hold a reference)
    import homevitals.experiments  # noqa: F401

    for target, name, hook, generator in targets():
        install(tracer, target, name, after=hook, generator=generator)


def per_layer(summary: dict, external: dict) -> dict[str, float]:
    """Every per-layer metric from a (merged) tracer summary plus the values
    the benchmark measured itself; a layer the run never entered reads 0."""
    spans, counts = summary["spans"], summary["counts"]

    def span(name):
        return spans.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    queries = sum(span(name)["calls"] for name in QUERY_SPANS)
    loads = span("models.load_document")["calls"]
    appends = span("store.append").get("durations", [])
    computed = {
        "models.document_kb": counts.get("models.document_bytes", 0) / 1024 / loads if loads else 0.0,
        "store.append_p90_ms": 1000 * percentile(appends, 90) if appends else 0.0,
        "store.records_decoded_per_query": (
            counts.get("store.records_decoded_in_query", 0) / queries if queries else 0.0
        ),
        "trace.spans": summary["n_spans"],
    }
    out = {}
    for name, _unit, how in PER_LAYER:
        kind = how[0]
        if kind == "self":
            value = span(how[1])["self_s"]
        elif kind == "calls":
            value = span(how[1])["calls"]
        elif kind == "count":
            value = counts.get(how[1], 0)
        elif kind == "computed":
            value = computed[name]
        else:
            value = external.get(name, 0.0)
        out[name] = float(value)
    return out


def mean_span_ms(summary: dict, name: str) -> float | None:
    entry = summary["spans"].get(name)
    if not entry or not entry["calls"]:
        return None
    return 1000 * entry["total_s"] / entry["calls"]
