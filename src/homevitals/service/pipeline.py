"""Service orchestration: ingest validated signal payloads into the store,
assemble per-subject bundles, train the stress classifier and blood-pressure
regressors from stored data, and answer queries from the latest signals.

Training is an exclusive job; every prediction response carries the model
version and the exact input span it was computed over. Queries only read.

Location state is rebuilt from the store when the service starts: the tags
the config names, then the tag registrations made at runtime, then the
stored tag events inside the search window, each through the code a live
request runs. Where a stored registration conflicts with the config, the
config wins; events of tags no longer registered are skipped.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, replace
from typing import Callable, Iterable

import numpy as np

from ..datasets import (
    BP_SEGMENT_S,
    BP_TREE_PARAMS,
    FOREST_PARAMS,
    bp_rows,
    bp_training_rows,
    check_pressure_rate,
    stress_rows,
)
from ..errors import (
    ConfigError,
    DegenerateTraining,
    FormatError,
    InputError,
    NotReady,
    NoWindow,
    RegistrationError,
    TrainingBusy,
)
from ..features import (
    BP_REDUCED_NAMES,
    MIN_SEGMENT_S,
    FeatureMatrix,
    bp_reduced_features,
    stress_feature_matrix,
)
from ..labeling import CortisolSample, LabelRule, Timepoint
from ..location import EventLog, MatchConfig, TagKind, register, resolve_location
from ..models import (
    AdaBoostR2,
    RandomForestClassifier,
    check_feature_schema,
    document_version,
    load_document,
    model_document,
)
from ..signals import (
    Channel,
    ChannelBundle,
    IbiSeries,
    SampledSpan,
    SampleSeries,
    Window,
    int64_time,
    ppg_lowpass,
    window_grid,
)
from .config import ServiceConfig
from .store import IndexEntry, JsonlStore, decode_samples, encode_samples

log = logging.getLogger(__name__)

CONTIGUITY_SLOP_MS = 2
# The names of the DERIVED chunks BP training takes its SBP and DBP targets from.
PRESSURE_NAMES = ("sbp_mmhg", "dbp_mmhg")


def json_field(source: dict, key: str, convert):
    """source[key] passed through convert; absent or unconvertible is an InputError."""
    if key not in source:
        raise InputError(f"missing field {key!r}")
    try:
        return convert(source[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{key}: {exc}") from exc


def json_int(value) -> int:
    if type(value) is not int:  # not a bool, a float or a numeric string
        raise TypeError(f"must be an integer, got {value!r}")
    return value


def json_time(value) -> int:
    """A time in ms: a JSON integer that fits int64."""
    return int64_time(json_int(value))


def json_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):  # not a bool or a numeric string
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def json_numbers(values) -> list:
    """A JSON array of numbers, checked in one pass over the item types."""
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise TypeError("must be an array of numbers, not bools, strings or nulls")
    return values


def _chunk_payload(series: SampleSeries, name: str | None, **samples) -> dict:
    payload = {
        "channel": series.channel.value,
        "rate_hz": series.rate_hz,
        "start_ms": series.start_ms,
        **samples,
    }
    if name is not None:
        payload["name"] = name
    return payload


def series_to_payload(series: SampleSeries, name: str | None = None) -> dict:
    """A chunk of a sync body: its samples as a JSON list."""
    return _chunk_payload(series, name, values=[float(v) for v in series.values])


def _stored_chunk(series: SampleSeries, name: str | None) -> dict:
    """A chunk as the store keeps it: its samples as base64 float64."""
    return _chunk_payload(series, name, f64le=encode_samples(series.values))


def payload_to_series(payload: dict, field: str = "chunk") -> SampleSeries:
    try:
        return SampleSeries(
            channel=Channel(payload["channel"]),
            rate_hz=json_field(payload, "rate_hz", json_number),
            start_ms=json_field(payload, "start_ms", json_time),
            values=json_field(payload, "values", json_numbers),
        )
    except (KeyError, ValueError, TypeError, OverflowError, InputError) as exc:
        raise InputError(f"{field}: {exc}") from exc


def cortisol_to_payload(samples: Iterable[CortisolSample]) -> list[dict]:
    return [
        {
            "timepoint": s.timepoint.value,
            "t_ms": s.t_ms,
            "concentration_ugdl": s.concentration_ugdl,
        }
        for s in samples
    ]


def payload_to_cortisol(payload: Iterable[dict], subject_id: str) -> list[CortisolSample]:
    samples = []
    for i, entry in enumerate(payload):
        try:
            samples.append(
                CortisolSample(
                    subject_id=subject_id,
                    timepoint=Timepoint(entry["timepoint"]),
                    t_ms=json_field(entry, "t_ms", json_time),
                    concentration_ugdl=json_field(entry, "concentration_ugdl", json_number),
                )
            )
        except (KeyError, ValueError, TypeError, OverflowError, InputError) as exc:
            raise InputError(f"cortisol[{i}]: {exc}") from exc
    return samples


def _ibi_pairs(ibi: IbiSeries) -> list[list]:
    return [[t, v] for t, v in ibi]


def sync_body(
    subject_id: str,
    chunks: Iterable[SampleSeries | tuple[str, SampleSeries]],
    ibi: IbiSeries | None = None,
    cortisol: Iterable[CortisolSample] = (),
) -> dict:
    """A POST /signals/sync body. Each chunk is a series, or a (name, series)
    pair for a named derived channel."""
    payloads = []
    for chunk in chunks:
        name, series = (None, chunk) if isinstance(chunk, SampleSeries) else chunk
        payloads.append(series_to_payload(series, name))
    body = {"subject_id": subject_id, "chunks": payloads}
    if ibi is not None:
        body["ibi"] = _ibi_pairs(ibi)
    cortisol_payloads = cortisol_to_payload(cortisol)
    if cortisol_payloads:
        body["cortisol"] = cortisol_payloads
    return body


def _list_field(request: dict, key: str) -> list:
    items = request.get(key, [])
    if not isinstance(items, list):
        raise InputError(f"{key}: must be a list")
    return items


@dataclass(frozen=True)
class _Span(SampledSpan):
    """Samples [lo, hi) of a contiguous run of one channel's chunks, planned
    from index metadata. SampledSpan places it in time, so slicing a span
    places it exactly where slicing the decoded run would."""

    channel: Channel
    rate_hz: float
    start_ms: int
    chunks: tuple[IndexEntry, ...]  # the run's chunks, oldest first
    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo

    def _take(self, start_idx: int, stop_idx: int, start_ms: int) -> "_Span":
        return replace(self, start_ms=start_ms, lo=self.lo + start_idx, hi=self.lo + stop_idx)


def _latest_run(
    entries: list[IndexEntry], channel: Channel, name: str | None = None
) -> _Span | None:
    """The latest contiguous run of (channel, name) chunks: queries answer
    from fresh, gap-free signal."""
    value = channel.value
    chunks = sorted(
        (e for e in entries if e.meta.channel == value and e.meta.name == name),
        key=lambda e: int(e.meta.start_ms),
    )
    if not chunks:
        return None
    first = len(chunks) - 1
    while first:
        prev = chunks[first - 1].meta
        end_ms = SampledSpan.time_of(prev.n_samples, int(prev.start_ms), float(prev.rate_hz))
        if abs(end_ms - int(chunks[first].meta.start_ms)) > CONTIGUITY_SLOP_MS:
            break
        first -= 1
    run = tuple(chunks[first:])
    return _Span(
        channel=channel,
        rate_hz=float(run[0].meta.rate_hz),
        start_ms=int(run[0].meta.start_ms),
        chunks=run,
        lo=0,
        hi=sum(entry.meta.n_samples for entry in run),
    )


class VitalsService:
    def __init__(self, config: ServiceConfig, store: JsonlStore):
        self.config = config
        self.window_spec = config.window_spec
        self.store = store
        table = register(sorted(config.user_tags.items()), sorted(config.location_tags.items()))
        self.tag_log = EventLog(table, config.match_config)
        self._tag_lock = threading.Lock()
        self._train_lock = threading.Lock()
        # model_key -> (version, (model, payload) or why it cannot be loaded)
        self._models: dict[str, tuple[str, tuple[object, dict] | str]] = {}
        self._replay_tags()

    # -- ingestion -----------------------------------------------------------

    def sync_signals(self, request: dict) -> dict:
        """Validate and persist chunks, beat events, and cortisol samples.

        The whole request is validated before anything is stored, so a
        rejected sync leaves the store untouched; its records are then
        stored in one batch, with one fsync. A chunk whose samples end
        outside int64 ms, a PPG chunk at a rate ppg_lowpass cannot filter,
        and a pressure chunk at a rate check_pressure_rate refuses are refused.
        """
        subject_id = request.get("subject_id")
        if not subject_id or not isinstance(subject_id, str):
            raise InputError("subject_id: must be a non-empty string")
        records = []  # (kind, payload) in append order
        for i, chunk in enumerate(_list_field(request, "chunks")):
            series = payload_to_series(chunk, field=f"chunks[{i}]")
            if len(series) == 0:
                raise InputError(f"chunks[{i}]: values must not be empty")
            try:
                int64_time(series.end_ms)
            except (OverflowError, ValueError) as exc:
                raise InputError(f"chunks[{i}]: samples end outside int64 ms: {exc}") from exc
            name = chunk.get("name")
            if name is not None and not isinstance(name, str):
                raise InputError(f"chunks[{i}]: name must be a string")
            if series.channel is Channel.PPG:
                try:
                    ppg_lowpass(series.rate_hz)
                except ConfigError as exc:
                    raise InputError(
                        f"chunks[{i}]: PPG at {series.rate_hz} Hz cannot be low-passed: {exc}"
                    ) from exc
            if series.channel is Channel.DERIVED and name in PRESSURE_NAMES:
                try:
                    check_pressure_rate(series.rate_hz)
                except InputError as exc:
                    raise InputError(f"chunks[{i}]: {exc}") from exc
            records.append(("signal_chunk", _stored_chunk(series, name)))
        ibi_events = request.get("ibi", [])
        if ibi_events:
            try:
                ibi = IbiSeries.from_pairs([(json_time(t), json_number(v)) for t, v in ibi_events])
            except (InputError, ValueError, TypeError, OverflowError) as exc:
                raise InputError(f"ibi: {exc}") from exc
            records.append(("ibi_chunk", {"events": _ibi_pairs(ibi)}))
        samples = payload_to_cortisol(_list_field(request, "cortisol"), subject_id)
        records += [("cortisol", payload) for payload in cortisol_to_payload(samples)]

        appended = self.store.append_many((kind, subject_id, payload) for kind, payload in records)
        stored = sum(record is not None for record in appended)
        return {"subject_id": subject_id, "stored": stored, "duplicates": len(records) - stored}

    # -- bundle assembly -------------------------------------------------------
    #
    # Which samples a bundle or segment covers is planned from the store's
    # index metadata alone; only the chunks under the planned samples are
    # decoded. Training reads whole runs, queries only what they answer from.

    def _read_series(self, span: _Span, start_ms: int | None = None) -> SampleSeries:
        """The span's samples, decoded from only the chunks under them; placed
        at start_ms when given, else where slicing the run would place them."""
        under, offset = [], 0  # (first sample within the run, chunk)
        for entry in span.chunks:
            n = entry.meta.n_samples
            if n and offset < span.hi and offset + n > span.lo:
                under.append((offset, entry))
            offset += n
        values = np.empty(0)
        if under:
            first = under[0][0]
            records = self.store.records(entry for _offset, entry in under)
            values = np.concatenate([decode_samples(r["payload"]) for r in records])
            values = values[span.lo - first : span.hi - first]
        return SampleSeries(
            channel=span.channel,
            rate_hz=span.rate_hz,
            start_ms=span.start_ms if start_ms is None else start_ms,
            values=values,
        )

    def _read_ibi(self, subject_id: str, start_ms: int, end_ms: int) -> IbiSeries:
        """Beat events with start_ms <= t < end_ms, from the chunks that reach
        into that span; equal times keep the first-synced event."""
        reaching = [
            e
            for e in self.store.index("ibi_chunk", subject_id)
            if e.meta.first_ms is not None
            and e.meta.first_ms < end_ms
            and e.meta.last_ms >= start_ms
        ]
        pairs = [
            (int(t), float(v))
            for record in self.store.records(reaching)
            for t, v in record["payload"]["events"]
        ]
        pairs.sort(key=lambda p: p[0])
        deduped = [p for i, p in enumerate(pairs) if i == 0 or p[0] > pairs[i - 1][0]]
        return IbiSeries.from_pairs(deduped).between(start_ms, end_ms)

    def _read_bundle(
        self, subject_id: str, spans: tuple[_Span, _Span, _Span], start_ms: int, end_ms: int
    ) -> ChannelBundle:
        """The one place a bundle is decoded: the EDA, BVP and ST spans placed
        at start_ms, with the beat events in [start_ms, end_ms)."""
        eda, bvp, st = (self._read_series(span, start_ms) for span in spans)
        return ChannelBundle(
            subject_id=subject_id,
            eda=eda,
            bvp=bvp,
            st=st,
            ibi=self._read_ibi(subject_id, start_ms, end_ms),
            session_start_ms=start_ms,
        )

    def _bundle_spans(self, subject_id: str) -> tuple[int, int, tuple[_Span, _Span, _Span]] | None:
        """Session start, end, and each wristband channel's latest run trimmed
        to their common span; None when a channel is missing or they do not
        overlap."""
        entries = self.store.index("signal_chunk", subject_id)
        runs = [_latest_run(entries, channel) for channel in (Channel.EDA, Channel.BVP, Channel.ST)]
        if any(run is None for run in runs):
            return None
        start = max(run.start_ms for run in runs)
        end = min(run.end_ms for run in runs)
        if end <= start:
            return None

        spans = tuple(
            run.slice_samples(run.index_at(start), min(run.index_at(end), len(run))) for run in runs
        )
        for name, span in zip(("eda", "bvp", "st"), spans):
            if span.start_ms != start:  # as ChannelBundle checks it
                raise InputError(
                    f"{name} starts at {span.start_ms}, expected session origin {start}"
                )
        return start, end, spans

    def assemble_bundle(self, subject_id: str) -> ChannelBundle | None:
        """The subject's whole bundle, as training reads it."""
        planned = self._bundle_spans(subject_id)
        if planned is None:
            return None
        start, end, spans = planned
        return self._read_bundle(subject_id, spans, start, end)

    def _last_window(self, subject_id: str) -> Window:
        """The last window of the subject's bundle, decoding only its samples.

        The bundle returned inside the window holds just those samples, placed
        at the window start; features read sample values and rates only.
        """
        spec = self.window_spec
        planned = self._bundle_spans(subject_id)
        # ChannelBundle.duration_s: the shortest channel.
        duration_s = min(span.duration_s for span in planned[2]) if planned else 0.0
        if duration_s < spec.length_s:
            raise NoWindow(f"no complete {spec.length_s:.0f} s window for {subject_id}")
        start, end, spans = planned
        starts = window_grid(start, duration_s, spec)
        index = len(starts) - 1
        w_start = starts[index]
        w_end = w_start + spec.length_ms
        window_spans = tuple(span.slice_ms(w_start, w_end) for span in spans)
        bundle = self._read_bundle(subject_id, window_spans, w_start, min(end, w_end))
        return Window(index=index, start_ms=w_start, end_ms=w_end, bundle=bundle)

    def _subject_cortisol(self, subject_id: str) -> list[CortisolSample]:
        records = self.store.records(self.store.index("cortisol", subject_id))
        return payload_to_cortisol((record["payload"] for record in records), subject_id)

    # -- training --------------------------------------------------------------

    def _exclusive(self, train: Callable[[int], dict], seed: int | None) -> dict:
        if not self._train_lock.acquire(blocking=False):
            raise TrainingBusy("training already in progress")
        try:
            return train(self.config.seed if seed is None else seed)
        finally:
            self._train_lock.release()

    def _save_model(self, model_key: str, model, names, seed: int, rows: int) -> str:
        """Append the model's document to the store; returns its version."""
        doc = model_document(model, names, seed=seed)
        version = document_version(doc)
        self.store.append(
            "model", "", {"model_key": model_key, "version": version, "document": doc, "rows": rows}
        )
        return version

    def train_stress(self, seed: int | None = None) -> dict:
        return self._exclusive(self._train_stress, seed)

    def _train_stress(self, seed: int) -> dict:
        spec = self.window_spec
        rule = LabelRule(threshold=self.config.label_threshold)
        matrices = []
        for subject_id in self.store.subjects("cortisol"):
            bundle = self.assemble_bundle(subject_id)
            if bundle is None or bundle.duration_s < spec.length_s:
                continue
            samples = self._subject_cortisol(subject_id)
            if len(samples) < 2:
                continue
            matrices.append(stress_rows(bundle, samples, spec, rule))
        if not matrices:
            raise DegenerateTraining("no labeled subjects with complete bundles in store")
        matrix = FeatureMatrix.concat(matrices)
        forest = RandomForestClassifier(
            n_trees=self.config.forest_n_trees,
            max_depth=self.config.forest_max_depth,
            min_samples_leaf=FOREST_PARAMS["min_samples_leaf"],
            seed=seed,
        )
        forest.fit(matrix.X, matrix.labels.astype(int))
        version = self._save_model("stress", forest, matrix.names, seed, len(matrix))
        return {"model_key": "stress", "version": version, "rows": len(matrix)}

    def train_bp(self, seed: int | None = None) -> dict:
        return self._exclusive(self._train_bp, seed)

    def _bp_subject_rows(self) -> Iterable[tuple[str, list]]:
        """(subject id, bp_rows) of each subject's latest PPG, SBP and DBP
        runs, for every subject that has all three."""
        for subject_id in self.store.subjects("signal_chunk"):
            entries = self.store.index("signal_chunk", subject_id)
            runs = (
                _latest_run(entries, Channel.PPG),
                *(_latest_run(entries, Channel.DERIVED, name=name) for name in PRESSURE_NAMES),
            )
            if all(run is not None for run in runs):
                yield subject_id, bp_rows(*(self._read_series(run) for run in runs))

    def _train_bp(self, seed: int) -> dict:
        matrix, sbp_targets, dbp_targets = bp_training_rows(self._bp_subject_rows())
        result = {"rows": len(matrix)}
        for key, targets in (("bp_sbp", sbp_targets), ("bp_dbp", dbp_targets)):
            model = AdaBoostR2(
                "dt",
                n_estimators=self.config.bp_boost_estimators,
                seed=seed,
                base_params=BP_TREE_PARAMS,
            )
            model.fit(matrix.X, targets)
            result[key] = self._save_model(key, model, matrix.names, seed, len(matrix))
        return result

    # -- queries -----------------------------------------------------------------

    def model_versions(self) -> dict[str, str]:
        """The newest version of each trained model key, from the store index;
        no record is read."""
        return {e.meta.model_key: e.meta.version for e in self.store.index("model", "")}

    def _latest_model(self, model_key: str) -> tuple[object, dict]:
        """The newest model of model_key, loaded once per version. A stored
        version that cannot be loaded is NotReady until a newer one is stored,
        and is not read again."""
        version = self.model_versions().get(model_key)
        if version is None:
            raise NotReady(f"no trained {model_key} model")
        cached_version, loaded = self._models.get(model_key, (None, None))
        if cached_version != version:
            payload = self.store.latest("model", model_key=model_key)["payload"]
            try:
                loaded = (load_document(payload["document"]), payload)
            except FormatError as exc:
                loaded = f"stored {model_key} model {version} cannot be loaded: {exc}"
            self._models[model_key] = (version, loaded)
        if isinstance(loaded, str):
            raise NotReady(loaded)
        return loaded

    def query_stress(self, subject_id: str) -> dict:
        model, meta = self._latest_model("stress")
        window = self._last_window(subject_id)
        matrix = stress_feature_matrix([window])
        check_feature_schema(meta["document"], matrix.names)
        proba = float(model.predict_proba(matrix.X)[0, -1])
        label = "stressed" if proba > 0.5 else "not_stressed"
        return {
            "subject_id": subject_id,
            "label": label,
            "probability": proba,
            "window_start_ms": window.start_ms,
            "window_end_ms": window.end_ms,
            "model_version": meta["version"],
        }

    def query_bp(self, subject_id: str) -> dict:
        sbp_model, sbp_meta = self._latest_model("bp_sbp")
        dbp_model, dbp_meta = self._latest_model("bp_dbp")
        entries = self.store.index("signal_chunk", subject_id)
        source = _latest_run(entries, Channel.PPG)
        if source is None:
            source = _latest_run(entries, Channel.BVP)
        if source is None or source.duration_s < MIN_SEGMENT_S:
            raise NoWindow(f"no recent pulse signal for {subject_id}")
        take = min(len(source), int(BP_SEGMENT_S * source.rate_hz))
        last = source.slice_samples(len(source) - take, len(source))
        segment = self._read_series(last)
        features = FeatureMatrix(BP_REDUCED_NAMES, [bp_reduced_features(segment)], [subject_id])
        check_feature_schema(sbp_meta["document"], features.names)
        sbp = float(sbp_model.predict(features.X)[0])
        dbp = float(dbp_model.predict(features.X)[0])
        swapped = sbp < dbp
        if swapped:
            sbp, dbp = dbp, sbp
        return {
            "subject_id": subject_id,
            "sbp_mmhg": sbp,
            "dbp_mmhg": dbp,
            "segment_start_ms": segment.start_ms,
            "segment_end_ms": segment.end_ms,
            "model_version_sbp": sbp_meta["version"],
            "model_version_dbp": dbp_meta["version"],
            "swapped": swapped,
        }

    # -- location ------------------------------------------------------------------

    def _register(self, kind: TagKind, index: int, name: str) -> None:
        table = self.tag_log.table
        if kind is TagKind.USER:
            table.register_user(index, name)
        else:
            table.register_location(index, name)

    def register_tag(self, kind: TagKind | str, index: int, name: str) -> dict:
        """Register a user tag's identity or a location tag's room, durably."""
        kind = TagKind(kind)
        # One lock from the check to the append: of two racing registrations
        # of one index, one is refused and only the other is stored.
        with self._tag_lock:
            self._register(kind, index, name)
            self.store.append(
                "tag_registration", "", {"kind": kind.value, "index": index, "name": name}
            )
        return {"registered": True}

    def _replay_tags(self) -> None:
        """Replay the stored registrations in store order, then the stored
        tag events inside the search window in arrival order."""
        for record in self.store.records(self.store.index("tag_registration", "")):
            kind, index, name = (record["payload"][k] for k in ("kind", "index", "name"))
            try:
                self._register(TagKind(kind), index, name)
            except RegistrationError as exc:
                log.warning(
                    "stored %s tag registration %d = %r ignored: %s", kind, index, name, exc
                )
        entries = self.store.index("tag_event", "")
        if not entries:
            return
        horizon = self.tag_log.horizon_ms(max(e.meta.t_server_ms for e in entries))
        records = self.store.records(e for e in entries if e.meta.t_server_ms >= horizon)
        skipped = 0
        for record in sorted(records, key=lambda r: (r["payload"]["t_server_ms"], r["seq"])):
            event = record["payload"]
            kind = TagKind(event["kind"])
            if self.tag_log.table.is_registered(kind, event["index"]):
                self.tag_log.ingest_event(kind, event["index"], event["t_server_ms"])
            else:
                skipped += 1
        if skipped:
            log.warning("skipped %d stored tag events of tags no longer registered", skipped)

    def ingest_tag_event(self, kind: str, index: int) -> dict:
        event = self.tag_log.ingest_event(kind, index)
        self.store.append(
            "tag_event",
            "",
            {"kind": event.kind.value, "index": event.index, "t_server_ms": event.t_server_ms},
        )
        return {"accepted": True, "t_server_ms": event.t_server_ms}

    def locate(self, identity: str, tolerance_s: float | None = None):
        cfg = self.config.match_config
        if tolerance_s is not None:
            cfg = MatchConfig(tolerance_s=tolerance_s, search_window_s=cfg.search_window_s)
        return resolve_location(identity, self.tag_log, cfg)
