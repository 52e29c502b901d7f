"""Service orchestration: ingest validated signal payloads into the store,
assemble per-subject bundles, train the stress classifier and blood-pressure
regressors from stored data, and answer queries from the latest signals.

Training is an exclusive job; every prediction response carries the model
version and the exact input span it was computed over.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..datasets import bp_rows, stress_rows
from ..errors import DegenerateTraining, InputError, NotReady, NoWindow, TrainingBusy
from ..features import MIN_SEGMENT_S, FeatureMatrix, bp_reduced_features, stress_feature_matrix
from ..labeling import CortisolSample, LabelRule, Timepoint
from ..location import EventLog, LookupTable, MatchConfig, resolve_location
from ..models import (
    AdaBoostR2,
    RandomForestClassifier,
    check_feature_schema,
    document_version,
    load_document,
    model_document,
)
from ..signals import Channel, ChannelBundle, IbiSeries, SampleSeries, Window
from .config import ServiceConfig
from .store import IndexEntry, JsonlStore

CONTIGUITY_SLOP_MS = 2


def series_to_payload(series: SampleSeries, name: str | None = None) -> dict:
    payload = {
        "channel": series.channel.value,
        "rate_hz": series.rate_hz,
        "start_ms": series.start_ms,
        "values": [float(v) for v in series.values],
    }
    if name is not None:
        payload["name"] = name
    return payload


def payload_to_series(payload: dict, field: str = "chunk") -> SampleSeries:
    try:
        return SampleSeries(
            channel=Channel(payload["channel"]),
            rate_hz=float(payload["rate_hz"]),
            start_ms=int(payload["start_ms"]),
            values=payload["values"],
        )
    except (KeyError, ValueError, TypeError, InputError) as exc:
        raise InputError(f"{field}: {exc}") from exc


def _list_field(request: dict, key: str) -> list:
    items = request.get(key, [])
    if not isinstance(items, list):
        raise InputError(f"{key}: must be a list")
    return items


@dataclass(frozen=True)
class _Span:
    """Samples [lo, hi) of one channel's latest contiguous run, planned from
    index metadata. Lengths, times and bounds checks follow SampleSeries, so
    slicing a span places it exactly where slicing the decoded run would."""

    channel: Channel
    rate_hz: float
    start_ms: int
    chunks: tuple[IndexEntry, ...]  # the run's chunks, oldest first
    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo

    @property
    def duration_s(self) -> float:
        return len(self) / self.rate_hz

    @property
    def end_ms(self) -> int:
        return self.start_ms + int(round(1000.0 * len(self) / self.rate_hz))

    def slice_samples(self, start_idx: int, stop_idx: int) -> "_Span":
        if not 0 <= start_idx <= stop_idx <= len(self):
            raise InputError(
                f"slice [{start_idx}:{stop_idx}] out of range for length {len(self)}"
            )
        return replace(
            self,
            start_ms=self.start_ms + int(round(1000.0 * start_idx / self.rate_hz)),
            lo=self.lo + start_idx,
            hi=self.lo + stop_idx,
        )


def _latest_run(
    entries: list[IndexEntry], channel: Channel, name: str | None = None
) -> _Span | None:
    """The latest contiguous run of (channel, name) chunks: queries answer
    from fresh, gap-free signal."""
    chunks = sorted(
        (e for e in entries if e.meta.channel == channel.value and e.meta.name == name),
        key=lambda e: int(e.meta.start_ms),
    )
    if not chunks:
        return None
    run = [chunks[-1]]
    for prev in reversed(chunks[:-1]):
        m = prev.meta
        end_ms = int(m.start_ms) + int(round(1000.0 * m.n_samples / float(m.rate_hz)))
        if abs(end_ms - int(run[0].meta.start_ms)) <= CONTIGUITY_SLOP_MS:
            run.insert(0, prev)
        else:
            break
    return _Span(
        channel=channel,
        rate_hz=float(run[0].meta.rate_hz),
        start_ms=int(run[0].meta.start_ms),
        chunks=tuple(run),
        lo=0,
        hi=sum(entry.meta.n_samples for entry in run),
    )


class VitalsService:
    def __init__(self, config: ServiceConfig, store: JsonlStore, clock: Callable[[], int] | None = None):
        self.config = config
        self.store = store
        table = LookupTable()
        for index, identity in sorted(config.user_tags.items()):
            table.register_user(index, identity)
        for index, room in sorted(config.location_tags.items()):
            table.register_location(index, room)
        self.tag_log = (
            EventLog(table, config.match_config, clock=clock)
            if clock is not None
            else EventLog(table, config.match_config)
        )
        self._train_lock = threading.Lock()
        self._models: dict[str, tuple[object, dict]] = {}

    # -- ingestion -----------------------------------------------------------

    def sync_signals(self, request: dict) -> dict:
        """Validate and persist chunks, beat events, and cortisol samples.

        The whole request is validated before anything is stored, so a
        rejected sync leaves the store untouched.
        """
        subject_id = request.get("subject_id")
        if not subject_id or not isinstance(subject_id, str):
            raise InputError("subject_id: must be a non-empty string")
        chunk_payloads = []
        for i, chunk in enumerate(_list_field(request, "chunks")):
            series = payload_to_series(chunk, field=f"chunks[{i}]")
            if len(series) == 0:
                raise InputError(f"chunks[{i}]: values must not be empty")
            name = chunk.get("name")
            if name is not None and not isinstance(name, str):
                raise InputError(f"chunks[{i}]: name must be a string")
            chunk_payloads.append(series_to_payload(series, name=name))
        ibi_events = request.get("ibi", [])
        if ibi_events:
            try:
                IbiSeries.from_pairs([(int(t), float(v)) for t, v in ibi_events])
            except (InputError, ValueError, TypeError) as exc:
                raise InputError(f"ibi: {exc}") from exc
        cortisol_payloads = []
        for i, sample in enumerate(_list_field(request, "cortisol")):
            try:
                parsed = CortisolSample(
                    subject_id=subject_id,
                    timepoint=Timepoint(sample["timepoint"]),
                    t_ms=int(sample["t_ms"]),
                    concentration_ugdl=float(sample["concentration_ugdl"]),
                )
            except (KeyError, ValueError, TypeError, InputError) as exc:
                raise InputError(f"cortisol[{i}]: {exc}") from exc
            cortisol_payloads.append(
                {
                    "timepoint": parsed.timepoint.value,
                    "t_ms": parsed.t_ms,
                    "concentration_ugdl": parsed.concentration_ugdl,
                }
            )

        stored = duplicates = 0
        for payload in chunk_payloads:
            if self.store.append("signal_chunk", subject_id, payload) is None:
                duplicates += 1
            else:
                stored += 1
        if ibi_events:
            payload = {"events": [[int(t), float(v)] for t, v in ibi_events]}
            if self.store.append("ibi_chunk", subject_id, payload) is None:
                duplicates += 1
            else:
                stored += 1
        for payload in cortisol_payloads:
            if self.store.append("cortisol", subject_id, payload) is None:
                duplicates += 1
            else:
                stored += 1
        return {"subject_id": subject_id, "stored": stored, "duplicates": duplicates}

    # -- bundle assembly -------------------------------------------------------
    #
    # Which samples a bundle or segment covers is planned from the store's
    # index metadata alone; only the chunks under the planned samples are
    # decoded. Training reads whole runs, queries only what they answer from.

    def _read_series(
        self, subject_id: str, span: _Span, start_ms: int | None = None
    ) -> SampleSeries:
        """The span's samples, decoded from only the chunks under them; placed
        at start_ms when given, else where slicing the run would place them."""
        under, offset = [], 0  # (first sample within the run, chunk)
        for entry in span.chunks:
            n = entry.meta.n_samples
            if n and offset < span.hi and offset + n > span.lo:
                under.append((offset, entry))
            offset += n
        seqs = {entry.seq for _offset, entry in under}
        decoded = {
            record["seq"]: record["payload"]["values"]
            for record in self.store.records(
                "signal_chunk", subject_id, where=lambda e: e.seq in seqs
            )
        }
        values = np.empty(0)
        if under:
            first = under[0][0]
            parts = [np.asarray(decoded[entry.seq], dtype=np.float64) for _offset, entry in under]
            values = np.concatenate(parts)[span.lo - first : span.hi - first]
        return SampleSeries(
            channel=span.channel,
            rate_hz=span.rate_hz,
            start_ms=span.start_ms if start_ms is None else start_ms,
            values=values,
        )

    def _read_ibi(self, subject_id: str, start_ms: int, end_ms: int) -> IbiSeries:
        """Beat events with start_ms <= t < end_ms, from the chunks that reach
        into that span; equal times keep the first-synced event."""
        pairs: list[tuple[int, float]] = []
        for record in self.store.records(
            "ibi_chunk",
            subject_id,
            where=lambda e: e.meta.first_ms is not None
            and e.meta.first_ms < end_ms
            and e.meta.last_ms >= start_ms,
        ):
            pairs.extend((int(t), float(v)) for t, v in record["payload"]["events"])
        pairs.sort(key=lambda p: p[0])
        deduped = [p for i, p in enumerate(pairs) if i == 0 or p[0] > pairs[i - 1][0]]
        return IbiSeries.from_pairs(deduped).between(start_ms, end_ms)

    def _read_bundle(
        self, subject_id: str, spans: tuple[_Span, _Span, _Span], start_ms: int, end_ms: int
    ) -> ChannelBundle:
        """The one place a bundle is decoded: the EDA, BVP and ST spans placed
        at start_ms, with the beat events in [start_ms, end_ms)."""
        eda, bvp, st = (self._read_series(subject_id, span, start_ms) for span in spans)
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

        def trim(span: _Span) -> _Span:
            i0 = int(round((start - span.start_ms) * span.rate_hz / 1000.0))
            i1 = int(round((end - span.start_ms) * span.rate_hz / 1000.0))
            return span.slice_samples(i0, min(i1, len(span)))

        spans = tuple(trim(run) for run in runs)
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
        spec = self.config.window_spec
        planned = self._bundle_spans(subject_id)
        # ChannelBundle.duration_s: the shortest channel.
        duration_s = min(span.duration_s for span in planned[2]) if planned else 0.0
        if duration_s < spec.length_s:
            raise NoWindow(f"no complete {spec.length_s:.0f} s window for {subject_id}")
        start, end, spans = planned
        # make_windows' grid, in the same integer milliseconds.
        length_ms = int(round(spec.length_s * 1000))
        step_ms = int(round(spec.step_s * 1000))
        index = (int(round(duration_s * 1000)) - length_ms) // step_ms
        w_start = start + index * step_ms
        w_end = w_start + length_ms

        def window_slice(span: _Span) -> _Span:  # Window._slice
            i0 = int(round((w_start - span.start_ms) * span.rate_hz / 1000.0))
            count = int(round((w_end - w_start) * span.rate_hz / 1000.0))
            return span.slice_samples(i0, i0 + count)

        window_spans = tuple(window_slice(span) for span in spans)
        bundle = self._read_bundle(subject_id, window_spans, w_start, min(end, w_end))
        return Window(index=index, start_ms=w_start, end_ms=w_end, bundle=bundle)

    def _subject_cortisol(self, subject_id: str) -> list[CortisolSample]:
        samples = []
        for record in self.store.records(kind="cortisol", subject_id=subject_id):
            payload = record["payload"]
            samples.append(
                CortisolSample(
                    subject_id=subject_id,
                    timepoint=Timepoint(payload["timepoint"]),
                    t_ms=payload["t_ms"],
                    concentration_ugdl=payload["concentration_ugdl"],
                )
            )
        return samples

    # -- training --------------------------------------------------------------

    def _exclusive(self, train: Callable[[int], dict], seed: int | None) -> dict:
        if not self._train_lock.acquire(blocking=False):
            raise TrainingBusy("training already in progress")
        try:
            return train(self.config.seed if seed is None else seed)
        finally:
            self._train_lock.release()

    def train_stress(self, seed: int | None = None) -> dict:
        return self._exclusive(self._train_stress, seed)

    def _train_stress(self, seed: int) -> dict:
        spec = self.config.window_spec
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
            min_samples_leaf=self.config.forest_min_samples_leaf,
            seed=seed,
        )
        forest.fit(matrix.X, matrix.labels.astype(int))
        doc = model_document(forest, matrix.names, seed=seed)
        version = document_version(doc)
        self.store.append(
            "model",
            "",
            {"model_key": "stress", "version": version, "document": doc, "rows": len(matrix)},
        )
        return {"model_key": "stress", "version": version, "rows": len(matrix)}

    def train_bp(self, seed: int | None = None) -> dict:
        return self._exclusive(self._train_bp, seed)

    def _train_bp(self, seed: int) -> dict:
        segments = []
        for subject_id in self.store.subjects("signal_chunk"):
            entries = self.store.index("signal_chunk", subject_id)
            runs = (
                _latest_run(entries, Channel.PPG),
                _latest_run(entries, Channel.DERIVED, name="sbp_mmhg"),
                _latest_run(entries, Channel.DERIVED, name="dbp_mmhg"),
            )
            if any(run is None for run in runs):
                continue
            ppg, sbp, dbp = (self._read_series(subject_id, run) for run in runs)
            cfg = self.config.filter_config(ppg.rate_hz)
            segments += bp_rows(ppg, sbp, dbp, self.config.bp_segment_s, cfg, subject_id)
        if not segments:
            raise DegenerateTraining("no PPG records with pressure targets in store")
        rows, sbp_targets, dbp_targets = zip(*segments)
        matrix = FeatureMatrix(rows)
        result = {"rows": len(rows)}
        for key, targets in (("bp_sbp", sbp_targets), ("bp_dbp", dbp_targets)):
            model = AdaBoostR2(
                "dt",
                n_estimators=self.config.bp_boost_estimators,
                seed=seed,
                base_params={"max_depth": self.config.bp_tree_max_depth, "min_samples_leaf": 3},
            )
            model.fit(matrix.X, np.asarray(targets))
            doc = model_document(model, matrix.names, seed=seed)
            version = document_version(doc)
            self.store.append(
                "model",
                "",
                {"model_key": key, "version": version, "document": doc, "rows": len(rows)},
            )
            result[key] = version
        return result

    # -- queries -----------------------------------------------------------------

    def _latest_model(self, model_key: str) -> tuple[object, dict]:
        """The newest model of model_key, loaded once per version."""
        versions = [
            e.meta.version for e in self.store.index("model", "") if e.meta.model_key == model_key
        ]
        if not versions:
            raise NotReady(f"no trained {model_key} model")
        cached = self._models.get(model_key)
        if cached is None or cached[1]["version"] != versions[-1]:
            payload = self.store.latest("model", model_key=model_key)["payload"]
            cached = self._models[model_key] = (load_document(payload["document"]), payload)
        return cached

    def query_stress(self, subject_id: str) -> dict:
        model, meta = self._latest_model("stress")
        window = self._last_window(subject_id)
        matrix = stress_feature_matrix([window])
        check_feature_schema(meta["document"], matrix.names)
        proba = float(model.predict_proba(matrix.X)[0, -1])
        label = "stressed" if proba > 0.5 else "not_stressed"
        response = {
            "subject_id": subject_id,
            "label": label,
            "probability": proba,
            "window_start_ms": window.start_ms,
            "window_end_ms": window.end_ms,
            "model_version": meta["version"],
        }
        self.store.append("prediction", subject_id, {"kind": "stress", **response})
        return response

    def query_bp(self, subject_id: str) -> dict:
        sbp_model, sbp_meta = self._latest_model("bp_sbp")
        dbp_model, dbp_meta = self._latest_model("bp_dbp")
        entries = self.store.index("signal_chunk", subject_id)
        source = _latest_run(entries, Channel.PPG)
        if source is None:
            source = _latest_run(entries, Channel.BVP)
        segment_s = self.config.bp_segment_s
        if source is None or source.duration_s < MIN_SEGMENT_S:
            raise NoWindow(f"no recent pulse signal for {subject_id}")
        take = min(len(source), int(segment_s * source.rate_hz))
        last = source.slice_samples(len(source) - take, len(source))
        segment = self._read_series(subject_id, last)
        cfg = self.config.filter_config(source.rate_hz)
        features = bp_reduced_features(segment, cfg, subject_id=subject_id)
        check_feature_schema(sbp_meta["document"], features.names)
        row = features.values.reshape(1, -1)
        sbp = float(sbp_model.predict(row)[0])
        dbp = float(dbp_model.predict(row)[0])
        swapped = sbp < dbp
        if swapped:
            sbp, dbp = dbp, sbp
        response = {
            "subject_id": subject_id,
            "sbp_mmhg": sbp,
            "dbp_mmhg": dbp,
            "segment_start_ms": segment.start_ms,
            "segment_end_ms": segment.end_ms,
            "model_version_sbp": sbp_meta["version"],
            "model_version_dbp": dbp_meta["version"],
            "swapped": swapped,
        }
        self.store.append("prediction", subject_id, {"kind": "bp", **response})
        return response

    # -- location ------------------------------------------------------------------

    def ingest_tag_event(self, kind: str, index: int, source_addr: str = "") -> dict:
        event = self.tag_log.ingest_event(kind, index, source_addr)
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
