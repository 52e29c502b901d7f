"""Service orchestration: ingest validated signal payloads into the store,
assemble per-subject bundles, train the stress classifier and blood-pressure
regressors from stored data, and answer queries from the latest signals.

Training is an exclusive job; every prediction response carries the model
version and the exact input span it was computed over.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from ..datasets import bp_rows, stress_rows
from ..errors import DegenerateTraining, InputError, NotReady, NoWindow, TrainingBusy
from ..features import FeatureMatrix, bp_reduced_features, stress_feature_matrix
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
from ..signals import Channel, ChannelBundle, IbiSeries, SampleSeries, make_windows
from .config import ServiceConfig
from .store import JsonlStore

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

    def _subject_chunks(self, subject_id: str) -> dict[tuple[str, str | None], list[dict]]:
        """The subject's signal_chunk payloads, read once, grouped by (channel, name)."""
        groups: dict[tuple[str, str | None], list[dict]] = {}
        for record in self.store.records(kind="signal_chunk", subject_id=subject_id):
            payload = record["payload"]
            groups.setdefault((payload["channel"], payload.get("name")), []).append(payload)
        return groups

    @staticmethod
    def _channel_series(groups: dict, channel: Channel, name: str | None = None):
        payloads = groups.get((channel.value, name))
        if not payloads:
            return None
        chunks = sorted((payload_to_series(p) for p in payloads), key=lambda s: s.start_ms)
        # Latest contiguous run: queries answer from fresh, gap-free signal.
        run = [chunks[-1]]
        for prev in reversed(chunks[:-1]):
            if abs(prev.end_ms - run[0].start_ms) <= CONTIGUITY_SLOP_MS:
                run.insert(0, prev)
            else:
                break
        return SampleSeries(
            channel=channel,
            rate_hz=run[0].rate_hz,
            start_ms=run[0].start_ms,
            values=np.concatenate([s.values for s in run]),
        )

    def _subject_ibi(self, subject_id: str) -> IbiSeries:
        pairs: list[tuple[int, float]] = []
        for record in self.store.records(kind="ibi_chunk", subject_id=subject_id):
            pairs.extend((int(t), float(v)) for t, v in record["payload"]["events"])
        pairs.sort(key=lambda p: p[0])
        deduped = [p for i, p in enumerate(pairs) if i == 0 or p[0] > pairs[i - 1][0]]
        return IbiSeries.from_pairs(deduped)

    def assemble_bundle(self, subject_id: str) -> ChannelBundle | None:
        groups = self._subject_chunks(subject_id)
        eda = self._channel_series(groups, Channel.EDA)
        bvp = self._channel_series(groups, Channel.BVP)
        st = self._channel_series(groups, Channel.ST)
        if eda is None or bvp is None or st is None:
            return None
        start = max(eda.start_ms, bvp.start_ms, st.start_ms)
        end = min(eda.end_ms, bvp.end_ms, st.end_ms)
        if end <= start:
            return None

        def trim(series: SampleSeries) -> SampleSeries:
            i0 = int(round((start - series.start_ms) * series.rate_hz / 1000.0))
            i1 = int(round((end - series.start_ms) * series.rate_hz / 1000.0))
            return series.slice_samples(i0, min(i1, len(series)))

        return ChannelBundle(
            subject_id=subject_id,
            eda=trim(eda),
            bvp=trim(bvp),
            st=trim(st),
            ibi=self._subject_ibi(subject_id).between(start, end),
            session_start_ms=start,
        )

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
            groups = self._subject_chunks(subject_id)
            ppg = self._channel_series(groups, Channel.PPG)
            sbp = self._channel_series(groups, Channel.DERIVED, name="sbp_mmhg")
            dbp = self._channel_series(groups, Channel.DERIVED, name="dbp_mmhg")
            if ppg is None or sbp is None or dbp is None:
                continue
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
        record = self.store.latest("model", model_key=model_key)
        if record is None:
            raise NotReady(f"no trained {model_key} model")
        doc = record["payload"]["document"]
        return load_document(doc), record["payload"]

    def query_stress(self, subject_id: str) -> dict:
        model, meta = self._latest_model("stress")
        bundle = self.assemble_bundle(subject_id)
        spec = self.config.window_spec
        if bundle is None or bundle.duration_s < spec.length_s:
            raise NoWindow(f"no complete {spec.length_s:.0f} s window for {subject_id}")
        window = make_windows(bundle, spec)[-1]
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
        groups = self._subject_chunks(subject_id)
        source = self._channel_series(groups, Channel.PPG)
        if source is None:
            source = self._channel_series(groups, Channel.BVP)
        segment_s = self.config.bp_segment_s
        if source is None or source.duration_s < 5.0:
            raise NoWindow(f"no recent pulse signal for {subject_id}")
        take = min(len(source), int(segment_s * source.rate_hz))
        segment = source.slice_samples(len(source) - take, len(source))
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
