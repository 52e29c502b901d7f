"""Smart-home cloud facade: config, append-only store, pipeline, HTTP API."""

from .config import ServiceConfig, load_config, parse_config
from .http import VitalsHttpServer
from .pipeline import (
    VitalsService,
    cortisol_to_payload,
    payload_to_cortisol,
    payload_to_series,
    series_to_payload,
    sync_body,
)
from .store import RECORD_KINDS, JsonlStore

__all__ = [
    "JsonlStore",
    "RECORD_KINDS",
    "ServiceConfig",
    "VitalsHttpServer",
    "VitalsService",
    "cortisol_to_payload",
    "load_config",
    "parse_config",
    "payload_to_cortisol",
    "payload_to_series",
    "series_to_payload",
    "sync_body",
]
