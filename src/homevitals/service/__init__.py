"""Smart-home cloud facade: config, append-only store, pipeline, HTTP API."""

from .config import ServiceConfig, format_config, load_config, parse_config
from .http import VitalsHttpServer
from .pipeline import VitalsService, payload_to_series, series_to_payload
from .store import RECORD_KINDS, JsonlStore

__all__ = [
    "JsonlStore",
    "RECORD_KINDS",
    "ServiceConfig",
    "VitalsHttpServer",
    "VitalsService",
    "format_config",
    "load_config",
    "parse_config",
    "payload_to_series",
    "series_to_payload",
]
