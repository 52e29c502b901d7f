"""Service configuration: a flat `key = value` text format.

Lines are `key = value`; `#` starts a comment. Tag registrations use
`tags.user.<index> = identity` and `tags.location.<index> = room`. A run is
reproducible from the config plus the stored inputs. The config holds the
deployment settings, the training seed, the window, label and match rules and
the forest and boosting sizes; the other model settings are fixed in
`homevitals.datasets`, so a model is always queried on features built as in
its training.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from ..datasets import BP_BOOST_ROUNDS, FOREST_PARAMS
from ..errors import ConfigError, InputError
from ..labeling import LabelRule
from ..location import MatchConfig
from ..signals import WindowSpec


@dataclass(frozen=True)
class ServiceConfig:
    listen_host: str = "127.0.0.1"
    listen_port: int = 8700
    storage_path: str = "homevitals-store.jsonl"
    window_length_s: float = 90.0
    window_overlap_s: float = 45.0
    match_tolerance_s: float = 5.0
    match_search_window_s: float = 60.0
    label_threshold: float = 0.10
    forest_n_trees: int = FOREST_PARAMS["n_trees"]
    forest_max_depth: int = FOREST_PARAMS["max_depth"]
    bp_boost_estimators: int = BP_BOOST_ROUNDS
    seed: int = 0
    user_tags: dict[int, str] = field(default_factory=dict)
    location_tags: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Also runs on dataclasses.replace, so `serve --port` is checked too.
        if not 0 <= self.listen_port <= 65535:
            raise ConfigError(f"listen_port must be in 0..65535, got {self.listen_port}")
        # Settings training cannot use fail here, before a store is opened;
        # the window, match and label rules check their own.
        least = {"forest.n_trees": 1, "bp.boost_estimators": 1, "seed": 0}
        for key, bound in least.items():
            value = getattr(self, _KEY_TO_FIELD[key])
            if value < bound:
                raise ConfigError(f"{key} must be >= {bound}, got {value}")
        try:
            self.window_spec, self.match_config, LabelRule(self.label_threshold)
        except InputError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def window_spec(self) -> WindowSpec:
        return WindowSpec(self.window_length_s, self.window_overlap_s)

    @property
    def match_config(self) -> MatchConfig:
        return MatchConfig(self.match_tolerance_s, self.match_search_window_s)

    def with_storage(self, path: str | Path) -> "ServiceConfig":
        return replace(self, storage_path=str(path))


_SCALAR_KEYS = {
    "listen_host": str,
    "listen_port": int,
    "storage_path": str,
    "window.length_s": float,
    "window.overlap_s": float,
    "match.tolerance_s": float,
    "match.search_window_s": float,
    "label.threshold": float,
    "forest.n_trees": int,
    "forest.max_depth": int,
    "bp.boost_estimators": int,
    "seed": int,
}

_KEY_TO_FIELD = {key: key.replace(".", "_") for key in _SCALAR_KEYS}


def parse_config(text: str) -> ServiceConfig:
    values: dict[str, object] = {}
    user_tags: dict[int, str] = {}
    location_tags: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in _SCALAR_KEYS:
            try:
                values[_KEY_TO_FIELD[key]] = _SCALAR_KEYS[key](value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        elif key.startswith(("tags.user.", "tags.location.")):
            _, kind, index = key.split(".", 2)
            try:
                tag = int(index)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad tag index in {key!r}: {exc}") from exc
            (user_tags if kind == "user" else location_tags)[tag] = value
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return ServiceConfig(user_tags=user_tags, location_tags=location_tags, **values)


def load_config(path: str | Path) -> ServiceConfig:
    return parse_config(Path(path).read_text())
