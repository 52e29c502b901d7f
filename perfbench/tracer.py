"""In-memory spans recorded around calls into the program's layers.

The benchmark wraps public functions and methods of `homevitals` from its own
files; nothing inside the program changes. Each call becomes a span (name,
start, end, parent). Spans stay in memory until `summary()` folds them into
per-name totals, and a layer's self time is its spans' durations minus the
part of each interval that child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Self time per span id, for spans given as (id, parent_id, name, start, end)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, start, end in spans:
        if parent:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _parent, _name, start, end in spans
    }


class Tracer:
    """Span and counter recorder, safe to use from several threads."""

    def __init__(self, keep_durations=()):
        self._spans: list[tuple[int, int, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.counts: dict[str, float] = defaultdict(float)
        self.keep_durations = set(keep_durations)

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple[int, int, float]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        return sid, parent, time.perf_counter()

    def end(self, name: str, token: tuple[int, int, float]) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self._stack().pop()
        self._spans.append((sid, parent, name, start, end))

    def inside(self, names) -> bool:
        """True when the calling thread is within a span named in `names`."""
        return any(name in names for _sid, name in self._stack())

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def summary(self) -> dict:
        """Per span name: calls, self seconds, inclusive seconds, and the
        inclusive durations for names listed in keep_durations."""
        spans = list(self._spans)
        own = self_times(spans)
        names: dict[str, dict] = {}
        for sid, _parent, name, start, end in spans:
            entry = names.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own[sid]
            entry["total_s"] += end - start
            if name in self.keep_durations:
                entry.setdefault("durations", []).append(end - start)
        return {"spans": names, "counts": dict(self.counts), "n_spans": len(spans)}


def merge_summaries(parts) -> dict:
    """Sum several summaries, e.g. from each server process of one run."""
    merged: dict = {"spans": {}, "counts": defaultdict(float), "n_spans": 0}
    for part in parts:
        merged["n_spans"] += part["n_spans"]
        for name, value in part["counts"].items():
            merged["counts"][name] += value
        for name, entry in part["spans"].items():
            into = merged["spans"].setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            into["calls"] += entry["calls"]
            into["self_s"] += entry["self_s"]
            into["total_s"] += entry["total_s"]
            if "durations" in entry:
                into.setdefault("durations", []).extend(entry["durations"])
    merged["counts"] = dict(merged["counts"])
    return merged


def traced_function(tracer: Tracer, fn, name: str, after=None):
    """`fn` inside a span; `after(tracer, args, result)` runs once it returns."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(name, token)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def traced_generator(tracer: Tracer, fn, name: str, per_item=None):
    """Generator `fn` with each step of the iteration inside its own span."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            token = tracer.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.end(name, token)
            if per_item is not None:
                per_item(tracer, item)
            yield item

    return traced


def install(tracer: Tracer, target: str, name: str, after=None, generator=False, package="homevitals"):
    """Wrap `module:attr` or `module:Class.method` in spans called `name`.

    A module-level function is replaced in every loaded module of `package`
    that imported it by name, and in module-level dicts that hold it, so
    calls through any import path are seen. Returns a callable that undoes
    the patch.
    """
    module_name, attr = target.split(":")
    module = importlib.import_module(module_name)
    wrap = traced_generator if generator else traced_function
    extra = {"per_item": after} if generator else {"after": after}
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[method]
        setattr(cls, method, wrap(tracer, original, name, **extra))
        return lambda: setattr(cls, method, original)

    original = getattr(module, attr)
    replacement = wrap(tracer, original, name, **extra)
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append(functools.partial(setattr, mod, key, original))
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement
                        undo.append(functools.partial(value.__setitem__, k, original))

    def restore():
        for step in undo:
            step()

    return restore
