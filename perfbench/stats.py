"""Summary statistics, output digests and the machine record.

Stdlib only, so the benchmark can report on itself before it imports the
program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def tail_count(n: int, p: float) -> int:
    """Samples strictly beyond the nearest-rank p-th percentile of n samples."""
    return n - math.ceil(p / 100.0 * n)


def supported(n: int, p: float) -> bool:
    """True when n samples leave at least MIN_TAIL of them beyond the p-th."""
    return n > 0 and tail_count(n, p) >= MIN_TAIL


def median(values) -> float:
    """Middle value (mean of the two middle values for an even count)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(n: int, highest: int = 90) -> int | None:
    """The highest whole percentile above the median and up to `highest`
    that n samples support, or None."""
    return next((p for p in range(highest, 50, -1) if supported(n, p)), None)


def named(value, unit: str, samples: int | None = None, pct: int | None = None) -> dict:
    out = {"value": None if value is None else round(value, 4), "unit": unit}
    if samples is not None:
        out["samples"] = samples
    if pct is not None:
        out["percentile"] = pct
    return out


def timing(samples_ms, p: int) -> dict:
    """A named latency: the median for p=50, else the highest percentile up
    to p that leaves MIN_TAIL samples beyond it (stated, with the count)."""
    n = len(samples_ms)
    pct = 50 if p == 50 else tail_percentile(n, p)
    value = percentile(samples_ms, pct) if n and pct else None
    return named(value, "ms", n, pct)


def digest(obj) -> str:
    """Short stable hash of a JSON-able value (sorted keys, exact floats)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def machine() -> dict:
    """Where and under what load a result was taken."""
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
    }
    for module in ("numpy", "scipy"):
        try:
            info[module] = __import__(module).__version__
        except ImportError:
            info[module] = None
    return info


def cpu_ticks() -> tuple[int, int]:
    """(all, steal) jiffies of the machine so far, from /proc/stat; (0, 0)
    where that file does not exist."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return sum(fields[:8]), steal


def steal_pct(before: tuple[int, int], after: tuple[int, int]) -> float | None:
    """Share of CPU time the hypervisor took from this machine in between."""
    total = after[0] - before[0]
    return round(100.0 * (after[1] - before[1]) / total, 2) if total > 0 else None


def cold_import_s(module: str, env: dict, repeats: int = 3) -> list[float]:
    """Wall times of fresh interpreters that import `module` and exit."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=120,
        )
        times.append(time.perf_counter() - started)
    return times
