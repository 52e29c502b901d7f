"""Windowing over channel bundles and per-beat heart-rate conversion."""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateInput
from .series import ChannelBundle, IbiSeries, Window, WindowSpec


def window_grid(origin_ms: int, duration_s: float, spec: WindowSpec) -> range:
    """Start times of the running windows over duration_s from origin_ms, each
    spec.length_ms long. Window count is floor((T - L) / (L - O)) + 1 over the
    duration T, none below one window; trailing samples that cannot fill a
    window are discarded. Arithmetic is in integer milliseconds so counts are
    exact at boundaries.
    """
    duration_ms = int(round(duration_s * 1000))
    count = max(0, (duration_ms - spec.length_ms) // spec.step_ms + 1)
    return range(origin_ms, origin_ms + count * spec.step_ms, spec.step_ms)


def make_windows(bundle: ChannelBundle, spec: WindowSpec | None = None) -> list[Window]:
    """The running windows of window_grid over the bundle's duration."""
    spec = spec or WindowSpec()
    starts = window_grid(bundle.session_start_ms, bundle.duration_s, spec)
    if not starts:
        raise DegenerateInput(
            f"bundle covers {bundle.duration_s:.3f} s, below one {spec.length_s} s window"
        )
    return [
        Window(index=i, start_ms=start, end_ms=start + spec.length_ms, bundle=bundle)
        for i, start in enumerate(starts)
    ]


def hr_series_bpm(ibi: IbiSeries) -> np.ndarray:
    """Heart-rate values only, as an array (convenience for feature code)."""
    return 60.0 / ibi.ibi_s if len(ibi) else np.empty(0)
