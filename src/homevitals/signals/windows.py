"""Windowing over channel bundles and per-beat heart-rate conversion."""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateInput
from .series import ChannelBundle, IbiSeries, Window, WindowSpec


def make_windows(bundle: ChannelBundle, spec: WindowSpec | None = None) -> list[Window]:
    """Running windows of spec.length_s advancing by length - overlap.

    Window count is floor((T - L) / (L - O)) + 1 over the bundle duration T;
    trailing samples that cannot fill a window are discarded. Arithmetic is
    done in integer milliseconds so counts are exact at boundaries.
    """
    spec = spec or WindowSpec()
    length_ms = int(round(spec.length_s * 1000))
    step_ms = int(round(spec.step_s * 1000))
    duration_ms = int(round(bundle.duration_s * 1000))
    if duration_ms < length_ms:
        raise DegenerateInput(
            f"bundle covers {duration_ms / 1000:.3f} s, below one {spec.length_s} s window"
        )
    count = (duration_ms - length_ms) // step_ms + 1
    origin = bundle.session_start_ms
    return [
        Window(
            index=i,
            start_ms=origin + i * step_ms,
            end_ms=origin + i * step_ms + length_ms,
            bundle=bundle,
        )
        for i in range(count)
    ]


def hr_series_bpm(ibi: IbiSeries) -> np.ndarray:
    """Heart-rate values only, as an array (convenience for feature code)."""
    return 60.0 / ibi.ibi_s if len(ibi) else np.empty(0)
