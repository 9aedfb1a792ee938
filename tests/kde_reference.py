"""Reference kernel density estimate, for checks of the KDE and UCV code."""

from __future__ import annotations

import math

import numpy as np

from hmmar.kde import EmbeddedSample


def kde_eval(sample: EmbeddedSample, h: float, y) -> float:
    """Kernel density estimate at the point y (shape (d,), scalar for d=1)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (sample.d,):
        raise ValueError(f"y must have shape ({sample.d},), got {y.shape}")
    sq = np.sum((sample.vectors - y) ** 2, axis=1)
    norm = sample.N * (2.0 * math.pi) ** (sample.d / 2.0) * h ** sample.d
    return float(np.exp(-sq / (2.0 * h * h)).sum() / norm)
