"""Closed-form overlap of two normal densities: the entries of the QP's matrix C."""

from __future__ import annotations

import math


def product_integral(mean1: float, var1: float, mean2: float, var2: float) -> float:
    """Integral over the real line of the product of N(mean1, var1) and N(mean2, var2).

    Equals the density of N(mean2, var1 + var2) evaluated at mean1, hence
    symmetric in its two (mean, var) pairs.  Both variances must be positive.
    """
    var = var1 + var2
    z = (mean1 - mean2) ** 2 / (2.0 * var)
    return math.exp(-z) / math.sqrt(2.0 * math.pi * var)
