"""Harrell-Davis quantile estimate, standard library only.

The latencies of one run mix op kinds whose costs differ by orders of
magnitude (a 2 ms envy check beside a 250 ms LP), so their distribution has
gaps.  A plain percentile is one order statistic (or two, interpolated); when
it sits at the edge of a gap, host noise on a couple of ops moves it across
the gap.  The Harrell-Davis estimate is a beta-weighted average of all order
statistics, centred on the same rank, so it moves smoothly instead.

Reference: F. E. Harrell and C. E. Davis, "A new distribution-free quantile
estimator", Biometrika 69(3), 1982.
"""

from __future__ import annotations

import math

_TINY = 1e-300


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    def clamp(v: float) -> float:
        return v if abs(v) > _TINY else _TINY

    c, d = 1.0, 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)),
        ):
            d = 1.0 / clamp(1.0 + num * d)
            c = clamp(1.0 + num / c)
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (0 < p < 1) of `values`."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    total, below = 0.0, 0.0
    for i, value in enumerate(ordered, start=1):
        upto = betainc(a, b, i / n)
        total += (upto - below) * value
        below = upto
    return total
