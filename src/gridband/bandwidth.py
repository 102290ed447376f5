"""Closed-form bandwidth values for P_n^d, bounds, and asymptotics.

The exact bandwidth is the sum over i < d of the n largest coefficients of
(1 + x + ... + x^n)^i; the hypercube case n = 1 reduces to a sum of central
binomials.  The largest coefficients of consecutive rows bracket the value,
and a local-CLT estimate approximates the upper bracket for large d.  The
records returned are named tuples: bounds(2, 3) == (7, 19).
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

from .coeffs import _top_sums_by_walk, check_grid, max_coeff, top_sum


class BoundsPair(NamedTuple):
    """Central-coefficient bracket: lower <= bw(P_n^d) <= upper."""

    lower: int
    upper: int


class AsymptoticEstimate(NamedTuple):
    """Normal-density approximation of the largest coefficient of row d+1."""

    n: int
    d: int
    estimate: float
    sqrt_factor: float


def bw_hales(n: int, d: int) -> int:
    """Exact bandwidth of P_n^d: sum of top_sum(n, i) for i = 0..d-1."""
    return bw_hales_series(n, d)[-1]


def bw_hales_series(n: int, d_max: int) -> list[int]:
    """[bw_hales(n, 1), ..., bw_hales(n, d_max)]: one running sum of top_sum.

    Each top sum is a difference of two inclusion-exclusion counts, whose
    terms grow with i / (n+1); when d_max is large against n, the window walk
    of `_top_sums_by_walk` is cheaper.
    """
    check_grid(n, d_max)
    # CPU time of the walk over the counting route, best of 5 in process
    # (Python 3.11.7, Xeon): 0.02 at (n, d_max) = (10, 200) and (30, 200),
    # 0.06 at (50, 200), 0.10 at (100, 200), 0.08 at (125, 200), 0.20 at
    # (20, 80), 0.21 at (50, 100), 0.31 at (100, 100), 0.46 at (30, 60),
    # 0.84 at (20, 40), 1.3 to 2.1 at d_max <= 20 (0.3 ms or less either
    # way), 4.3 at (1000, 60).  The walk wins well past 2n = d_max, but the
    # rule stays there: the walk refuses a row past ROW_BITS as the row
    # stream it replaced did, and counting refuses nothing.
    if 2 * n >= d_max:
        tops = (top_sum(n, i) for i in range(d_max))
    else:
        tops = _top_sums_by_walk(n, d_max)
    return list(accumulate(tops))


def bw_hypercube(d: int) -> int:
    """Bandwidth of the d-cube: sum of binom(i, floor(i/2)) for i = 0..d-1."""
    check_grid(1, d)
    return sum(math.comb(i, i // 2) for i in range(d))


def bw_lex(n: int, d: int) -> int:
    """Bandwidth of the left-to-right lexicographic labeling: (n+1)^(d-1)."""
    check_grid(n, d)
    return (n + 1) ** (d - 1)


def bounds(n: int, d: int) -> BoundsPair:
    """max_coeff(n, d) <= bw(P_n^d) <= max_coeff(n, d+1)."""
    check_grid(n, d)
    return BoundsPair(lower=max_coeff(n, d), upper=max_coeff(n, d + 1))


def asymptotic_estimate(n: int, d: int) -> AsymptoticEstimate:
    """Estimate of max_coeff(n, d+1) as (n+1)^(d+1) times a normal peak density.

    The coordinate sum of d+1 uniform draws from {0,...,n} has variance
    (d+1)(n^2+2n)/12; the peak of the matching normal density overestimates
    the central coefficient share, so the ratio to the exact value tends to
    1 from above.  Raises ValueError when (n+1)^(d+1) does not fit in a float.
    """
    check_grid(n, d)
    try:  # n or d past float range puts (n+1)^(d+1) past it too
        factor = math.sqrt(6.0 / (math.pi * (d + 1) * (n * n + 2 * n)))
        estimate = (n + 1) ** (d + 1) * factor
    except OverflowError:
        raise ValueError(
            f"(n+1)^(d+1) = {n + 1}^{d + 1} is beyond float range; "
            "no float estimate exists"
        ) from None
    return AsymptoticEstimate(n=n, d=d, estimate=estimate, sqrt_factor=factor)


def ratio_table(n: int, d_max: int) -> list[tuple[int, int, int, float]]:
    """(d, bw_hales, bw_lex, ratio) for d = 1..d_max; the integers are divided last."""
    rows = []
    for d, hales in enumerate(bw_hales_series(n, d_max), start=1):
        lex = bw_lex(n, d)
        rows.append((d, hales, lex, hales / lex))
    return rows
