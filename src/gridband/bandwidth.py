"""Closed-form bandwidth values for P_n^d, bounds, and asymptotics.

The exact bandwidth is the sum over i < d of the n largest coefficients of
(1 + x + ... + x^n)^i, the series of `coeffs.top_sums`, which also holds the
rule that picks its route; the hypercube case n = 1 reduces to a sum of
central binomials.  The largest coefficients of consecutive rows bracket
the value, and a local-CLT estimate approximates the upper bracket for
large d.  The records returned are named tuples: bounds(2, 3) == (7, 19).
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate

from .coeffs import SIZE_BITS, check_grid, grid_bits, max_coeff, top_sums, worded


BoundsPair = namedtuple("BoundsPair", ["lower", "upper"])
BoundsPair.__doc__ = "Central-coefficient bracket: lower <= bw(P_n^d) <= upper."

AsymptoticEstimate = namedtuple("AsymptoticEstimate", ["n", "d", "estimate", "sqrt_factor"])
AsymptoticEstimate.__doc__ = (
    "Normal-density approximation of the largest coefficient of row d+1."
)


def bw_hales(n: int, d: int) -> int:
    """Exact bandwidth of P_n^d: sum of top_sum(n, i) for i = 0..d-1."""
    check_grid(n, d)
    return sum(top_sums(n, d))


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
        if grid_bits(n, d + 1) > SIZE_BITS:  # so is a count not built
            raise OverflowError
        estimate = (n + 1) ** (d + 1) * factor
    except OverflowError:
        raise ValueError(worded(
            "(n+1)^(d+1) = {(n+1)}^{(d+1)} is beyond float range; no float estimate exists",
            {"n": n, "d": d, "(n+1)": n + 1, "(d+1)": d + 1},
        )) from None
    return AsymptoticEstimate(n=n, d=d, estimate=estimate, sqrt_factor=factor)


def ratio_table(n: int, d_max: int) -> list[tuple[int, int, int, float]]:
    """(d, bw_hales, bw_lex, ratio) for d = 1..d_max; the integers are divided
    last.  bw_hales is one running sum of the top sums."""
    check_grid(n, d_max)
    rows = []
    for d, hales in enumerate(accumulate(top_sums(n, d_max)), start=1):
        lex = bw_lex(n, d)
        rows.append((d, hales, lex, hales / lex))
    return rows
