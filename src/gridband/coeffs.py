"""Coefficient rows of (1 + x + ... + x^n)^d and quantities derived from them.

The row for parameters (n, d) holds the n*d + 1 coefficients
C(d, k) = [x^k] (1 + x + ... + x^n)^d.  Every row is symmetric, log-concave
and sums to (n + 1)^d.  All arithmetic is exact (Python big integers).
Rows are cached per n in one list of rows 0, 1, 2, ..., which a loop
extends from the highest row built so far; every sum below reads a slice
of a cached row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import factorial
from operator import sub

# n -> [row 0, row 1, ...]; grows only, for the life of the process
_ROWS: dict[int, list[tuple[int, ...]]] = {}


@dataclass(frozen=True)
class CoeffRow:
    """One row of the extended Pascal triangle: values[k] = [x^k](1+x+...+x^n)^d."""

    n: int
    d: int
    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)


def _check_params(n: int, d: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")


def _row(n: int, d: int) -> tuple[int, ...]:
    rows = _ROWS.setdefault(n, [(1,)])
    while len(rows) <= d:
        # C(d, k) = sum_{j=0}^{n} C(d-1, k-j): a sliding window over the
        # previous row, the difference of two shifted prefix sums.
        acc = list(accumulate(rows[-1], initial=0))
        upper = acc[1:] + [acc[-1]] * n
        lower = [0] * n + acc[:-1]
        rows.append(tuple(map(sub, upper, lower)))
    return rows[d]


def coeff_row(n: int, d: int) -> CoeffRow:
    """Full coefficient row of (1 + x + ... + x^n)^d, exact big integers."""
    _check_params(n, d)
    return CoeffRow(n, d, _row(n, d))


def coeff(n: int, d: int, k: int) -> int:
    """Coefficient of x^k; returns 0 for k outside [0, n*d]."""
    _check_params(n, d)
    if k < 0 or k > n * d:
        return 0
    return _row(n, d)[k]


def coeff_range_sum(n: int, d: int, a: int, b: int) -> int:
    """Sum of coefficients of degrees a..b inclusive (degrees clamped to the row)."""
    _check_params(n, d)
    return sum(_row(n, d)[max(a, 0) : max(b + 1, 0)])


def cumulative_below(n: int, d: int, k: int) -> int:
    """Number of monomials of degree < k, i.e. sum of coefficients 0..k-1."""
    _check_params(n, d)
    return sum(_row(n, d)[: max(k, 0)])


def max_coeff(n: int, d: int) -> int:
    """Largest coefficient of the row; sits at the central degree floor(n*d/2)."""
    _check_params(n, d)
    return _row(n, d)[(n * d) // 2]


def top_sum(n: int, i: int) -> int:
    """Sum of the n largest coefficients of the row for (n, i).

    Rows are symmetric and unimodal, so these are a central window.  When
    the row has fewer than n entries (only i = 0) the whole row is summed,
    which gives 1.
    """
    lo, hi = middle_window(n, i, min(n, n * i + 1))
    return sum(_row(n, i)[lo : hi + 1])


def trinomial_coeff(d: int, k: int) -> int:
    """Closed form for the n = 2 coefficients via trinomial multinomials.

    Sums d! / ((d-k+l)! (k-2l)! l!) over l = 0..floor(k/2), skipping terms
    with a negative first part; equals coeff(2, d, k).
    """
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    if k < 0 or k > 2 * d:
        raise ValueError(f"k must lie in [0, {2 * d}], got {k}")
    fact_d = factorial(d)
    total = 0
    for ell in range(k // 2 + 1):
        a = d - k + ell
        if a < 0:
            continue
        total += fact_d // (factorial(a) * factorial(k - 2 * ell) * factorial(ell))
    return total


def middle_window(n: int, d: int, i: int) -> tuple[int, int]:
    """Degrees [lo, hi] holding the i largest coefficients of the row.

    The window of width i is centered on the peak degree floor((n*d+1)/2)
    (shifted half-open to the left for even i), then slid left over exact
    ties so the leftmost admissible interval is returned.  The coefficient
    sum over the window always equals the sum of the i largest entries.
    """
    _check_params(n, d)
    if i < 1 or i > n * d + 1:
        raise ValueError(f"window width must lie in [1, {n * d + 1}], got {i}")
    peak = (n * d + 1) // 2
    if i % 2 == 1:
        lo, hi = peak - i // 2, peak + i // 2
    else:
        lo, hi = peak - i // 2, peak + i // 2 - 1
    row = _row(n, d)
    while lo > 0 and row[lo - 1] == row[hi]:
        lo -= 1
        hi -= 1
    return lo, hi
