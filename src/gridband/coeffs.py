"""Coefficient rows of (1 + x + ... + x^n)^d and quantities derived from them.

The row for parameters (n, d) holds the n*d + 1 coefficients
C(d, k) = [x^k] (1 + x + ... + x^n)^d.  Every row is symmetric,
C(d, k) = C(d, n*d - k), log-concave and sums to (n + 1)^d.  All arithmetic
is exact (Python big integers).  Rows are held as halves, the degrees
0..floor(n*d/2), and read past the middle by symmetry, in this module alone;
only `coeff_row` mirrors a half into the full row, for output.  Nothing is
cached: `coeff_rows` streams the halves of rows 0..d, each built from the
one before and only the latest kept, and refuses a row past ROW_BITS before
it builds any; `lighter_up` and `lighter_down` stream their prefix sums.
Single coefficients, the largest coefficient and the top sums are
differences of two inclusion-exclusion counts and build no row.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb, factorial
from operator import sub
from typing import Callable, Iterator

# the most bits coeff_rows lets a row hold, n*d+1 entries of d*bitlen(n+1)
ROW_BITS = 1 << 28


class BudgetExceededError(Exception):
    """An operation would enumerate more vertices/lines than its budget allows."""

    def __init__(self, message: str, budget: int, required: int):
        super().__init__(message)
        self.budget = budget
        self.required = required


class InternalInvariantError(Exception):
    """A check that holds for correct code failed, such as two routes disagreeing."""


def check_grid(n: int, d: int, least_d: int = 1) -> None:
    """Refuse with ValueError an n below 1 or a d below least_d.

    A grid P_n^d needs d >= 1; a coefficient row exists from d = 0 on.
    """
    if n < 1 or d < least_d:
        raise ValueError(f"need n >= 1 and d >= {least_d}, got n={n}, d={d}")


def check_budget(n: int, d: int, budget: int, what: str) -> None:
    """Refuse as check_grid does, and with BudgetExceededError a grid of
    more than budget vertices."""
    check_grid(n, d)
    total = (n + 1) ** d
    if total > budget:
        raise BudgetExceededError(
            f"P_{n}^{d} has {total} vertices; "
            f"over the {what} budget ({budget} vertices)",
            budget=budget,
            required=total,
        )


def _next_row(half: tuple[int, ...], n: int, d: int) -> tuple[int, ...]:
    """The half of row d+1 from `half`, the half of row d.

    C(d+1, k) = sum_{j=0}^{n} C(d, k-j), a sliding window over row d, built
    in one pass as the running sum of its steps
    C(d+1, k) - C(d+1, k-1) = C(d, k) - C(d, k-n-1).  Degrees up to
    floor(n(d+1)/2) need row d at most ceil(n/2) entries past its own half;
    they are read by symmetry, as zero past n*d.
    """
    top, size = n * d, n * (d + 1) // 2 + 1
    past = half[max(0, top + 1 - size) : top + 1 - len(half)][::-1]
    row = half + past + (0,) * (size - top - 1)
    return tuple(accumulate(map(sub, row, (0,) * (n + 1) + row)))


def coeff_rows(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """The halves of rows 0, 1, ..., d one after another; only the latest
    is kept.  The half of row m holds degrees 0..floor(n*m/2).

    Raises BudgetExceededError, before any row is built, when row d would
    hold more than ROW_BITS bits.
    """
    check_grid(n, d, least_d=0)
    bits = (n * d + 1) * d * (n + 1).bit_length()
    if bits > ROW_BITS:
        raise BudgetExceededError(
            f"coefficient row {d} for n = {n} would hold about {bits} bits; "
            f"the row budget is {ROW_BITS} bits",
            budget=ROW_BITS,
            required=bits,
        )
    half = (1,)
    yield half
    for m in range(d):
        half = _next_row(half, n, m)
        yield half


def _lighter(below: list[int], n: int, m: int) -> Callable[[int], int]:
    """L_m: for w = 0..n*m+1, the m-dimensional vertices lighter than w, from
    `below`, the prefix sums of the half of row m, and by symmetry past it."""
    total, mirror, size = (n + 1) ** m, n * m + 1, len(below)
    return lambda w: below[w] if w < size else total - below[mirror - w]


def _step_down(below: list[int], n: int, m: int) -> list[int]:
    """The prefix sums of the half of row m-1 from `below`, those of row m:
    C(m, k) = L_(m-1)(k+1) - L_(m-1)(k-n), so within each residue class of
    w mod n+1, L_(m-1)(w) = L_(m-1)(w-n-1) + L_m(w) - L_m(w-1) is a running
    sum of the first differences of L_m, read from a half alone."""
    size = n * (m - 1) // 2 + 2
    prev = list(map(sub, below[:size], [0] + below[: size - 1]))
    for r in range(min(n + 1, size)):
        prev[r :: n + 1] = accumulate(prev[r :: n + 1])
    return prev


def lighter_up(n: int, d: int) -> Iterator[Callable[[int], int]]:
    """L_0, L_1, ..., L_d (see `_lighter`), from `coeff_rows`."""
    for m, half in enumerate(coeff_rows(n, d)):
        yield _lighter(list(accumulate(half, initial=0)), n, m)


def lighter_down(n: int, d: int) -> Iterator[Callable[[int], int]]:
    """L_d, L_(d-1), ..., L_1: the prefix sums of row d, then `_step_down`."""
    below = [0, *_half_row(n, d)]
    for w in range(2, len(below)):  # in place: the row is not held beside them
        below[w] += below[w - 1]
    for m in range(d, 0, -1):
        yield _lighter(below, n, m)
        below = _step_down(below, n, m)  # after L_1, row 0's two sums, unread


def _count_below(n: int, i: int, k: int) -> int:
    """Vertices of {0..n}^i with weight below k, by inclusion-exclusion.

    C(k-1+i, i) counts the i-tuples of naturals with sum at most k-1; the
    j-th term takes out (or puts back) those with a chosen j coordinates
    above n, each shifted down by n+1.
    """
    total = 0
    for j in range(min(i, (k - 1) // (n + 1)) + 1):  # empty for k <= 0
        term = comb(i, j) * comb(k - 1 - j * (n + 1) + i, i)
        total += -term if j & 1 else term
    return total


def _top_window(n: int, i: int) -> tuple[int, int]:
    """Degrees [lo, stop) of the centred window of the n largest coefficients.

    Rows are symmetric and unimodal, so the centred window holds them;
    where ties let another window hold them too, both have the same sum.
    """
    width = min(n, n * i + 1)
    lo = (n * i + 1) // 2 - width // 2
    return lo, lo + width


def _half_row(n: int, d: int) -> tuple[int, ...]:
    """The half of row d, the last that `coeff_rows` streams."""
    for half in coeff_rows(n, d):
        pass
    return half


def coeff_row(n: int, d: int) -> tuple[int, ...]:
    """Full coefficient row of (1 + x + ... + x^n)^d: entry k is [x^k], exact.

    The one place a half row is mirrored into a full one.
    """
    half = _half_row(n, d)
    return half + half[: n * d + 1 - len(half)][::-1]


def coeff(n: int, d: int, k: int) -> int:
    """Coefficient of x^k; returns 0 for k outside [0, n*d]."""
    check_grid(n, d, least_d=0)
    return _count_below(n, d, k + 1) - _count_below(n, d, k)


def max_coeff(n: int, d: int) -> int:
    """Largest coefficient of the row; sits at the central degree floor(n*d/2)."""
    return coeff(n, d, (n * d) // 2)


def top_sum(n: int, i: int) -> int:
    """Sum of the n largest coefficients of the row for (n, i).

    Rows are symmetric and unimodal, so these are a central window.  When
    the row has fewer than n entries (only i = 0) the whole row is summed,
    which gives 1.
    """
    check_grid(n, i, least_d=0)
    lo, stop = _top_window(n, i)
    return _count_below(n, i, stop) - _count_below(n, i, lo)


def _top_sums_by_rows(n: int, d_max: int) -> Iterator[int]:
    """top_sum(n, i) for i = 0..d_max-1, from the row stream.

    Window degrees past the half of row i are read by symmetry, degree k
    as n*i - k.
    """
    for i, half in enumerate(coeff_rows(n, d_max - 1)):
        lo, stop = _top_window(n, i)
        mirror = n * i + 1
        yield sum(half[lo:stop]) + sum(half[mirror - stop : mirror - len(half)])


def trinomial_coeff(d: int, k: int) -> int:
    """Closed form for the n = 2 coefficients via trinomial multinomials.

    Sums d! / ((d-k+l)! (k-2l)! l!) over l = 0..floor(k/2), skipping terms
    with a negative first part; equals coeff(2, d, k).
    """
    check_grid(2, d, least_d=0)
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

