"""Coefficient rows of (1 + x + ... + x^n)^d and quantities derived from them.

The row for parameters (n, d) holds the n*d + 1 coefficients
C(d, k) = [x^k] (1 + x + ... + x^n)^d.  Every row is symmetric,
C(d, k) = C(d, n*d - k), log-concave and sums to (n + 1)^d.  All arithmetic
is exact (Python big integers).  Rows are held as halves, the degrees
0..floor(n*d/2), and read past the middle by symmetry, in this module alone;
only `coeff_row` mirrors a half into the full row, for output.  Nothing is
cached.  Coefficients follow one another along a row by J.C.P. Miller's
three-term recurrence (`_miller`): `_half_row` builds a half row in
O(n*d) terms, `max_coeff` runs the recurrence up to the centre holding n+2
terms, and `_top_sums_by_walk` carries a window of n+2 coefficients around
each row's centre from row to row.  `lighter_down` turns the half of row d
into its prefix sums and steps them down one row at a time: the one source
of the counts that `hales_rank`, `hales_unrank` and the label array read.
Every route that holds a row, a half row or a walk refuses one past
ROW_BITS before it builds any, and no size check builds or prints a vertex
count (n+1)^d past SIZE_BITS bits, which `grid_bits` bounds.  Single
coefficients, the largest coefficient at small d and the top sums at small
d are differences of two inclusion-exclusion counts and build no row.  The two
rules that choose between counting and a recurrence sit side by side:
`max_coeff`'s, and `top_sums`'s for the series that `bandwidth` sums.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator
from itertools import accumulate, chain, count, islice, repeat
from math import comb
from operator import sub

# the most bits a row, a half row or a walk may reach; row d holds n*d+1
# entries of up to d*bitlen(n+1) bits
ROW_BITS = 1 << 28

# the most bits of a vertex count (n+1)^d that a size check builds or
# prints; past it a count is at least 2^(SIZE_BITS/2), over any budget, and
# is named as (n+1)^d
SIZE_BITS = 1 << 13

# the most characters of a refused text or integer that a message shows
TEXT_CAP = 40


class BudgetExceededError(Exception):
    """An operation would hold or enumerate more than its budget allows; the
    message names both figures."""


class InternalInvariantError(Exception):
    """A check that holds for correct code failed, such as two routes disagreeing."""


def shown(value: object, form: Callable[[str], str] = str) -> str:
    """form(text) in a message, text the str of value, such as an integer;
    past TEXT_CAP characters, form of the first TEXT_CAP and the length of
    the text; an int that Python's int/str digit limit refuses to turn into
    text is named by its sign and approximate number of digits."""
    try:
        text = str(value)
    except ValueError:  # past the limit: log10(2) is about 0.30103
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of about {value.bit_length() * 30103 // 100000 + 1} digits"
    if len(text) <= TEXT_CAP:
        return form(text)
    return f"{form(text[:TEXT_CAP])}... ({len(text)} characters)"


def worded(template: str, values: dict[str, object]) -> str:
    """template.format_map(values), each value as `shown` writes it.  A value
    that Python's int/str digit limit refuses to write is written as its key
    in capitals, n as N and (n+1) as (N+1), so that no phrase stands where a
    number belongs; a key that is a name then gets a clause of its own at the
    end, which gives the value's size: "; N is an integer of about 4401 digits".
    """
    texts, sizes = {}, ""
    for key, value in values.items():
        try:
            texts[key] = shown(str(value))
        except ValueError:
            texts[key] = key.upper()
            if key.isidentifier():
                sizes += f"; {key.upper()} is {shown(value)}"
    return template.format_map(texts) + sizes


def check_grid(n: int, d: int, least_d: int = 1) -> None:
    """Refuse with ValueError an n below 1 or a d below least_d.

    A grid P_n^d needs d >= 1; a coefficient row exists from d = 0 on.
    """
    if n < 1 or d < least_d:
        raise ValueError(worded(
            "need n >= 1 and d >= {least_d}, got n={n}, d={d}", {"least_d": least_d, "n": n, "d": d}
        ))


def grid_bits(n: int, d: int) -> int:
    """An upper bound on the bits of (n+1)^d, from n+1 < 2^bitlen(n+1):
    the count lies in [2^(bits/2), 2^bits), as n+1 >= 2."""
    return d * (n + 1).bit_length()


def check_budget(n: int, d: int, budget: int, what: str) -> None:
    """Refuse as check_grid does, and with BudgetExceededError a grid of
    more than budget vertices, or past SIZE_BITS bits."""
    check_grid(n, d)
    total = (n + 1) ** d if grid_bits(n, d) <= SIZE_BITS else None
    if total is None or total > budget:
        size = "{(n+1)}^{d}" if total is None else "{total}"
        raise BudgetExceededError(worded(
            "P_{n}^{d} has " + size + " vertices; over the {what} budget ({budget} vertices)",
            {"n": n, "d": d, "(n+1)": n + 1, "total": total, "what": what, "budget": budget},
        ))


def check_rank(r: int, n: int, d: int) -> None:
    """Refuse as check_grid does, and with ValueError a rank outside
    [0, (n+1)^d).  An r of at most half grid_bits(n, d) bits is below
    (n+1)^d, so the count is built only for an r about as long as it."""
    check_grid(n, d)
    if r < 0 or 2 * r.bit_length() > grid_bits(n, d) and r >= (n + 1) ** d:
        _refuse_rank(r, n, d)


def significant_digits(text: str) -> int | None:
    """The significant digits of text that int() reads, sign, underscores
    and leading zeros aside; None for any other text."""
    body = text.strip()
    body = body[1:] if body[:1] in "+-" else body
    if "__" in body or "_" in (body[:1], body[-1:]) or not body.replace("_", "").isdecimal():
        return None
    return len(body.replace("_", "").lstrip("0"))


def read_rank(text: str, n: int, d: int) -> int:
    """int(text), text an int literal of a rank of P_n^d, which check_rank
    then judges.  Reading decimal text costs time quadratic in its digits,
    so a text with k significant digits, 3(k-1) >= grid_bits(n, d), is
    refused unread: it names at least 10^(k-1) > 2^(3(k-1)) > (n+1)^d."""
    check_grid(n, d)
    digits = significant_digits(text)
    if digits is not None and 3 * (digits - 1) >= grid_bits(n, d):
        _refuse_rank(f"of {digits} digits", n, d)
    return int(text)


def _refuse_rank(rank, n: int, d: int) -> None:
    """Refuse a rank outside [0, (n+1)^d) with ValueError, naming the top
    rank by its digits up to SIZE_BITS and as (n+1)^d - 1 past them, each
    number written by `worded`."""
    big = grid_bits(n, d) > SIZE_BITS
    top = "{(n+1)}^{d} - 1" if big else "{top}"
    raise ValueError(worded(
        "rank {r} outside [0, " + top + "]",
        {"r": rank, "n": n, "d": d, "(n+1)": n + 1, "top": None if big else (n + 1) ** d - 1},
    ))


def _check_row_bits(n: int, d: int) -> None:
    """Refuse as check_grid does (d = 0 allowed), and with
    BudgetExceededError a row d that would hold more than ROW_BITS bits."""
    check_grid(n, d, least_d=0)
    bits = (n * d + 1) * d * (n + 1).bit_length()
    if bits > ROW_BITS:
        raise BudgetExceededError(worded(
            "coefficient row {d} for n = {n} would hold about {b} bits; the row budget is {budget} bits",
            {"d": d, "n": n, "b": bits, "budget": ROW_BITS},
        ))


def _slide(seq: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Entry k is the sum of seq[k-n..k], seq read as zero before its start:
    the running sum of the steps seq[k] - seq[k-n-1]."""
    return tuple(accumulate(map(sub, seq, (0,) * (n + 1) + seq)))


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


def _miller(n: int, d: int, k: int, before: Iterable[int]) -> Iterator[int]:
    """C(d, k), C(d, k+1), ... by J.C.P. Miller's recurrence for a power of a
    polynomial (Knuth, TAOCP vol. 2, 4.7), from `before`, the n+2
    coefficients C(d, k-n-2) .. C(d, k-1), read as zero at negative degrees.

    f = (1 + x + ... + x^n)^d satisfies
    (1-x)(1-x^(n+1)) f' = d (1 - (n+1) x^n + n x^(n+1)) f, whose x^(k-1)
    terms give
        k C(d, k) = (k-1+d) C(d, k-1) + (k-n-1-d(n+1)) C(d, k-n-1)
                    + (dn+n+2-k) C(d, k-n-2),
    the division by k exact.  Only the latest n+2 terms are kept.
    """
    last = deque(before, n + 2)
    c, a, b = last[-1], (d + 1) * (n + 1), d * n + n + 2
    for k in count(k):
        c = ((k - 1 + d) * c + (k - a) * last[1] + (b - k) * last[0]) // k
        last.append(c)
        yield c


def _row_terms(n: int, d: int) -> Iterator[int]:
    """C(d, 0), C(d, 1), ...: `_miller` from C(d, 0) = 1, without end."""
    return chain((1,), _miller(n, d, 1, chain(repeat(0, n + 1), (1,))))


def _half_row(n: int, d: int) -> tuple[int, ...]:
    """The half of row d, degrees 0..floor(n*d/2), by `_row_terms`; refused
    past ROW_BITS before any work."""
    _check_row_bits(n, d)
    return tuple(islice(_row_terms(n, d), n * d // 2 + 1))


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
    """Largest coefficient of the row; sits at the central degree floor(n*d/2).

    By `_row_terms` up to the centre, holding n+2 terms and no row, where
    that is cheaper than the two inclusion-exclusion counts of `coeff`.
    """
    check_grid(n, d, least_d=0)
    centre = n * d // 2
    # CPU time of the recurrence over the counts, best of 5 in process
    # (Python 3.11.7, Xeon): 1.26 at (n, d) = (1, 40), 0.85 at (1, 80), 1.24
    # at (6, 60), 0.84 at (6, 80), 0.60 at (10, 114), 0.96 at (20, 164), 0.99
    # at (50, 260), 0.77 at (50, 314), 1.11 at (100, 500), 0.86 at (100, 564),
    # 104 at (1000, 60), 0.09 at (6, 354), 0.005 at (1, 5000).  The
    # break-even runs near d = 70 for n <= 10 and near 5n after; the rule
    # takes d = 5(n + 10).  Counting keeps n = 10^9 and n in the hundreds.
    if d > 5 * (n + 10):
        return deque(islice(_row_terms(n, d), centre + 1), 1)[0]
    return coeff(n, d, centre)


def top_sum(n: int, i: int) -> int:
    """Sum of the n largest coefficients of the row for (n, i).

    Rows are symmetric and unimodal, so these are a central window.  When
    the row has fewer than n entries (only i = 0) the whole row is summed,
    which gives 1.
    """
    check_grid(n, i, least_d=0)
    lo, stop = _top_window(n, i)
    return _count_below(n, i, stop) - _count_below(n, i, lo)


def top_sums(n: int, d_max: int) -> Iterator[int]:
    """top_sum(n, i) for i = 0..d_max-1, the terms of the bandwidth series.

    Each top sum is a difference of two inclusion-exclusion counts, whose
    terms grow with i / (n+1); when d_max is large against n, the window walk
    of `_top_sums_by_walk` is cheaper.
    """
    # CPU time of the walk over the counting route, best of 5 in process
    # (Python 3.11.7, Xeon): 0.02 at (n, d_max) = (10, 200) and (30, 200),
    # 0.06 at (50, 200), 0.10 at (100, 200), 0.08 at (125, 200), 0.20 at
    # (20, 80), 0.21 at (50, 100), 0.31 at (100, 100), 0.46 at (30, 60),
    # 0.84 at (20, 40), 1.3 to 2.1 at d_max <= 20 (0.3 ms or less either
    # way), 4.3 at (1000, 60).  The walk wins well past 2n = d_max, but the
    # rule stays there: the walk refuses a row past ROW_BITS, and counting
    # refuses nothing.
    if 2 * n >= d_max:
        return (top_sum(n, i) for i in range(d_max))
    return _top_sums_by_walk(n, d_max)


def _below(window: tuple[int, ...], odd: int, size: int) -> tuple[int, ...]:
    """`window`, the coefficients C(i, m + t) for t = 0, 1, ..., led by the
    `size` below degree m, read by symmetry: m - u as m + u + odd, where
    m = floor(n*i/2) and odd = n*i mod 2."""
    return window[odd + 1 : odd + 1 + size][::-1] + window


def _top_sums_by_walk(n: int, d_max: int) -> Iterator[int]:
    """top_sum(n, i) for i = 0..d_max-1, from a window around each row's centre.

    The window of row i holds C(i, m + t) for t = 0..n+1, m = floor(n*i/2),
    and `_below` reads the degrees under m.  Row i+1 centres s = floor(n/2)
    or ceil(n/2) degrees higher.  The (n+1)-sums of row i from degree m-n
    up give row i+1's window but for its top s entries, which `_miller` of
    row i+1 refills from the n+2 before them.  A row costs O(n) operations
    instead of the O(n*i) of a half row.  Refused past ROW_BITS when called,
    as `_half_row(n, d_max - 1)` is, so a caller that starts several walks
    hears of a refused one before it reads any.
    """
    _check_row_bits(n, d_max - 1)
    # the refill's n+2 terms reach s below the centre, read at up to
    # odd + s, and n+1-s above it; as 2s + odd <= n+1, n+2 is the least
    # width that holds them
    width = n + 2

    def walk():
        window, m = (1,) + (0,) * (width - 1), 0
        for i in range(d_max):
            row = _below(window, n * i & 1, n)  # degrees m-n .. m+n+1
            lo, stop = _top_window(n, i)
            yield sum(row[n + lo - m : n + stop - m])
            if i + 1 < d_max:
                s = n * (i + 1) // 2 - m
                m += s
                sums = _slide(row[s:], n)[n:]
                before = _below(sums, n * (i + 1) & 1, s)
                window = sums + tuple(islice(_miller(n, i + 1, m + width - s, before), s))

    return walk()


def trinomial_coeff(d: int, k: int) -> int:
    """Closed form for the n = 2 coefficients via trinomial multinomials.

    Sums d! / ((d-k+l)! (k-2l)! l!) = C(d, l) * C(d-l, k-2l) over
    l = 0..floor(k/2); a term whose first part d-k+l is negative has
    k-2l > d-l, and comb makes it 0.  Equals coeff(2, d, k).
    """
    check_grid(2, d, least_d=0)
    if k < 0 or k > 2 * d:
        raise ValueError(f"k must lie in [0, {2 * d}], got {k}")
    return sum(comb(d, ell) * comb(d - ell, k - 2 * ell) for ell in range(k // 2 + 1))
