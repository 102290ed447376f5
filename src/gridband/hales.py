"""The Hales order (graded reverse lexicographic) on {0,...,n}^d.

Vertices compare first by weight (coordinate sum); ties are broken by
scanning coordinates right to left, the first difference deciding with the
larger coordinate sorting earlier (so within a weight class 2 < 1 < 0 at
the deciding position).  Ranks are 0-based; user-facing labels are rank + 1.
"""

from __future__ import annotations

import bisect
from itertools import accumulate
from typing import Iterator

from .coeffs import coeff, coeff_range_sum, coeff_row, cumulative_below

Vertex = tuple[int, ...]


def _check_vertex(u: Vertex, n: int, d: int) -> None:
    if len(u) != d:
        raise ValueError(f"vertex has {len(u)} coordinates, expected {d}")
    for c in u:
        if c < 0 or c > n:
            raise ValueError(f"coordinate {c} outside [0, {n}] in {u}")


def hales_compare(u: Vertex, v: Vertex) -> int:
    """Three-way comparison: -1 if u precedes v, 0 if equal, 1 if u follows v."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    wu, wv = sum(u), sum(v)
    if wu != wv:
        return -1 if wu < wv else 1
    for a, b in zip(reversed(u), reversed(v)):
        if a != b:
            return -1 if a > b else 1
    return 0


def hales_sort_key(u: Vertex) -> tuple:
    """Key function equivalent to hales_compare, for use with sorted()."""
    return (sum(u), tuple(-c for c in reversed(u)))


def hales_rank(u: Vertex, n: int, d: int) -> int:
    """0-based position of u in the Hales order on {0,...,n}^d.

    All vertices of smaller weight come first; within the weight class the
    blocks are ordered by last coordinate descending, so the offset of u is
    the total size of the blocks with last coordinate above u's, recursively
    down to one dimension.
    """
    _check_vertex(u, n, d)
    k = sum(u)
    rank = cumulative_below(n, d, k)
    for pos in range(d - 1, 0, -1):
        b = u[pos]
        h_max = min(k, n)
        if b < h_max:
            # blocks h = b+1..h_max hold degrees k-h_max..k-b-1 of the
            # (pos)-dimensional row
            rank += coeff_range_sum(n, pos, k - h_max, k - b - 1)
        k -= b
    return rank


def hales_unrank(r: int, n: int, d: int) -> Vertex:
    """Inverse of hales_rank: the vertex at 0-based position r."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if r < 0 or r >= (n + 1) ** d:
        raise ValueError(f"rank {r} outside [0, {(n + 1) ** d - 1}]")
    acc = list(accumulate(coeff_row(n, d).values, initial=0))
    k = bisect.bisect_right(acc, r) - 1
    r -= acc[k]
    coords = [0] * d
    for pos in range(d - 1, 0, -1):
        h_lo = max(0, k - n * pos)
        for h in range(min(k, n), h_lo - 1, -1):
            size = coeff(n, pos, k - h)
            if r < size:
                coords[pos] = h
                k -= h
                break
            r -= size
        else:  # unreachable for valid ranks
            from .grid import InternalInvariantError  # grid imports this module

            raise InternalInvariantError("rank decoding failed")
    coords[0] = k
    return tuple(coords)


def _fill_weight_class(n: int, dd: int, k: int, buf: list[int]) -> Iterator[None]:
    if dd == 1:
        buf[0] = k
        yield
        return
    h_lo = max(0, k - n * (dd - 1))
    for h in range(min(k, n), h_lo - 1, -1):
        buf[dd - 1] = h
        yield from _fill_weight_class(n, dd - 1, k - h, buf)


def hales_enumerate(n: int, d: int) -> Iterator[Vertex]:
    """Yield all (n+1)^d vertices in increasing Hales order.

    Streams with O(d) working state (one generator frame per dimension plus
    the shared coordinate buffer); the full list is never materialized.
    Whole-grid label arrays do not walk it (see grid.label_array); it is
    the reference route that tests check them against.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    buf = [0] * d
    for k in range(n * d + 1):
        for _ in _fill_weight_class(n, d, k, buf):
            yield tuple(buf)


def block_matrix(n: int, d: int, k: int) -> list[Vertex]:
    """Rows of the weight-k block, built by the literal recursive stacking.

    Sub-blocks of dimension d-1 are stacked with a constant last coordinate
    h running from min(k, n) down to max(0, k - n*(d-1)).  Intended as a
    testing surface at small sizes; use hales_enumerate for streaming.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if k < 0 or k > n * d:
        raise ValueError(f"weight must lie in [0, {n * d}], got {k}")
    if d == 1:
        return [(k,)]
    rows: list[Vertex] = []
    h_lo = max(0, k - n * (d - 1))
    for h in range(min(k, n), h_lo - 1, -1):
        for prefix in block_matrix(n, d - 1, k - h):
            rows.append(prefix + (h,))
    return rows
