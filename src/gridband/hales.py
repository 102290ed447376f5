"""The Hales order (graded reverse lexicographic) on {0,...,n}^d.

Vertices compare first by weight (coordinate sum); ties are broken by
scanning coordinates right to left, the first difference deciding with the
larger coordinate sorting earlier (so within a weight class 2 < 1 < 0 at
the deciding position).  Ranks are 0-based; user-facing labels are rank + 1.

The order is counted one coordinate at a time, from the one vertex of
dimension 0 at rank 0.  In m dimensions the weight-w class is stacked by
last coordinate h, descending, and the block of h lists the
(m-1)-dimensional class of weight w - h in Hales order.  The rank of rest,
the first m-1 coordinates of (rest, h), counts the (m-1)-dimensional
vertices before rest: those of weights max(0, w-n) .. w-h-1, which fill
the blocks h' > h and so also precede (rest, h); those before rest in its
own class, which precede it in its block; and those lighter than
max(0, w-n), which lie in no block of the class.  So the rank of (rest, h)
is rest's rank plus a shift of w alone, L_m(w) - L_(m-1)(max(0, w-n)),
L_m(w) being the m-dimensional vertices lighter than w.  `hales_rank`,
`hales_unrank` and the label array of `grid` read these counts from one
stream, `coeffs.lighter_down`, L_d first: rank adds the shifts up from the
last coordinate down, unrank takes them off in the same order, and the
label array holds all d counts and adds the shifts up from the second
coordinate on.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterator
from itertools import accumulate, chain, pairwise

from .coeffs import InternalInvariantError, check_grid, check_rank, lighter_down

Vertex = tuple[int, ...]


def check_vertex(u: Vertex, n: int, d: int) -> None:
    """Refuse with ValueError a vertex that is not in the grid P_n^d."""
    check_grid(n, d)
    if len(u) != d:
        raise ValueError(f"vertex has {len(u)} coordinates, expected {d}")
    for p, c in enumerate(u):
        if c < 0 or c > n:
            raise ValueError(f"coordinate {p} is {c}, outside [0, {n}]")


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


def _shift(now: Callable, prev: Callable, n: int, w: int) -> int:
    """The shift at weight w, from now = L_m and prev = L_(m-1)."""
    return now(w) - prev(max(0, w - n))


def weight_shifts(n: int, d: int) -> Iterator[list[int]]:
    """For m = 2..d, the shifts of the weights w = 0..n*m, from all of
    `lighter_down`'s counts held at once, L_1 first; the shift of m = 1 is
    the identity, so d < 2 builds no row."""
    if d < 2:
        return
    for m, (prev, now) in enumerate(pairwise(list(lighter_down(n, d))[::-1]), 2):
        yield [_shift(now, prev, n, w) for w in range(n * m + 1)]


def hales_rank(u: Vertex, n: int, d: int) -> int:
    """0-based position of u in the Hales order on {0,...,n}^d.

    The mirror of hales_unrank: the first coordinate plus, for each
    coordinate from the last to the second, the shift of the weight of the
    coordinates up to it.
    """
    check_vertex(u, n, d)
    if d == 1:
        return u[0]
    weights = list(accumulate(u))
    counts = lighter_down(n, d)
    now, rank = next(counts), u[0]
    for w, prev in zip(weights[:0:-1], counts):
        rank += _shift(now, prev, n, w)
        now = prev
    return rank


def hales_unrank(r: int, n: int, d: int) -> Vertex:
    """Inverse of hales_rank, run backwards: the weight w of the vertex is
    the last with L_d(w) <= r; each coordinate from the last to the second
    takes off its shift, bisects L_pos for the weight j of the coordinates
    before it, and is w - j.  The rank left is the first coordinate."""
    check_rank(r, n, d)
    if d == 1:
        return (r,)
    counts = lighter_down(n, d)
    now, weights = next(counts), range(n * d + 1)
    w = bisect_right(weights, r, key=now) - 1
    coords = []
    for pos, prev in zip(range(d - 1, 0, -1), counts):
        r -= _shift(now, prev, n, w)
        j = bisect_right(weights, r, max(0, w - n), min(w, n * pos) + 1, key=prev) - 1
        coords.append(w - j)
        w, now = j, prev
    if r != w:  # unreachable for valid counts
        raise InternalInvariantError("rank decoding failed")
    return (w, *reversed(coords))


def hales_enumerate(n: int, d: int) -> Iterator[Vertex]:
    """All (n+1)^d vertices in increasing Hales order, as an iterator.

    The order is the weight blocks `block_matrix(n, d, k)` for k = 0..n*d,
    one after another.  Whole-grid label arrays do not walk it (see
    grid.label_array); it is the reference route that tests check them
    against.
    """
    check_grid(n, d)
    return chain.from_iterable(block_matrix(n, d, k) for k in range(n * d + 1))


def block_matrix(n: int, d: int, k: int) -> list[Vertex]:
    """Rows of the weight-k block, built by the literal stacking.

    Sub-blocks of dimension d-1 are stacked with a constant last coordinate
    h running from min(k, n) down to max(0, k - n*(d-1)).  The stacking is
    unrolled into a loop over a stack, one coordinate at a time from the
    last, so no d is too deep for it.  Intended as a testing surface at
    small sizes.
    """
    check_grid(n, d)
    if k < 0 or k > n * d:
        raise ValueError(f"weight must lie in [0, {n * d}], got {k}")
    rows: list[Vertex] = []
    row = [0] * d
    # (coordinate p, weight w left to coordinates 0..p, value h of p), popped
    # in stacking order: h descending, each followed by its sub-block
    stack = [(d - 1, k, h) for h in range(max(0, k - n * (d - 1)), min(k, n) + 1)]
    while stack:
        p, w, h = stack.pop()
        row[p], w = h, w - h
        if w:
            lo, hi = max(0, w - n * (p - 1)), min(w, n)
            stack.extend((p - 1, w, c) for c in range(lo, hi + 1))
        else:  # a sub-block of weight 0 is its one row of zeros
            rows.append((0,) * p + tuple(row[p:]))
    return rows
