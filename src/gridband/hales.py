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
`hales_unrank`, `hales_bandwidth` and the label array of `grid` read these
counts from one stream, `coeffs.lighter_down`, L_d first, and each shift
from one pair (L_m, L_(m-1)) of it, as `itertools.pairwise` gives them:
rank adds the shifts up from the last coordinate down, unrank takes them
off in the same order, the bandwidth's DP takes the shifts of
`weight_shifts` in that order too, and the label array holds all of them
and adds them up from the second coordinate on.

So a rank is a sum over the prefix weights of a vertex, and so is the
stretch of an edge.  `hales_bandwidth` reads the labeling's bandwidth and
witness from them, by a DP over the weights with no label built, for
`grid.labeling_bandwidth`, behind `bw --method hales-scan` and a Hales
export's half-bandwidth.  The edge scan `grid._edge_scan` of the label
array is the reference that tests hold it to, and is what the search
reads.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Iterator
from itertools import accumulate, chain, pairwise

from .coeffs import InternalInvariantError, check_grid, check_rank, lighter_down, worded

Vertex = tuple[int, ...]


def check_vertex(u: Vertex, n: int, d: int) -> None:
    """Refuse with ValueError a vertex that is not in the grid P_n^d."""
    check_grid(n, d)
    if len(u) != d:
        raise ValueError(worded("vertex has {k} coordinates, expected {d}", {"k": len(u), "d": d}))
    for p, c in enumerate(u):
        if c < 0 or c > n:
            raise ValueError(worded("coordinate {p} is {c}, outside [0, {n}]", {"p": p, "c": c, "n": n}))


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


def weight_shifts(n: int, d: int) -> Iterator[list[int]]:
    """For m = d down to 2, the shifts of the weights w = 0..n*m, each read
    from a pair (L_m, L_(m-1)) of `lighter_down`'s stream.  The shift of
    m = 1 is the identity, so d = 1 builds no row: its range of m is empty,
    and zip never starts the stream."""
    for m, (now, prev) in zip(range(d, 1, -1), pairwise(lighter_down(n, d))):
        yield [now(w) - prev(max(0, w - n)) for w in range(n * m + 1)]


def hales_rank(u: Vertex, n: int, d: int) -> int:
    """0-based position of u in the Hales order on {0,...,n}^d.

    The mirror of hales_unrank: the first coordinate plus, for each
    coordinate from the last to the second, the shift of the weight w of
    the coordinates up to it, read from the next pair (L_m, L_(m-1)) of
    `lighter_down`'s stream.  At d = 1 there is no such coordinate, and
    the stream is never started.
    """
    check_vertex(u, n, d)
    weights = list(accumulate(u))[:0:-1]  # of the first d, d - 1, ..., 2 coordinates
    counts = pairwise(lighter_down(n, d))
    return u[0] + sum(now(w) - prev(max(0, w - n)) for w, (now, prev) in zip(weights, counts))


def hales_unrank(r: int, n: int, d: int) -> Vertex:
    """Inverse of hales_rank, run backwards: the weight w of the vertex is
    the last with L_d(w) <= r; each coordinate from the last to the second,
    with the next pair (L_m, L_(m-1)) of `lighter_down`'s stream, takes off
    its shift, bisects L_(m-1) for the weight j of the coordinates before
    it, and is w - j.  The rank left is the first coordinate.  At d = 1
    there is no coordinate to take off: the loop's range is empty, zip
    never starts the stream, so no row is built, and w = r is the vertex."""
    check_rank(r, n, d)
    weights, coords, w = range(n * d + 1), [], r
    for pos, (now, prev) in zip(range(d - 1, 0, -1), pairwise(lighter_down(n, d))):
        if not coords:  # the weight of the whole vertex
            w = bisect_right(weights, r, key=now) - 1
        r -= now(w) - prev(max(0, w - n))
        j = bisect_right(weights, r, max(0, w - n), min(w, n * pos) + 1, key=prev) - 1
        coords.append(w - j)
        w = j
    if r != w:  # unreachable for valid counts
        raise InternalInvariantError("rank decoding failed")
    return (w, *reversed(coords))


def _window_max(values: list[int], width: int) -> list[int]:
    """max(values[i : i + width]) for i = 0..len(values) - width, from a
    deque of the indices of the window's decreasing maxima."""
    window: deque[int] = deque()
    maxima = []
    for i, value in enumerate(values):
        while window and values[window[-1]] <= value:
            window.pop()
        window.append(i)
        if window[0] == i - width:
            window.popleft()
        if i >= width - 1:
            maxima.append(values[window[0]])
    return maxima


def hales_bandwidth(n: int, d: int) -> tuple[int, tuple[Vertex, Vertex]]:
    """The bandwidth of the Hales labeling and a witness edge (x, x + e_p),
    with no label built.  Of the edges that stretch the most, the witness
    has the least rank(x): as f(x) < f(x + e_p), the least label pair, the
    edge that `grid._edge_scan` picks from the labels.

    With W_m the weight of x's first m coordinates and S_m the shift of
    weights in m dimensions (S_1 the identity), rank(x) is the sum of
    S_m(W_m) over m = 1..d.  The edge x -> x + e_p raises W_m by one for
    every m >= p, so it stretches by the sum of S_m(W_m + 1) - S_m(W_m) over
    m >= p.  Both are sums over the layers m, so one DP from m = d down to 0
    maximises the stretch, then -rank(x), as one integer key per W_m, which
    also carries p below its unit of rank.  The keys are kept twice: for
    p <= m, where the layer adds its stretch and W_m < n*m, and for p > m,
    where it adds none.  A step down a layer takes x_m in 0..n off W, or in
    0..n-1 at m = p, the best of each window of steps read by `_window_max`.
    """
    check_grid(n, d)
    scale = d + 1  # p in 1..d sits below one unit of rank
    unit = (n + 1) ** d * scale  # and one unit of stretch above every rank
    ahead, passed = [0] * (n * d), None
    # the shift of m = 1 is the identity, and that of m = 0 the 0 of weight 0
    layers = chain(weight_shifts(n, d), [range(n + 1), [0]])
    for m, shifts in zip(range(d, -1, -1), layers):
        if m < d:  # the step down from layer m + 1
            at_p = [key + m + 1 for key in _window_max(ahead, n)]
            if passed is not None:
                at_p = list(map(max, _window_max(passed, n + 1), at_p))
            ahead = _window_max(ahead, n + 1)
            passed = [key - shift * scale for key, shift in zip(at_p, shifts)]
        ahead = [
            key + (after - shift) * unit - shift * scale
            for key, shift, after in zip(ahead, shifts, shifts[1:])
        ]
    (best,) = passed
    key, p = divmod(best, scale)
    stretch, rank = divmod(-key, (n + 1) ** d)
    x = hales_unrank(rank, n, d)
    return -stretch, (x, (*x[: p - 1], x[p - 1] + 1, *x[p:]))


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
