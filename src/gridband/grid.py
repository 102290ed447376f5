"""The graph P_n^d: vertices {0,...,n}^d with edges between coordinate
vectors differing by one in a single component.

A grid is named by the pair (n, d), which every function takes as two
integers.  Provides the lexicographic labeling, labeling files and exact
edge-scan bandwidths.  This module alone knows the lex-position layout,
where the vertex at position i has its dimension-p neighbour at
i + (n+1)^(d-1-p).  Scans, matrix export and listings take it from
`label_array`, a labeling indexed by lex position, and its inverse
`label_positions`; from the edge kernel `edge_ranges`, the edges as
strided runs of at most RUN_CAP positions, whose bandwidth the export's
self-test checks the file against; and from the per-vertex tables of
`position_texts` and of `lower_neighbours`, which give export rows.  The
search takes one vertex at a time, as it reaches it: its coordinates
from `lex_unrank` and its neighbours' positions from
`neighbour_positions`.  A scan of a range labeling, such as lex, costs
one subtraction per run, since every edge of a run stretches alike.
Loaded files and certificates keep labels by lex position.

The Hales label array is built one coordinate at a time by the recurrence
of `hales.weight_shifts`, with no walk of the order: see `_hales_labels`.
"""

from __future__ import annotations

from array import array
from itertools import compress, count, product, repeat
from operator import add, sub
from typing import Iterable, Iterator, NamedTuple, Sequence

from .coeffs import BudgetExceededError, InternalInvariantError  # re-exported
from .coeffs import check_budget, check_grid
from .hales import Vertex, check_vertex, weight_shifts

DEFAULT_SCAN_BUDGET = 1_000_000

# the longest run edge_ranges yields: a scan copies two label slices this
# long, not two as long as n/(n+1) of the grid
RUN_CAP = 1 << 16


class BandwidthReport(NamedTuple):
    """A scanned bandwidth value and a witness edge achieving it, a named tuple."""

    value: int
    witness: tuple[Vertex, Vertex]


def parse_vertex(text: str) -> Vertex:
    """Parse the comma-separated text form, e.g. "1,0,2"."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad vertex {text!r}: {exc}") from None


def format_vertex(u: Vertex) -> str:
    return ",".join(map(str, u))


def position_texts(n: int, d: int, positions: Iterable[int]) -> Iterator[str]:
    """format_vertex of the vertex at each lex position, in order.

    Each text joins two precomputed strings, one for the leading ceil(d/2)
    coordinates and one for the trailing floor(d/2), so the tables hold
    O(sqrt((n+1)^(d+1))) strings and a position costs one divmod.
    """
    tail = d // 2

    def texts(m: int) -> list[str]:
        return [",".join(map(str, u)) for u in product(range(n + 1), repeat=m)]

    lo = texts(tail)
    hi = [f"{t}," for t in texts(d - tail)] if tail else texts(d)
    return (hi[q] + lo[r] for q, r in map(divmod, positions, repeat((n + 1) ** tail)))


def label_positions(labels: Sequence[int]) -> Sequence[int]:
    """The lex position of each label, the inverse of a labeling: a range
    (lex) is its own, and any other is inverted into a copy of itself."""
    if isinstance(labels, range):
        return range(len(labels))
    positions = labels[:]  # the positions 0..total-1 fit where 1..total do
    for position, label in enumerate(labels):
        positions[label - 1] = position
    return positions


def lower_neighbours(
    n: int, d: int, labels: Sequence[int]
) -> Iterator[tuple[Iterator[int], int]]:
    """(lighter neighbours' labels, degree) of each vertex, in label order.

    The lighter neighbours of u at position q are at q - (n+1)^(d-1-p) for
    each u_p >= 1, in that order.  Tables split as in position_texts hold
    these strides and the degrees.
    """
    lead, width = d - d // 2, (n + 1) ** (d // 2)
    strides = [(n + 1) ** (d - 1 - p) for p in range(d)]

    def table(part: list[int]) -> list[tuple[tuple[int, ...], int]]:
        return [
            (tuple(compress(part, u)), sum((c > 0) + (c < n) for c in u))
            for u in product(range(n + 1), repeat=len(part))
        ]

    hi, lo = table(strides[:lead]), table(strides[lead:])
    label_at = labels.__getitem__
    for q in label_positions(labels):
        h, r = divmod(q, width)
        (hi_strides, hi_degree), (lo_strides, lo_degree) = hi[h], lo[r]
        lower = map(q.__sub__, hi_strides + lo_strides)
        yield map(label_at, lower), hi_degree + lo_degree


def label_listing(n: int, d: int, labels: Sequence[int]) -> Iterator[tuple[str, int]]:
    """(vertex text, label) for every vertex of a labeling, in label order."""
    return zip(position_texts(n, d, label_positions(labels)), count(1))


def edge_ranges(n: int, d: int) -> Iterator[tuple[range, int]]:
    """Every edge once, as (range, stride) pairs over lex positions.

    Each i in a range is the lighter endpoint of the edge (i, i + stride).
    Pairs come dimension by dimension, leftmost first.  A dimension with
    stride s is cut into its (n+1)^p blocks of n*s consecutive positions or
    into its n*s residue classes modulo (n+1)*s, whichever are fewer, and
    a run longer than RUN_CAP into consecutive pieces of RUN_CAP positions.
    """
    total = (n + 1) ** d
    for p in range(d):
        stride = (n + 1) ** (d - 1 - p)
        period = (n + 1) * stride
        if total // period <= n * stride:
            starts = range(0, total, period)
            runs = (range(start, start + n * stride) for start in starts)
        else:
            runs = (range(start, total, period) for start in range(n * stride))
        for run in runs:
            for cut in range(0, len(run), RUN_CAP):
                yield run[cut : cut + RUN_CAP], stride


def lex_rank(u: Vertex, n: int, d: int) -> int:
    """Base-(n+1) value of the coordinates, leftmost most significant."""
    check_vertex(u, n, d)
    r = 0
    for c in u:
        r = r * (n + 1) + c
    return r


def lex_unrank(r: int, n: int, d: int) -> Vertex:
    check_grid(n, d)
    if r < 0 or r >= (n + 1) ** d:
        raise ValueError(f"rank {r} outside [0, {(n + 1) ** d - 1}]")
    coords = [0] * d
    for p in range(d - 1, -1, -1):
        r, coords[p] = divmod(r, n + 1)
    return tuple(coords)


def neighbour_positions(q: int, n: int, d: int) -> list[int]:
    """The lex positions of the neighbours of the vertex at position q.

    Its dimension-p neighbours sit at q -/+ (n+1)^(d-1-p): the lower one
    when its coordinate p is above 0, the upper one when it is below n.
    The lower ones come first, each half dimension by dimension, leftmost
    first.
    """
    strides = [(c, (n + 1) ** (d - 1 - p)) for p, c in enumerate(lex_unrank(q, n, d))]
    return [q - s for c, s in strides if c] + [q + s for c, s in strides if c < n]


def load_labeling_file(path: str, n: int, d: int) -> list[int]:
    """Read an explicit labeling: one `<coords><TAB><label>` line per vertex.

    Returns the labels by lex position.  '#' lines and blank lines are
    ignored; duplicates or gaps (not a bijection onto 1..(n+1)^d) raise
    ValueError.  A grid over DEFAULT_SCAN_BUDGET vertices raises
    BudgetExceededError before any list is allocated.
    """
    check_budget(n, d, DEFAULT_SCAN_BUDGET, "labeling-file")
    total = (n + 1) ** d
    labels = [0] * total
    seen: set[int] = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected '<coords>\\t<label>'")
            try:
                u = parse_vertex(parts[0])
                label = int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            try:
                position = lex_rank(u, n, d)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: vertex {parts[0]} not in the grid"
                ) from None
            if label < 1 or label > total:
                raise ValueError(f"{path}:{lineno}: label {label} outside 1..{total}")
            if labels[position]:
                raise ValueError(f"{path}:{lineno}: duplicate vertex {parts[0]}")
            if label in seen:
                raise ValueError(f"{path}:{lineno}: duplicate label {label}")
            labels[position] = label
            seen.add(label)
    if len(seen) != total:
        raise ValueError(
            f"{path}: {len(seen)} vertices labeled, expected {total} (not a bijection)"
        )
    return labels


def _typecode(top: int) -> str:
    """The smallest array typecode that holds 0..top."""
    if top < 1 << 8:
        return "B"
    if top < 1 << 16:
        return "H"
    return "i" if top < 1 << 31 else "q"


def _hales_labels(n: int, d: int) -> array:
    """Hales labels (rank + 1) by lex position, one coordinate at a time.

    The label of (rest, h) is rest's label plus the shift of its weight w,
    from `hales.weight_shifts`.  (rest, h) sits at lex position
    (n+1)*position(rest) + h, so each h fills one stride-(n+1) slice.
    """
    digits = range(n + 1)
    width = n + 1
    size_code, weight_code = _typecode(width**d), _typecode(n * d)
    labels = array(size_code, range(1, width + 1))
    weights = array(weight_code, digits)
    for m, shift_of in enumerate(weight_shifts(n, d), start=2):
        shifts = list(map(shift_of, range(n * m + 1)))
        grown = array(size_code, bytes(width**m * labels.itemsize))
        for h in digits:
            shift = shifts[h:]  # shift[w] is the shift for weight w + h
            grown[h::width] = array(
                size_code, map(add, labels, map(shift.__getitem__, weights))
            )
        if m < d:  # the last step needs no weights
            grown_weights = array(weight_code, bytes(width**m * weights.itemsize))
            for h in digits:
                grown_weights[h::width] = array(weight_code, map(h.__add__, weights))
            weights = grown_weights
        labels = grown
    return labels


def label_array(order: str, n: int, d: int) -> Sequence[int]:
    """The labeling of an order, "hales" or "lex", indexed by lex position.

    lex is a range; hales is a compact array built by `_hales_labels`, with
    no enumeration of the order.
    """
    if order == "lex":
        return range(1, (n + 1) ** d + 1)
    if order == "hales":
        return _hales_labels(n, d)
    raise ValueError(f"unknown labeling {order!r} (use 'hales' or 'lex')")


def labeling_bandwidth(
    labeling: str | Sequence[int],
    n: int,
    d: int,
    max_vertices: int = DEFAULT_SCAN_BUDGET,
) -> BandwidthReport:
    """Exact max |f(u) - f(v)| over all edges, with a deterministic witness.

    labeling is an order name for `label_array`, or the labels by lex
    position, such as `load_labeling_file` returns.  The witness is the
    maximizing edge whose pair (label of its lex-lighter end, label of its
    other end) is least, so it is read from the scanned labels alone and
    does not depend on scan order.  Grids larger than max_vertices are
    refused outright rather than scanned for hours.
    """
    check_budget(n, d, max_vertices, "edge-scan")
    if isinstance(labeling, str):
        labels = label_array(labeling, n, d)
    elif len(labeling) == (n + 1) ** d:
        labels = labeling
    else:
        raise ValueError(
            f"{len(labeling)} labels for the {(n + 1) ** d} vertices of P_{n}^{d}"
        )
    # a run whose stretch is at least the value so far offers its least
    # hit, the edge of its least lighter label, as a run holds one edge per
    # lighter end.  Only a strictly less pair of labels replaces the
    # incumbent, so with repeated labels the first such edge stays.
    value, least, edge = -1, None, None
    for r, s in edge_ranges(n, d):
        stretch, hit = _scan_run(labels, r, s, value)
        if hit is None:
            continue
        label, i = hit
        pair = (label, labels[i + s])
        if stretch > value or pair < least:
            value, least, edge = stretch, pair, (i, i + s)
    witness = (lex_unrank(edge[0], n, d), lex_unrank(edge[1], n, d))
    return BandwidthReport(value=value, witness=witness)


def _max_stretch(labels: Sequence[int], n: int, d: int) -> int:
    """The bandwidth of a label array: max |f(u) - f(v)| over all edges."""
    return max(_scan_run(labels, r, s)[0] for r, s in edge_ranges(n, d))


def _scan_run(
    labels: Sequence[int], r: range, s: int, value: float = float("inf")
) -> tuple[int, tuple[int, int] | None]:
    """An edge_ranges pair (r, s)'s stretch, max |f(i) - f(i + s)| over i in
    r, and, if that is at least value, its least hit: the least (f(i), i)
    over the i whose edges stretch that much; else None.

    Range labels, such as lex, stretch every edge of the run alike, by the
    difference of the two slices' starts, so their run costs one
    subtraction and its least hit is at one of its two ends.
    """
    lo, hi, step = r.start, r.stop, r.step
    lighter, other = labels[lo:hi:step], labels[lo + s : hi + s : step]
    if isinstance(lighter, range):
        stretch = abs(other.start - lighter.start)
        hits = ((lighter[0], r[0]), (lighter[-1], r[-1]))
    else:
        # other - lighter: Hales and lex label the heavier end higher, so the
        # difference is positive and abs returns it without making a new int
        stretch = max(map(abs, map(sub, other, lighter)))
        reaches = map(stretch.__eq__, map(abs, map(sub, other, lighter)))
        hits = compress(zip(lighter, r), reaches)
    return stretch, (min(hits) if stretch >= value else None)
