"""The graph P_n^d: vertices {0,...,n}^d with edges between coordinate
vectors differing by one in a single component.

A grid is named by the pair (n, d), which every function takes as two
integers.  Provides the lexicographic labeling, labeling files and exact
edge-scan bandwidths.  This module alone knows the lex-position layout,
where the vertex at position i has its dimension-p neighbour at
i + (n+1)^(d-1-p).  Scans, matrix export and listings take it from
`label_array`, a labeling indexed by lex position, and its inverse
`label_positions`; from `edge_ranges`, the edges as strided runs of at
most RUN_CAP positions; and from tables split at the middle coordinate,
which `_split_tables` alone builds and `label_listing`, `label_lines` and
`lower_neighbours` read.  `label_lines` builds each block of a listing's
lines in one list comprehension, and `lower_neighbours` each export row's
labels as text in another, str(labels[q - s]) for each stride s of the
row.  The search takes one vertex at a time, as it reaches it, from
`lex_neighbourhood`: its coordinates, decoded once by `lex_unrank`, and
its neighbours' positions, read from them by the stride rule.  Loaded
files and certificates keep labels by lex position; every field read from
text, a coordinate or a label, is judged by its significant digits before
int() reads it.

`_edge_scan` is the one loop that reads a bandwidth from those runs: the
value and the lex positions of a witness edge.  It has two callers:
`labeling_bandwidth`, behind `bw --method lex`, a lex export's
half-bandwidth and the re-scan of a loaded labeling, which decodes the two
positions into vertices; and `brute_force_bw`, once per round of its
search: the Hales value it starts from, then each labeling a round finds.
The Hales order's value is read by no scan outside the search:
`labeling_bandwidth` reads its value and witness from the DP of
`hales.hales_bandwidth`, for `bw --method hales-scan` and a Hales export,
and tests check the DP against the scan.  A scan of a range labeling, such
as lex, costs one subtraction per run, since every edge of a run stretches
alike; any other labeling is read edge by edge, and a run's least hit is
sought only where the run reaches the value so far: see `_edge_scan`.

The Hales label array is built one coordinate at a time by the recurrence
of `hales.weight_shifts`, with no walk of the order and one packed
addition per slice, each slice's labels packed into one big integer
(SWAR: Lamport, CACM 18(8), 1975; Knuth, TAOCP 4A, 7.1.3): see
`_hales_labels`.
"""

from __future__ import annotations

import sys
from array import array
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from itertools import compress, count, product
from operator import mul, sub

from .coeffs import TEXT_CAP, BudgetExceededError, InternalInvariantError  # re-exported
from .coeffs import check_budget, check_grid, check_rank, shown, significant_digits, worded
from .hales import Vertex, check_vertex, hales_bandwidth, weight_shifts

DEFAULT_SCAN_BUDGET = 1_000_000

# the longest run edge_ranges yields, and the longest chunk the label build
# adds at once, so that a scan or a build holds slices of this many labels,
# not of n/(n+1) of the grid
RUN_CAP = 1 << 13

# the most lines that one string of label_lines holds, and so that one
# write to stdout carries in a listing
BLOCK_LINES = 1024


BandwidthReport = namedtuple("BandwidthReport", ["value", "witness"])
BandwidthReport.__doc__ = (
    "A scanned bandwidth value and a witness edge (two vertices) achieving it, "
    "a named tuple."
)


def parse_vertex(text: str, n: int) -> Vertex:
    """Parse the comma-separated text form, e.g. "1,0,2", of a vertex of P_n^d.

    Every coordinate is judged by its significant digits before any is
    read.  What int() refuses is no coordinate, and is named by its position
    and its text, cut by `shown`; a coordinate with more significant digits
    than n is refused unread, by its digit count: it lies outside [0, n],
    and reading it would cost time quadratic in its length.
    """
    parts = text.split(",")
    for p, part in enumerate(parts):
        digits = significant_digits(part)
        if digits is None:
            text = shown(part, repr)
            raise ValueError(f"bad vertex: coordinate {p} is {text}, not an integer")
        # 10^(digits-1) > n says it has more digits than n; the bit bound
        # says so first for a long one, without building the power
        if digits > 1 and (3 * (digits - 1) >= n.bit_length() or 10 ** (digits - 1) > n):
            raise ValueError(worded("coordinate of {k} digits outside [0, {n}]", {"k": digits, "n": n}))
    return tuple(map(int, parts))


def format_vertex(u: Vertex) -> str:
    return ",".join(map(str, u))


def _split_tables(n: int, d: int, cell: Callable) -> tuple[list, list, int]:
    """Tables of cell(u, p) over the leading ceil(d/2) coordinates (p = 0)
    and over the trailing floor(d/2) (p = ceil(d/2)), u the half's
    coordinates and p the index of its first, then width = (n+1)^floor(d/2):
    the vertex at lex position q is the halves at hi[q // width] and
    lo[q % width].  They hold O(sqrt((n+1)^(d+1))) cells.
    """
    lead = d - d // 2
    hi = [cell(u, 0) for u in product(range(n + 1), repeat=lead)]
    lo = [cell(u, lead) for u in product(range(n + 1), repeat=d - lead)]
    return hi, lo, (n + 1) ** (d - lead)


def _vertex_texts(n: int, d: int) -> tuple[list[str], list[str], int]:
    """`_split_tables` of format_vertex's texts: each coordinate after a
    comma, the leading half's (p = 0) first comma dropped."""
    return _split_tables(n, d, lambda u, p: "".join(f",{c}" for c in u)[p == 0 :])


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
) -> Iterator[tuple[list[str], int]]:
    """(lighter neighbours' labels as text, degree) of each vertex, in label
    order.

    The lighter neighbours of u at position q are at q - (n+1)^(d-1-p) for
    each u_p >= 1, in that order.  `_split_tables` hold these strides and
    the degrees, and one list comprehension reads a row's texts,
    str(labels[q - s]) for each stride s.
    """
    strides = [(n + 1) ** (d - 1 - p) for p in range(d)]
    hi, lo, width = _split_tables(n, d, lambda u, p: (
        tuple(compress(strides[p:], u)), sum((c > 0) + (c < n) for c in u)))
    for q in label_positions(labels):
        (hi_strides, hi_degree), (lo_strides, lo_degree) = hi[q // width], lo[q % width]
        yield [str(labels[q - s]) for s in hi_strides + lo_strides], hi_degree + lo_degree


def label_listing(n: int, d: int, labels: Sequence[int]) -> Iterator[tuple[str, int]]:
    """(vertex text, label) for every vertex of a labeling, in label order:
    one join of two `_vertex_texts` strings a vertex."""
    hi, lo, width = _vertex_texts(n, d)
    return zip((hi[q // width] + lo[q % width] for q in label_positions(labels)), count(1))


def label_lines(n: int, d: int, labels: Sequence[int]) -> Iterator[str]:
    """The `<vertex><TAB><label>` lines of label_listing, BLOCK_LINES lines
    to a string: the plain `gridband label` listing, and a certificate's
    body.

    One list comprehension builds a block's lines from the tables of
    `_vertex_texts`, with no pair and no format call per line.
    """
    hi, lo, width = _vertex_texts(n, d)
    positions = label_positions(labels)
    for start in range(0, len(positions), BLOCK_LINES):
        yield "".join([
            f"{hi[q // width]}{lo[q % width]}\t{label}\n"
            for label, q in enumerate(positions[start : start + BLOCK_LINES], start + 1)
        ])


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
    """The vertex at lex position r.  A d over DEFAULT_SCAN_BUDGET is refused
    with BudgetExceededError before its d coordinates are allocated."""
    check_rank(r, n, d)
    if d > DEFAULT_SCAN_BUDGET:
        raise BudgetExceededError(worded(
            "a vertex of P_{n}^{d} has {d} coordinates; over the unrank budget ({budget} coordinates)",
            {"n": n, "d": d, "budget": DEFAULT_SCAN_BUDGET},
        ))
    coords = [0] * d
    for p in range(d - 1, -1, -1):
        r, coords[p] = divmod(r, n + 1)
    return tuple(coords)


def lex_neighbourhood(q: int, n: int, d: int) -> tuple[Vertex, list[int]]:
    """The vertex at lex position q, and the lex positions of its neighbours.

    Its dimension-p neighbours sit at q -/+ (n+1)^(d-1-p): the lower one
    when its coordinate p is above 0, the upper one when it is below n.
    The lower ones come first, each half dimension by dimension, leftmost
    first.
    """
    u = lex_unrank(q, n, d)
    strides = [(c, (n + 1) ** (d - 1 - p)) for p, c in enumerate(u)]
    return u, [q - s for c, s in strides if c] + [q + s for c, s in strides if c < n]


def load_labeling_file(path: str, n: int, d: int) -> list[int]:
    """Read an explicit labeling: one `<coords><TAB><label>` line per vertex.

    Returns the labels by lex position.  '#' lines and blank lines are
    ignored; duplicates or gaps (not a bijection onto 1..(n+1)^d) raise
    ValueError, whose message cuts the text it quotes by `shown`.  Each
    label is judged by its significant digits before int() reads it, as
    `parse_vertex` judges a coordinate: one with more of them than (n+1)^d
    is refused by its digit count, unread.  A grid over DEFAULT_SCAN_BUDGET
    vertices raises BudgetExceededError before any list is allocated.  n
    and d are checked once: a parsed vertex is judged by one length and
    range test and placed by the stride rule, and the labels seen are
    marked in a bytearray.
    """
    check_budget(n, d, DEFAULT_SCAN_BUDGET, "labeling-file")
    total = (n + 1) ** d
    width = len(str(total))  # at most DEFAULT_SCAN_BUDGET: a short text
    strides = [(n + 1) ** (d - 1 - p) for p in range(d)]
    labels, seen = [0] * total, bytearray(total + 1)
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected '<coords>\\t<label>'")
            try:
                u = parse_vertex(parts[0], n)
                digits = significant_digits(parts[1])
                if digits is None:
                    raise ValueError(f"bad label {shown(parts[1], repr)}: not an integer")
                if digits > width:  # refused unread, as a coordinate
                    raise ValueError(f"label of {digits} digits outside 1..{total}")
                label = int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if len(u) != d or min(u) < 0 or max(u) > n:
                raise ValueError(f"{path}:{lineno}: vertex {shown(parts[0])} not in the grid")
            position = sum(map(mul, u, strides))
            if label < 1 or label > total:
                raise ValueError(f"{path}:{lineno}: label {label} outside 1..{total}")
            if labels[position]:
                raise ValueError(f"{path}:{lineno}: duplicate vertex {shown(parts[0])}")
            if seen[label]:
                raise ValueError(f"{path}:{lineno}: duplicate label {label}")
            labels[position], seen[label] = label, 1
    if (labeled := seen.count(1)) != total:
        raise ValueError(f"{path}: {labeled} vertices labeled, expected {total} (not a bijection)")
    return labels


def _typecode(top: int) -> str:
    """The smallest array typecode that holds 0..top."""
    if top < 1 << 8:
        return "B"
    if top < 1 << 16:
        return "H"
    return "i" if top < 1 << 31 else "q"


def _packed(words: array) -> int:
    """The words as one integer, word i in the bits from i * 8 * itemsize up."""
    return int.from_bytes(words.tobytes(), sys.byteorder)


def _unpacked(packed: int, code: str, size: int) -> array:
    """The size words of typecode code packed in an integer, as `_packed`."""
    words = array(code)
    words.frombytes(packed.to_bytes(size * words.itemsize, sys.byteorder))
    return words


def _hales_labels(n: int, d: int) -> array:
    """Hales labels (rank + 1) by lex position, one coordinate at a time.

    The label of (rest, h) is rest's label plus the shift of its weight w,
    from `hales.weight_shifts`.  (rest, h) sits at lex position
    (n+1)*position(rest) + h, so each h fills one stride-(n+1) slice.  In
    chunks of RUN_CAP positions of rest, a slice is one addition of packed
    words, the labels plus their gathered shifts, and its weights another,
    the weights plus h in every word.  No word carries into the next: every
    sum is a label or a weight of the grown grid, which the typecode of the
    largest label, (n+1)^d, or of the largest weight, n*d, holds.
    """
    width = n + 1
    code, weight_code = _typecode(width**d), _typecode(n * d)
    labels = array(code, range(1, width + 1))
    weights = array(weight_code, range(width))
    for m, shifts in enumerate(reversed(list(weight_shifts(n, d))), start=2):
        grown = array(code, bytes(width**m * labels.itemsize))
        grown_weights = array(weight_code, bytes(width**m * weights.itemsize * (m < d)))
        for lo in range(0, len(labels), RUN_CAP):
            part = weights[lo : lo + RUN_CAP]
            size, packed = len(part), _packed(labels[lo : lo + RUN_CAP])
            packed_weights = _packed(part)
            ones = _packed(array(weight_code, [1]) * size)
            for h in range(width):
                at = slice(width * lo + h, width * (lo + size), width)
                shift = array(code, map(shifts[h:].__getitem__, part))
                grown[at] = _unpacked(packed + _packed(shift), code, size)
                if m < d:  # the last step needs no weights
                    grown_h = packed_weights + h * ones
                    grown_weights[at] = _unpacked(grown_h, weight_code, size)
        labels, weights = grown, grown_weights
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

    labeling is an order name, or the labels by lex position, such as
    `load_labeling_file` returns.  The Hales order's value and witness come
    from the DP of `hales.hales_bandwidth`, with no label built.  For any
    other labeling, `_edge_scan` reads the value and the witness edge's two
    lex positions from the labels, decoded here into vertices.  A scan is
    refused outright, rather than run for hours, when the grid has more than
    max_vertices vertices; the Hales DP, which builds no vertex, is refused
    when its n*d^2 steps are more than max_vertices.
    """
    if labeling == "hales":
        check_grid(n, d)
        if (steps := n * d * d) > max_vertices:
            raise BudgetExceededError(worded(
                "the Hales DP on P_{n}^{d} takes {steps} steps (n*d^2); over the scan budget ({budget} steps)",
                {"n": n, "d": d, "steps": steps, "budget": max_vertices}))
        return BandwidthReport(*hales_bandwidth(n, d))
    check_budget(n, d, max_vertices, "edge-scan")
    if isinstance(labeling, str):
        labeling = label_array(labeling, n, d)
    elif len(labeling) != (total := (n + 1) ** d):
        raise ValueError(f"{len(labeling)} labels for the {total} vertices of P_{n}^{d}")
    value, (i, j) = _edge_scan(labeling, n, d)
    return BandwidthReport(value, (lex_unrank(i, n, d), lex_unrank(j, n, d)))


def _edge_scan(labels: Sequence[int], n: int, d: int) -> tuple[int, tuple[int, int]]:
    """The bandwidth of labels by lex position, such as `label_array`
    builds, and the lex positions (i, i + s) of its witness edge: the
    maximizing edge whose pair (f(i), f(i + s)) is least, read from the
    labels alone, whatever the scan order.

    Each edge_ranges run (r, s) that can reach the value so far offers its
    stretch, max |f(i) - f(i + s)| over i in r, and its least hit: the
    least (f(i), f(i + s), i) over the i whose edges stretch that much.
    Range labels, such as lex, stretch every edge of a run alike, by the
    difference of the two slices' starts, so their run costs one
    subtraction and its least hit is at one of its two ends.  Any other
    labels are read edge by edge, in one pass for the stretch and, only if
    it reaches the value, one more for the least hit.  Only a strictly less
    pair of labels replaces the incumbent, so with repeated labels the
    first such edge in scan order stays.
    """
    value, least, edge = -1, None, None
    for r, s in edge_ranges(n, d):
        lo, hi, step = r.start, r.stop, r.step
        lighter, other = labels[lo:hi:step], labels[lo + s : hi + s : step]
        if isinstance(lighter, range):
            stretch = abs(other.start - lighter.start)
            hits = zip((lighter[0], lighter[-1]), (other[0], other[-1]), (r[0], r[-1]))
        else:
            stretch = max(map(abs, map(sub, other, lighter)))
            reaches = map(stretch.__eq__, map(abs, map(sub, other, lighter)))
            hits = compress(zip(lighter, other, r), reaches)
        if stretch < value:
            continue
        *pair, i = min(hits)
        if stretch > value or pair < least:
            value, least, edge = stretch, pair, (i, i + s)
    return value, edge
