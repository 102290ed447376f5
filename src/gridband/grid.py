"""The graph P_n^d: vertices {0,...,n}^d with edges between coordinate
vectors differing by one in a single component.

Provides an edge stream, the lexicographic labeling, labeling files and
exact edge-scan bandwidths.  Only this module knows the lex-position
layout, where the vertex at position i has its dimension-p neighbour at
i + (n+1)^(d-1-p): scans, matrix export and the search's adjacency take it
from `label_array`, a labeling indexed by lex position, and from the edge
kernel `edge_ranges`, the edges as strided runs of positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, product
from operator import sub
from typing import Iterator, Sequence

from .hales import Vertex, hales_enumerate

DEFAULT_SCAN_BUDGET = 1_000_000


class BudgetExceededError(Exception):
    """An operation would enumerate more vertices/lines than its budget allows."""

    def __init__(self, message: str, budget: int, required: int):
        super().__init__(message)
        self.budget = budget
        self.required = required


class InternalInvariantError(Exception):
    """A check that holds for correct code failed, such as two routes disagreeing."""


@dataclass(frozen=True)
class GridParams:
    """The pair (n, d): paths with n edges, d-fold product."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")

    @property
    def vertex_count(self) -> int:
        return (self.n + 1) ** self.d

    @property
    def edge_count(self) -> int:
        return self.d * self.n * (self.n + 1) ** (self.d - 1)


@dataclass(frozen=True)
class LabelingSpec:
    """Which bijection V -> {1,...,(n+1)^d} to evaluate."""

    kind: str  # "hales" | "lex" | "file"
    path: str | None = None


@dataclass(frozen=True)
class BandwidthReport:
    """A bandwidth value, a witness edge achieving it, and how it was obtained."""

    value: int
    witness: tuple[Vertex, Vertex] | None
    method: str  # "formula" | "edge-scan" | "brute-force" | "bound"


def parse_vertex(text: str) -> Vertex:
    """Parse the comma-separated text form, e.g. "1,0,2"."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad vertex {text!r}: {exc}") from None


def format_vertex(u: Vertex) -> str:
    return ",".join(str(c) for c in u)


def edges(params: GridParams) -> Iterator[tuple[Vertex, Vertex]]:
    """Each undirected edge exactly once, lighter (Hales-smaller) endpoint first."""
    n, d = params.n, params.d
    for u in product(range(n + 1), repeat=d):
        for p, c in enumerate(u):
            if c < n:
                yield u, u[:p] + (c + 1,) + u[p + 1 :]


def edge_ranges(params: GridParams) -> Iterator[tuple[range, int]]:
    """Every edge once, as (range, stride) pairs over lex positions.

    Each i in a range is the lighter endpoint of the edge (i, i + stride).
    Pairs come dimension by dimension, leftmost first.  A dimension with
    stride s is cut into its (n+1)^p blocks of n*s consecutive positions or
    into its n*s residue classes modulo (n+1)*s, whichever are fewer.
    """
    n, d = params.n, params.d
    total = params.vertex_count
    for p in range(d):
        stride = (n + 1) ** (d - 1 - p)
        period = (n + 1) * stride
        if total // period <= n * stride:
            for start in range(0, total, period):
                yield range(start, start + n * stride), stride
        else:
            for start in range(n * stride):
                yield range(start, total, period), stride


def edge_labels(
    labels: Sequence[int], r: range, s: int
) -> tuple[Sequence[int], Sequence[int]]:
    """The labels at both ends of the edges of one edge_ranges pair (r, s)."""
    lo, hi, step = r.start, r.stop, r.step
    return labels[lo:hi:step], labels[lo + s : hi + s : step]


def lex_rank(u: Vertex, params: GridParams) -> int:
    """Base-(n+1) value of the coordinates, leftmost most significant."""
    n, d = params.n, params.d
    if len(u) != d:
        raise ValueError(f"vertex has {len(u)} coordinates, expected {d}")
    r = 0
    for c in u:
        if c < 0 or c > n:
            raise ValueError(f"coordinate {c} outside [0, {n}] in {u}")
        r = r * (n + 1) + c
    return r


def lex_unrank(r: int, params: GridParams) -> Vertex:
    n, d = params.n, params.d
    if r < 0 or r >= params.vertex_count:
        raise ValueError(f"rank {r} outside [0, {params.vertex_count - 1}]")
    coords = [0] * d
    for p in range(d - 1, -1, -1):
        r, coords[p] = divmod(r, n + 1)
    return tuple(coords)


def load_labeling_file(path: str, params: GridParams) -> dict[Vertex, int]:
    """Read an explicit labeling: one `<coords><TAB><label>` line per vertex.

    Lines starting with '#' and blank lines are ignored.  The mapping must be
    a bijection onto {1,...,(n+1)^d}; duplicates or gaps raise ValueError.
    """
    mapping: dict[Vertex, int] = {}
    seen_labels: set[int] = set()
    total = params.vertex_count
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected '<coords>\\t<label>'")
            u = parse_vertex(parts[0])
            if len(u) != params.d or any(c < 0 or c > params.n for c in u):
                raise ValueError(f"{path}:{lineno}: vertex {parts[0]} not in the grid")
            label = int(parts[1])
            if label < 1 or label > total:
                raise ValueError(f"{path}:{lineno}: label {label} outside 1..{total}")
            if u in mapping:
                raise ValueError(f"{path}:{lineno}: duplicate vertex {parts[0]}")
            if label in seen_labels:
                raise ValueError(f"{path}:{lineno}: duplicate label {label}")
            mapping[u] = label
            seen_labels.add(label)
    if len(mapping) != total:
        raise ValueError(
            f"{path}: {len(mapping)} vertices labeled, expected {total} (not a bijection)"
        )
    return mapping


def label_array(spec: LabelingSpec, params: GridParams) -> Sequence[int]:
    """The labeling as a sequence indexed by lex position."""
    n, d = params.n, params.d
    total = params.vertex_count
    if spec.kind == "lex":
        return range(1, total + 1)
    if spec.kind == "hales":
        labels = [0] * total
        label = 1
        for u in hales_enumerate(n, d):
            labels[lex_rank(u, params)] = label
            label += 1
        return labels
    if spec.kind == "file":
        if spec.path is None:
            raise ValueError("file labeling requires a path")
        mapping = load_labeling_file(spec.path, params)
        labels = [0] * total
        for u, label in mapping.items():
            labels[lex_rank(u, params)] = label
        return labels
    raise ValueError(f"unknown labeling kind {spec.kind!r}")


def _coerce_spec(spec: LabelingSpec | str) -> LabelingSpec:
    if isinstance(spec, str):
        if spec not in ("hales", "lex"):
            raise ValueError(f"unknown labeling {spec!r} (use 'hales' or 'lex')")
        return LabelingSpec(spec)
    return spec


def labeling_bandwidth(
    spec: LabelingSpec | str,
    params: GridParams,
    max_vertices: int = DEFAULT_SCAN_BUDGET,
) -> BandwidthReport:
    """Exact max |f(u) - f(v)| over all edges, with a deterministic witness.

    The witness is the maximizing edge whose (hales rank, hales rank) pair is
    smallest, independent of scan order.  Grids larger than max_vertices are
    refused outright rather than scanned for hours.
    """
    spec = _coerce_spec(spec)
    n, d = params.n, params.d
    total = params.vertex_count
    if total > max_vertices:
        raise BudgetExceededError(
            f"P_{n}^{d} has {total} vertices; too large for edge scan "
            f"(budget {max_vertices} vertices)",
            budget=max_vertices,
            required=total,
        )
    labels = label_array(spec, params)
    runs = list(edge_ranges(params))
    stretches = [max(_stretches(labels, r, s)) for r, s in runs]
    value = max(stretches)
    # the witness is the edge with the smallest pair of Hales ranks among
    # those reaching the value; ranks are distinct, so i and s never decide
    hales = LabelingSpec("hales")
    ranks = labels if spec.kind == "hales" else label_array(hales, params)
    _, _, i, s = min(
        (ranks[i], ranks[i + s], i, s)
        for (r, s), stretch in zip(runs, stretches)
        if stretch == value
        for i in compress(r, map(value.__eq__, _stretches(labels, r, s)))
    )
    witness = (lex_unrank(i, params), lex_unrank(i + s, params))
    return BandwidthReport(value=value, witness=witness, method="edge-scan")


def _max_stretch(labels: Sequence[int], params: GridParams) -> int:
    """The bandwidth of a label array: max |f(u) - f(v)| over all edges."""
    return max(max(_stretches(labels, r, s)) for r, s in edge_ranges(params))


def _stretches(labels: Sequence[int], r: range, s: int) -> Iterator[int]:
    """|f(i) - f(i + s)| for each i in r."""
    return map(abs, map(sub, *edge_labels(labels, r, s)))
