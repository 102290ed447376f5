"""Exact minimum bandwidth over all labelings, by depth-first branch and bound.

Labels 1, 2, 3, ... are placed one at a time onto unlabeled vertices.  A
branch with labels 1..t placed dies by prefix Hall: the unlabeled neighbors
of the vertices labeled 1..lab must all take labels in t+1..lab+thr-1, so
once their union is non-empty it may hold at most lab+thr-1-t vertices.  At
the earliest-labeled vertex that still has an unlabeled neighbor this is the
gap bound t+1-lab < thr, and since each vertex's own unlabeled neighbors lie
in the union it also bounds them one vertex at a time.  Candidates are tried
in lex-position order, making every certificate reproducible.  The search
runs in one loop over a list of its open nodes, the root and one per placed
label.  An open node is a generator of its children: it keeps the node's
place among the candidates, labels the next child and yields it, and
unlabels it when the loop resumes it.  The loop alone resumes them, one at a
time, so a dive as deep as the grid has vertices takes no interpreter stack.

Each round of the search asks one question at a fixed threshold thr: does
some labeling stretch every edge less than thr?  Prefix Hall alone keeps
the stretches below thr.  At a node that passed it, a labeled neighbor w of
an unlabeled vertex has t+1-f(w) < thr by the gap bound, so the edge is
below thr whenever its later end takes label t+1.  Every full labeling that
a round reaches is thus an answer, read by no edge scan, and the round
stops at the first one.  `brute_force_bw` starts thr at the bandwidth of
one concrete labeling, the Hales label array, as `grid._edge_scan` reads
it from the labels.  Each labeling that a round finds, read by the same
scan, gives the next round's thr, and the round that finds none proves
the last value optimal.  One node budget, one deadline and one slot cache
span all the rounds.

Symmetry.  The grid's automorphisms permute the d coordinates and reflect
any of them (c -> n - c): the hyperoctahedral group, of order 2^d d!.  At
each node only one unlabeled vertex per orbit of the stabilizer (the
automorphisms that fix every placed vertex) is tried, the first in candidate
order.  This loses no value:

- an automorphism g maps edges to edges, so f and f∘g⁻¹ have the same
  bandwidth;
- if g is in the stabilizer and f completes the placed prefix, f∘g⁻¹
  completes it too, and puts the next label on g(u) where f put it on u;
  taking g with g(u) the representative tried, the representative's subtree
  holds a completion as good as any in a skipped one;
- the prune rules read only labels and adjacency, which g preserves, so the
  representative is pruned only when every vertex of its orbit is.

No theorem about the grid's bandwidth is used: the search starts from one
labeling's scanned value, not from the closed form, which this module never
reads.  A comparison of the two belongs to its caller.

The search keeps no copy of the grid: `grid` alone knows the lex layout.
The first time a node's generator reaches a vertex, it fills the vertex's
slot with its coordinates and its neighbours' lex positions, both from one
decode of its position by `grid.lex_neighbourhood`; prefix Hall reads the
slots of the placed vertices.  So a search stopped by its budget holds only
the vertices it reached, beyond one label and one slot reference per vertex.

The stabilizer is read from the placed vertices' coordinate columns; the
group itself is never enumerated.  Coordinates whose columns are equal up to
reflection form a class, and the stabilizer permutes each class freely.  A
class whose column is its own reflection (every class before the first
placement, or one whose column entries all equal n/2) may also reflect its
coordinates freely.  Two vertices then share an orbit exactly when, class by
class, they have the same sorted coordinate values after aligning: a
coordinate whose column is stored reflected is reflected, and a value c in a
self-reflecting class is folded to min(c, n - c).  Once every class is a
single coordinate that is not self-reflecting, the stabilizer is trivial and
the whole subtree skips the check.

A certificate is written by `certificate_lines` alone: a '#' header, then
the `gridband label` listing of the witness labeling.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Iterator

from .grid import (
    DEFAULT_SCAN_BUDGET,
    InternalInvariantError,
    _edge_scan,
    check_budget,
    label_array,
    label_lines,
    lex_neighbourhood,
)
from .hales import Vertex

PROVED = "proved"
BUDGET_EXHAUSTED = "budget-exhausted"

DEFAULT_NODE_BUDGET = 100_000_000

# how a coordinate's value is aligned inside its class
_KEEP, _REFLECT, _FOLD = 0, 1, 2

# a class: ((coordinate, alignment), ...); None stands for the trivial stabilizer
Classes = tuple[tuple[tuple[int, int], ...], ...] | None


def _root_classes(d: int) -> Classes:
    """The whole group: one self-reflecting class of every coordinate."""
    return (tuple((j, _FOLD) for j in range(d)),)


def _aligned(c: int, mode: int, n: int) -> int:
    if mode == _KEEP:
        return c
    if mode == _REFLECT:
        return n - c
    return min(c, n - c)


def _orbit_key(classes: Classes, x: Vertex, n: int) -> tuple:
    """Equal for two vertices exactly when the stabilizer maps one to the other."""
    return tuple(
        tuple(sorted([_aligned(x[j], mode, n) for j, mode in cls]))
        for cls in classes
    )


def _refine(classes: Classes, x: Vertex, n: int) -> Classes:
    """The stabilizer's classes once the vertex x is placed as well.

    Each class splits by the aligned value of x's coordinate.  In a
    self-reflecting class, a coordinate where x sits off the centre gets a
    column that is not its own reflection; it is stored reflected when x
    lies above the centre there.
    """
    refined = []
    for cls in classes:
        groups: dict[int, list[tuple[int, int]]] = {}
        for j, mode in cls:
            c = x[j]
            if mode == _FOLD and 2 * c != n:
                mode = _REFLECT if 2 * c > n else _KEEP
            groups.setdefault(_aligned(c, mode, n), []).append((j, mode))
        refined.extend(tuple(group) for group in groups.values())
    if all(len(cls) == 1 and cls[0][1] != _FOLD for cls in refined):
        return None
    return tuple(refined)


OptimalityCertificate = namedtuple(
    "OptimalityCertificate",
    ["n", "d", "optimal_value", "labels", "nodes_explored", "status"],
)
OptimalityCertificate.__doc__ = """brute_force_bw outcome, a named tuple like every result record.

labels is the witness labeling, indexed by lex position; status is PROVED
or BUDGET_EXHAUSTED.
"""


class _Search:
    """One search of a grid, asked round by round for a labeling below a
    threshold; its node count, deadline and slot cache span every round."""

    def __init__(self, n: int, d: int, max_nodes: int, time_limit: float | None):
        total = (n + 1) ** d
        self.n = n
        self.d = d
        self.total = total
        # by lex position: (coordinates, neighbour positions), filled the
        # first time a node's generator reaches the vertex
        self.slots: list[tuple[Vertex, list[int]] | None] = [None] * total
        self.max_nodes = max_nodes
        self.deadline = time.monotonic() + time_limit if time_limit else None
        self.nodes = 0
        self.out_of_budget = False

    def below(self, threshold: int) -> list[int] | None:
        """The first full labeling, by lex position, that the search reaches
        below threshold; None when there is none or the budget ran out, which
        out_of_budget tells apart.  Each open node, root first, is a
        `children` generator, which keeps the node's stabilizer classes, the
        orbit keys it has tried and its place in lex-position order.  It
        labels its next child and yields the child's classes, and unlabels
        the child when it is resumed; when it is exhausted the node is
        closed."""
        n, d, total, slots = self.n, self.d, self.total, self.slots
        label_of = [0] * total
        placed: list[tuple[Vertex, list[int]]] = []  # slots, in label order

        def children(classes: Classes) -> Iterator[Classes]:
            tried = set()
            for v in range(total):
                if label_of[v]:
                    continue
                if (slot := slots[v]) is None:
                    slot = slots[v] = lex_neighbourhood(v, n, d)
                if classes is not None:
                    key = _orbit_key(classes, slot[0], n)
                    if key in tried:
                        continue
                    tried.add(key)
                label_of[v] = len(placed) + 1
                placed.append(slot)
                yield None if classes is None else _refine(classes, slot[0], n)
                # resumed: leave the child.  Not in a finally, since a round
                # that returns a labeling drops its open nodes, and closing
                # them must not unlabel it
                label_of[v] = 0
                placed.pop()

        open_nodes: list[Iterator[Classes]] = []
        closed = object()  # what next() gives for a closed node
        classes = _root_classes(d)
        while True:
            # a node: labels 1..t placed, its stabilizer's classes in classes
            self.nodes += 1
            if self.nodes > self.max_nodes or (
                self.deadline is not None and time.monotonic() > self.deadline
            ):
                self.out_of_budget = True
                return None
            t = len(placed)
            if t == total:
                return label_of
            # prefix Hall: the unlabeled neighbors of the vertices labeled
            # 1..lab must all receive one of the labels t+1..lab+thr-1 left
            # within reach
            slack = threshold - 1 - t
            reach: set[int] = set()
            for lab, (_, around) in enumerate(placed, 1):
                for w in around:
                    if not label_of[w]:
                        reach.add(w)
                if reach and len(reach) > lab + slack:
                    break
            else:
                open_nodes.append(children(classes))
            # enter the next child of the deepest open node, closing each
            # node whose candidates run out
            while (classes := next(open_nodes[-1], closed)) is closed:
                open_nodes.pop()
                if not open_nodes:  # the root is closed
                    return None


def brute_force_bw(
    n: int,
    d: int,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    time_limit: float | None = None,
) -> OptimalityCertificate:
    """Exhaustive minimum over all labelings, within max_nodes search nodes
    and, when given, time_limit seconds.

    The value starts at the bandwidth that `_edge_scan` reads from the Hales
    label array, so the search reads no theorem.  Each round asks one
    `_Search` for a labeling below the value, and a labeling it finds, read
    by the same kernel, gives the next round's value.  A round that finds
    none proves the value; the budget, counted over every round, may end
    the rounds first.  A labeling found that does not scan below its
    round's value is a fault of the search, raised as
    InternalInvariantError.  The witness is the last labeling found, or
    else the Hales array.  A max_nodes below 1, or a time_limit not above 0
    (NaN too), is refused with ValueError; then a grid over
    DEFAULT_SCAN_BUDGET vertices is refused with BudgetExceededError, both
    before anything is built.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be positive")
    if time_limit is not None and not time_limit > 0:  # NaN too
        raise ValueError("time_limit must be positive")
    check_budget(n, d, DEFAULT_SCAN_BUDGET, "exhaustive-search")
    labels = label_array("hales", n, d)
    value = _edge_scan(labels, n, d)[0]
    search = _Search(n, d, max_nodes, time_limit)
    while (found := search.below(value)) is not None:
        scanned = _edge_scan(found, n, d)[0]
        if scanned >= value:  # a round answers only below its threshold
            raise InternalInvariantError(
                f"the search found a labeling of bandwidth {scanned}, not below {value}"
            )
        labels, value = found, scanned
    return OptimalityCertificate(
        n=n,
        d=d,
        optimal_value=value,
        labels=labels,
        nodes_explored=search.nodes,
        status=BUDGET_EXHAUSTED if search.out_of_budget else PROVED,
    )


def certificate_lines(cert: OptimalityCertificate) -> Iterator[str]:
    """The certificate as a labeling file with a '#' metadata header, a
    line at a time, then the body in blocks of lines, each with its
    newline, so that a file can be written without the whole text.

    The body is the `gridband label` listing of the witness labeling: in
    label order, and loadable by grid.load_labeling_file.
    """
    yield f"# bandwidth {cert.optimal_value}\n"
    yield f"# status {cert.status}\n"
    yield f"# nodes {cert.nodes_explored}\n"
    yield from label_lines(cert.n, cert.d, cert.labels)
