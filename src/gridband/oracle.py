"""Exact minimum bandwidth over all labelings, by depth-first branch and bound.

Labels 1, 2, 3, ... are placed one at a time onto unlabeled vertices.  A
branch dies when the gap to the earliest-labeled vertex that still has an
unlabeled neighbor reaches the incumbent, when such a vertex has more
unlabeled neighbors than labels left inside its reach, or when a placement
would stretch an edge to the incumbent.  Candidates are tried in vertex
text-form order, making every certificate reproducible.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from .bandwidth import bw_hales
from .grid import (
    GridParams,
    InternalInvariantError,
    edge_ranges,
    format_vertex,
    labeling_bandwidth,
    lex_unrank,
)
from .hales import Vertex, hales_enumerate

PROVED = "proved"
BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 100_000_000
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


@dataclass
class OptimalityCertificate:
    optimal_value: int
    witness_labeling: dict[Vertex, int]
    nodes_explored: int
    status: str  # PROVED or BUDGET_EXHAUSTED


@dataclass(frozen=True)
class OptimalityCheck:
    """verify_optimal outcome: result None means the budget ran out (inconclusive)."""

    result: bool | None
    formula_value: int
    certificate: OptimalityCertificate


class _Search:
    def __init__(self, params: GridParams, budget: SearchBudget, threshold: int):
        total = params.vertex_count
        verts = [lex_unrank(i, params) for i in range(total)]
        runs = list(edge_ranges(params))
        adj: list[list[int]] = [[] for _ in range(total)]
        # lower neighbours in dimension order, then upper ones
        for r, s in runs:
            for i in r:
                adj[i + s].append(i)
        for r, s in runs:
            for i in r:
                adj[i].append(i + s)
        self.total = total
        self.verts = verts
        self.adj = adj
        self.order = sorted(range(total), key=lambda i: format_vertex(verts[i]))
        self.label_of = [0] * total
        self.unlabeled_nbrs = [len(a) for a in adj]
        self.placed: list[int] = []
        self.threshold = threshold
        self.max_nodes = budget.max_nodes
        self.deadline = (
            time.monotonic() + budget.time_limit if budget.time_limit else None
        )
        self.nodes = 0
        self.out_of_budget = False
        self.best_value: int | None = None
        self.best_labels: list[int] | None = None

    def run(self) -> None:
        depth_needed = self.total + 64
        if sys.getrecursionlimit() < depth_needed:
            sys.setrecursionlimit(depth_needed)
        self._dfs(0, 0, 1)

    def _dfs(self, t: int, cur_max: int, front: int) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            self.out_of_budget = True
            return
        if self.deadline is not None and self.nodes % 4096 == 0:
            if time.monotonic() > self.deadline:
                self.out_of_budget = True
                return
        label_of = self.label_of
        placed = self.placed
        unl = self.unlabeled_nbrs
        if t == self.total:
            self.best_value = cur_max
            self.best_labels = label_of.copy()
            self.threshold = cur_max
            return
        while front <= t and unl[placed[front - 1]] == 0:
            front += 1
        thr = self.threshold
        if front <= t:
            if (t + 1) - front >= thr:
                return
            # pigeonhole: every unlabeled neighbor of the vertex holding
            # label `lab` must receive one of the lab+thr-1-t labels left
            # within reach
            for lab in range(front, t + 1):
                if unl[placed[lab - 1]] > lab + thr - 1 - t:
                    return
        adj = self.adj
        next_label = t + 1
        for v in self.order:
            if label_of[v]:
                continue
            thr = self.threshold
            new_max = cur_max
            feasible = True
            for w in adj[v]:
                lw = label_of[w]
                if lw:
                    stretch = next_label - lw
                    if stretch >= thr:
                        feasible = False
                        break
                    if stretch > new_max:
                        new_max = stretch
            if not feasible:
                continue
            label_of[v] = next_label
            placed.append(v)
            for w in adj[v]:
                unl[w] -= 1
            self._dfs(next_label, new_max, front)
            for w in adj[v]:
                unl[w] += 1
            placed.pop()
            label_of[v] = 0
            if self.out_of_budget:
                return


def brute_force_bw(
    params: GridParams,
    budget: SearchBudget = SearchBudget(),
    use_formula_bound: bool = True,
) -> OptimalityCertificate:
    """Exhaustive minimum over all labelings, within the given budget.

    The incumbent starts one above the closed-form value (a valid upper
    bound) unless use_formula_bound is False, in which case it starts from
    the trivial bound of vertex count - 1 and the search is fully
    independent of the formula.
    """
    total = params.vertex_count
    threshold = bw_hales(params.n, params.d) + 1 if use_formula_bound else total
    search = _Search(params, budget, threshold)
    search.run()
    if search.best_labels is not None:
        mapping = {
            search.verts[i]: label
            for i, label in enumerate(search.best_labels)
        }
        assert search.best_value is not None
        return OptimalityCertificate(
            optimal_value=search.best_value,
            witness_labeling=mapping,
            nodes_explored=search.nodes,
            status=BUDGET_EXHAUSTED if search.out_of_budget else PROVED,
        )
    if not search.out_of_budget:
        # the Hales labeling beats the starting incumbent, so an exhausted
        # search that found nothing means the incumbent was wrong
        raise InternalInvariantError(
            "search exhausted without finding any labeling below the "
            "starting incumbent; initial upper bound was not valid"
        )
    mapping = {u: i for i, u in enumerate(hales_enumerate(params.n, params.d), start=1)}
    return OptimalityCertificate(
        optimal_value=labeling_bandwidth("hales", params, max_vertices=total).value,
        witness_labeling=mapping,
        nodes_explored=search.nodes,
        status=BUDGET_EXHAUSTED,
    )


def verify_optimal(
    params: GridParams,
    budget: SearchBudget = SearchBudget(),
    use_formula_bound: bool = True,
) -> OptimalityCheck:
    """Check that the exhaustive optimum equals the closed-form value.

    result is True/False only when the search ran to completion; a
    budget-exhausted search yields result None (inconclusive), never False.
    """
    formula = bw_hales(params.n, params.d)
    cert = brute_force_bw(params, budget, use_formula_bound)
    if cert.status != PROVED:
        return OptimalityCheck(result=None, formula_value=formula, certificate=cert)
    return OptimalityCheck(
        result=cert.optimal_value == formula, formula_value=formula, certificate=cert
    )


def certificate_to_text(cert: OptimalityCertificate) -> str:
    """Serialize as a labeling file with a '#' metadata header.

    The body is loadable by grid.load_labeling_file; lines are sorted by
    label so identical certificates serialize identically.
    """
    lines = [
        f"# bandwidth {cert.optimal_value}",
        f"# status {cert.status}",
        f"# nodes {cert.nodes_explored}",
    ]
    for u, label in sorted(cert.witness_labeling.items(), key=lambda kv: kv[1]):
        lines.append(f"{format_vertex(u)}\t{label}")
    return "\n".join(lines) + "\n"
