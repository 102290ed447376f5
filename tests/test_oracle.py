"""Branch-and-bound ground truth on desk-scale grids."""

import ast
import math
import random
import sys
import tracemalloc
from collections import defaultdict
from itertools import count, permutations, product
from pathlib import Path
from types import SimpleNamespace

import pytest

from gridband import grid, oracle
from gridband.bandwidth import bw_hales
from gridband.cli import main
from gridband.grid import InternalInvariantError, labeling_bandwidth, load_labeling_file
from gridband.oracle import (
    BUDGET_EXHAUSTED,
    PROVED,
    DEFAULT_NODE_BUDGET,
    OptimalityCertificate,
    _orbit_key,
    _refine,
    _root_classes,
    brute_force_bw,
    certificate_lines,
)


def _act(g, x, n):
    """Apply a coordinate permutation with per-coordinate reflections."""
    perm, flips = g
    y = [0] * len(x)
    for j, (c, flip) in enumerate(zip(x, flips)):
        y[perm[j]] = n - c if flip else c
    return tuple(y)


def test_orbit_keys_match_enumerated_stabilizer():
    # orbit keys against the stabilizer picked out of the whole 2^d d! group
    rng = random.Random(4)
    for n, d in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4), (2, 4)]:
        verts = list(product(range(n + 1), repeat=d))
        group = [(p, f) for p in permutations(range(d)) for f in product((0, 1), repeat=d)]
        assert len(group) == 2 ** d * math.factorial(d)
        placements = [rng.sample(verts, rng.randint(0, min(4, len(verts)))) for _ in range(25)]
        if n % 2 == 0:
            centre = (n // 2,) * d
            placements += [[centre], [centre, verts[1]], [verts[0], centre]]
        for placed in placements:
            classes = _root_classes(d)
            for x in placed:
                classes = classes and _refine(classes, x, n)
            stabilizer = [g for g in group if all(_act(g, x, n) == x for x in placed)]
            orbits = {frozenset(_act(g, v, n) for g in stabilizer) for v in verts}
            if classes is None:
                assert len(stabilizer) == 1
                continue
            by_key = defaultdict(set)
            for v in verts:
                by_key[_orbit_key(classes, v, n)].add(v)
            assert set(map(frozenset, by_key.values())) == orbits, (n, d, placed)


def test_small_grids_proved():
    cert = brute_force_bw(2, 2)
    assert cert.optimal_value == 3 and cert.status == PROVED

    cert = brute_force_bw(1, 2)
    assert cert.optimal_value == 2 and cert.status == PROVED

    cert = brute_force_bw(1, 3)
    assert cert.optimal_value == bw_hales(1, 3) == 4 and cert.status == PROVED


def test_hypercube_dimension_four_arbitration():
    # 16 vertices: the exhaustive optimum settles the d=4 value at 7, one
    # above the 6 that circulates in older tabulations
    cert = brute_force_bw(1, 4, max_nodes=100_000)
    assert cert.status == PROVED
    assert cert.optimal_value == 7 == bw_hales(1, 4)


def test_witness_rescans_to_optimal_value(tmp_path):
    for n, d, value in [(2, 2, 3), (4, 2, 5)]:
        cert = brute_force_bw(n, d)
        assert cert.optimal_value == value
        path = tmp_path / "certificate.tsv"
        path.write_text("".join(certificate_lines(cert)), encoding="utf-8")
        report = labeling_bandwidth(load_labeling_file(str(path), n, d), n, d)
        assert report.value == value


def test_certificate_header_lines():
    cert = brute_force_bw(1, 2)
    text = "".join(certificate_lines(cert))
    lines = text.splitlines()
    assert lines[0] == f"# bandwidth {cert.optimal_value}"
    assert lines[1] == f"# status {cert.status}"
    assert lines[2] == f"# nodes {cert.nodes_explored}"
    assert len(lines) == 3 + 4


def _certificate_by_format_vertex(cert):
    """The certificate text as first written: a lambda sort key, str per
    coordinate."""
    lines = [
        f"# bandwidth {cert.optimal_value}",
        f"# status {cert.status}",
        f"# nodes {cert.nodes_explored}",
    ]
    n, d = cert.n, cert.d
    pairs = zip(product(range(n + 1), repeat=d), cert.labels)
    for u, label in sorted(pairs, key=lambda kv: kv[1]):
        lines.append(",".join(str(c) for c in u) + f"\t{label}")
    return "\n".join(lines) + "\n"


def test_certificate_bytes_unchanged():
    proved = brute_force_bw(2, 2)
    exhausted = brute_force_bw(1, 6, max_nodes=10)
    assert (proved.status, exhausted.status) == (PROVED, BUDGET_EXHAUSTED)
    for cert in (proved, exhausted):
        assert "".join(certificate_lines(cert)) == _certificate_by_format_vertex(cert)


def test_fallback_certificate_body_is_the_label_listing(capsys):
    # a search cut off before any full labeling falls back to the Hales
    # order, and so does every proof: no grid of at most 36 vertices has a
    # labeling below the Hales labeling's scanned value
    grids = [(n, 1) for n in range(1, 36)] + [(n, 2) for n in range(1, 6)]
    grids += [(1, 3), (2, 3), (1, 4), (1, 5)]
    certs = [brute_force_bw(2, 3, max_nodes=10)]
    certs += [brute_force_bw(n, d) for n, d in grids]
    assert [cert.status for cert in certs] == [BUDGET_EXHAUSTED] + [PROVED] * len(grids)
    for cert in certs:
        assert main(["label", "--n", str(cert.n), "--d", str(cert.d)]) == 0
        listing = capsys.readouterr().out
        body = "".join(certificate_lines(cert)).split("\n", 3)[3]
        assert body == listing, (cert.n, cert.d)


def test_search_is_deterministic():
    first = brute_force_bw(3, 2)
    second = brute_force_bw(3, 2)
    assert first == second


def _rounds(search, n, d, value):
    """Ask the search for a labeling below value until it finds none, as
    brute_force_bw does; each labeling found must scan below its round's
    threshold.  Returns the last value and the number of labelings found."""
    found_count = 0
    while (found := search.below(value)) is not None:
        scanned = labeling_bandwidth(found, n, d).value
        assert scanned < value, (n, d, scanned, value)
        value, found_count = scanned, found_count + 1
    return value, found_count


def test_trivial_bound_start_agrees():
    # every grid with at most 25 vertices, then 27, 32 and 36 vertices
    grids = [(n, 1) for n in range(1, 25)] + [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (1, 4)]
    grids += [(2, 3), (1, 5), (5, 2)]
    # node counts: a prune rule loosened by one still finds every optimum,
    # and only these counts show it.  From the trivial bound the rounds
    # reach full labelings, so the round loop runs too
    trivial = {(3, 2): 86, (4, 2): 1442, (1, 4): 62, (2, 3): 9904, (1, 5): 3927}
    scanned = {
        (3, 2): 69, (4, 2): 1416, (1, 4): 19, (2, 3): 2681, (1, 5): 3673, (5, 2): 74109,
    }
    for n, d in grids:
        value = labeling_bandwidth("hales", n, d).value
        assert value == bw_hales(n, d), (n, d)
        search = oracle._Search(n, d, 100_000, None)
        assert _rounds(search, n, d, (n + 1) ** d)[0] == value, (n, d)
        assert not search.out_of_budget, (n, d)
        cert = brute_force_bw(n, d, max_nodes=100_000)
        assert cert.status == PROVED and cert.optimal_value == value, (n, d)
        if (n, d) in trivial:
            assert search.nodes == trivial[n, d], (n, d)
        if (n, d) in scanned:
            assert cert.nodes_explored == scanned[n, d], (n, d)


def test_a_round_below_the_optimum_by_one_finds_it_and_the_next_finds_none():
    # nodes after the first round, and after both
    nodes = {(1, 4): (26, 45), (2, 3): (7195, 9876), (1, 5): (88, 3761)}
    for (n, d), (first, both) in nodes.items():
        value = labeling_bandwidth("hales", n, d).value
        search = oracle._Search(n, d, DEFAULT_NODE_BUDGET, None)
        found = search.below(value + 1)
        assert labeling_bandwidth(found, n, d).value == value, (n, d)
        assert sorted(found) == list(range(1, (n + 1) ** d + 1)), (n, d)
        assert search.nodes == first, (n, d)
        assert search.below(value) is None and not search.out_of_budget, (n, d)
        assert search.nodes == both, (n, d)


def test_one_budget_spans_every_round():
    # from the trivial bound at (1, 5), four rounds find 16, 15, 14 and 13
    # in 254 nodes, and the fifth proves 13 in 3673 more; a budget of 1000
    # stops the fifth, at the first node past it
    search = oracle._Search(1, 5, 1000, None)
    assert _rounds(search, 1, 5, 2**5) == (13, 4)
    assert search.out_of_budget and search.nodes == 1001


def test_a_labeling_found_below_the_starting_value_is_the_witness(monkeypatch):
    # a Hales value scanned one too high: the first round finds a labeling
    # at the true value in 88 nodes, and the second proves it in the 3673 of
    # a search from the true Hales value
    n, d = 1, 5
    value = bw_hales(n, d)
    calls = []

    def scan(labels, n, d):
        result = grid._edge_scan(labels, n, d)
        calls.append(result[0])
        return (result[0] + 1, result[1]) if len(calls) == 1 else result

    monkeypatch.setattr(oracle, "_edge_scan", scan)
    cert = brute_force_bw(n, d)
    assert calls == [value, value]
    assert cert.status == PROVED and cert.optimal_value == value
    assert cert.labels != list(grid.label_array("hales", n, d))
    assert labeling_bandwidth(cert.labels, n, d).value == value
    assert cert.nodes_explored == 88 + 3673


def test_a_labeling_found_at_its_threshold_is_an_internal_error(monkeypatch):
    # a round that answers with a labeling no better than its threshold,
    # here the Hales array itself, would repeat forever
    n, d = 2, 2
    rounds = []

    def below(self, threshold):
        rounds.append(threshold)
        return list(grid.label_array("hales", n, d))

    monkeypatch.setattr(oracle._Search, "below", below)
    with pytest.raises(InternalInvariantError, match="bandwidth 3, not below 3"):
        brute_force_bw(n, d)
    assert rounds == [3]


def test_node_budget_exhaustion():
    cert = brute_force_bw(2, 2, max_nodes=5)
    assert cert.status == BUDGET_EXHAUSTED
    # the fallback witness is still a genuine labeling achieving the value
    assert sorted(cert.labels) == list(range(1, 10))


def test_time_limit_exhaustion():
    # (3, 2) is proved in 69 nodes, and a spent time limit still stops it
    for n, d in [(1, 4), (3, 2)]:
        cert = brute_force_bw(n, d, time_limit=1e-9)
        assert cert.status == BUDGET_EXHAUSTED, (n, d)


def test_deadline_is_read_at_every_node(monkeypatch):
    # a clock that advances one second per read: the deadline is 0 + 2.5, the
    # first two nodes read 1 and 2, and the third reads 3
    monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=count().__next__))
    cert = brute_force_bw(1, 6, time_limit=2.5)
    assert cert.status == BUDGET_EXHAUSTED
    assert cert.nodes_explored == 3


def test_search_memory_per_node_is_bounded():
    # 300 nodes into a (1, 12) search about 250 nodes are open.  Each holds
    # its classes, its tried keys and its vertex's slot, well under 4 kB;
    # prefix Hall's set is built anew at each node, as one kept by every
    # open node would hold up to hundreds of vertices
    def peak(max_nodes):
        tracemalloc.start()
        try:
            brute_force_bw(1, 12, max_nodes=max_nodes)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    shallow, deep = peak(10), peak(300)
    assert deep - shallow <= 4096 * (300 - 10), (shallow, deep)


def test_stopped_search_holds_only_the_vertices_it_reached():
    # 2^16 vertices: the search holds a slot reference for each (8 B), and
    # a round a label for each (8 B more); its ten nodes add the slots of
    # the few vertices they reach.  Coordinates and neighbour lists for
    # every vertex would take hundreds of bytes each
    vertices = 256**2
    tracemalloc.start()
    try:
        search = oracle._Search(255, 2, 10, None)
        built = tracemalloc.get_traced_memory()[1]
        assert search.below(vertices) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert search.out_of_budget
    assert built <= 8 * vertices + 4096, built
    assert peak <= 16 * vertices + 4096 + 64 * 1024, (built, peak)


def test_search_decodes_each_vertex_it_reaches_once():
    # every call of grid.lex_unrank, under any name, is seen by its code
    # object; the search reaches all 8 vertices of the 3-cube
    decoded = []
    code = grid.lex_unrank.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            decoded.append(frame.f_locals["r"])

    sys.setprofile(profile)
    try:
        cert = brute_force_bw(1, 3)
    finally:
        sys.setprofile(None)
    assert cert.status == PROVED
    assert sorted(decoded) == list(range(8))


def test_certificate_is_a_named_tuple():
    assert OptimalityCertificate._fields == (
        "n", "d", "optimal_value", "labels", "nodes_explored", "status"
    )
    n, d, value, labels, nodes, status = brute_force_bw(1, 2)
    assert (n, d, value, status) == (1, 2, 2, PROVED)
    assert sorted(labels) == [1, 2, 3, 4] and nodes > 0


def test_search_never_sets_the_recursion_limit(monkeypatch):
    # the open nodes live in a list, not on the interpreter's stack, so a
    # round may dive deeper than the limit.  Above lex's value (n+1)^(d-1),
    # the first dive labels (1, 8) in lex order, 256 levels deep, under a
    # limit of 200
    def refuse(limit):
        raise AssertionError(f"recursion limit set to {limit}")

    set_limit, before = sys.setrecursionlimit, sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    search = oracle._Search(1, 8, DEFAULT_NODE_BUDGET, None)
    set_limit(200)
    try:
        found = search.below(2**7 + 1)
    finally:
        set_limit(before)
    assert found == list(range(1, 2**8 + 1))
    assert search.nodes == 2**8 + 1


def test_budget_validation():
    with pytest.raises(ValueError, match="max_nodes must be positive"):
        brute_force_bw(1, 1, max_nodes=0)
    for time_limit in (0.0, -0.0, float("nan")):
        with pytest.raises(ValueError, match="time_limit must be positive"):
            brute_force_bw(1, 1, time_limit=time_limit)


def test_the_search_reads_no_theorem():
    # the closed form lives in bandwidth and coeffs; of the package, the
    # search imports the grid's layout and the Hales labeling alone
    modules = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    package = {name for name in modules if name.startswith((".", "gridband"))}
    assert package == {".grid", ".hales"}
