"""Graph model, labelings, and the edge-scan bandwidth evaluator."""

import random
import re
import time
from itertools import product

import pytest

import gridband.grid as grid
from gridband.bandwidth import (
    asymptotic_estimate,
    bounds,
    bw_hales,
    bw_hypercube,
    bw_lex,
)
from gridband.cli import main
from gridband.grid import (
    BandwidthReport,
    BudgetExceededError,
    edge_ranges,
    format_vertex,
    label_array,
    label_listing,
    labeling_bandwidth,
    lex_neighbourhood,
    lex_rank,
    lex_unrank,
    load_labeling_file,
    parse_vertex,
)
from gridband.hales import hales_enumerate, hales_rank, hales_unrank
from gridband.oracle import brute_force_bw

from conftest import edges


# every public function that takes a grid, called on (n, d)
GRID_CALLS = {
    "bw_hales": bw_hales,
    "bw_lex": bw_lex,
    "bounds": bounds,
    "asymptotic_estimate": asymptotic_estimate,
    "bw_hypercube": lambda n, d: bw_hypercube(d),  # the grid P_1^d
    "hales_rank": lambda n, d: hales_rank((0,) * d, n, d),
    "hales_unrank": lambda n, d: hales_unrank(0, n, d),
    "hales_enumerate": hales_enumerate,
    "lex_rank": lambda n, d: lex_rank((0,) * d, n, d),
    "lex_unrank": lambda n, d: lex_unrank(0, n, d),
    "labeling_bandwidth": lambda n, d: labeling_bandwidth("hales", n, d),
    "load_labeling_file": lambda n, d: load_labeling_file("missing.tsv", n, d),
    "brute_force_bw": brute_force_bw,
}


@pytest.mark.parametrize(
    "name,n,d",
    [(name, n, d) for name in GRID_CALLS for n, d in [(0, 1), (0, 3), (2, 0)]
     if n > 0 or name != "bw_hypercube"],  # bw_hypercube takes no n
)
def test_grid_functions_refuse_a_grid_that_does_not_exist(name, n, d):
    # P_0^1 is a single vertex with no path, so n = 0 is refused even where
    # the answer needs no row; the vertex (0,) * d lies in P_n^d
    shown = 1 if name == "bw_hypercube" else n
    message = f"need n >= 1 and d >= 1, got n={shown}, d={d}"
    with pytest.raises(ValueError, match=re.escape(message)):
        GRID_CALLS[name](n, d)


def test_vertex_text_form():
    assert parse_vertex("1,0,2", 2) == (1, 0, 2)
    assert format_vertex((1, 0, 2)) == "1,0,2"
    with pytest.raises(ValueError):
        parse_vertex("1,x", 2)
    assert parse_vertex("9,010", 10) == (9, 10)
    with pytest.raises(ValueError, match=r"^coordinate of 3 digits outside \[0, 10\]$"):
        parse_vertex("9,100", 10)


# one field's spellings: leading zeros, signs, underscores, spaces, Unicode
# digits, an empty field, no integer at all, and more digits than n has
SPELLINGS = ["0", "1", "2", "10", "01", "0010", "100", "-0", "+1", "-1", "1_0", "_1", "1__0",
             " 1", "1 ", "", "x", "1.5", "٣", "۱۰", "²", "1" * 31, "9" * 45]


def _outcome(call, *args):
    try:
        return call(*args)
    except ValueError as exc:
        return str(exc)


def _coordinate(text, p, n):
    """Reference: int(text), or the message that refuses coordinate p's
    text, as not an integer or as having more digits than [0, n] allows."""
    try:
        value = int(text)
    except ValueError:
        return f"bad vertex: coordinate {p} is {text!r}, not an integer"
    digits = len(str(abs(value)))
    if digits > 1 and 10 ** (digits - 1) > n:
        return f"coordinate of {digits} digits outside [0, {n}]"
    return value


# what the loader makes of the lines `0<TAB>a` and `a<TAB>2` on P_1^1, for
# each spelling a: the labels, or the line and the message that refuse it
LOADED = {
    "0": "1: label 0 outside 1..2",
    "1": [1, 2],
    "2": "2: vertex 2 not in the grid",
    "10": "1: label of 2 digits outside 1..2",
    "01": [1, 2],
    "0010": "1: label of 2 digits outside 1..2",
    "100": "1: label of 3 digits outside 1..2",
    "-0": "1: label 0 outside 1..2",
    "+1": [1, 2],
    "-1": "1: label -1 outside 1..2",
    "1_0": "1: label of 2 digits outside 1..2",
    "_1": "1: bad label '_1': not an integer",
    "1__0": "1: bad label '1__0': not an integer",
    " 1": [1, 2],
    "1 ": [1, 2],
    "": "1: expected '<coords>\\t<label>'",
    "x": "1: bad label 'x': not an integer",
    "1.5": "1: bad label '1.5': not an integer",
    "٣": "1: label 3 outside 1..2",
    "۱۰": "1: label of 2 digits outside 1..2",
    "²": "1: bad label '²': not an integer",
    "1" * 31: "1: label of 31 digits outside 1..2",
    "9" * 45: "1: label of 45 digits outside 1..2",
}


def test_spelled_fields_read_as_int_reads_them(tmp_path):
    # every pair of spellings as a vertex: the int() values, or the first
    # coordinate's refusal
    for n in (-1000, 0, 1, 2, 9, 10, 99, 10**30):
        for a, b in product(SPELLINGS, repeat=2):
            judged = [_coordinate(a, 0, n), _coordinate(b, 1, n)]
            refused = [j for j in judged if isinstance(j, str)]
            expected = refused[0] if refused else tuple(judged)
            assert _outcome(parse_vertex, f"{a},{b}", n) == expected, (a, b, n)
    path = tmp_path / "spelled.tsv"
    assert list(LOADED) == SPELLINGS
    for a, expected in LOADED.items():
        path.write_text(f"0\t{a}\n{a}\t2\n", encoding="utf-8")
        if isinstance(expected, str):
            expected = f"{path}:{expected}"
        assert _outcome(load_labeling_file, str(path), 1, 1) == expected, a


def test_edges_yields_each_edge_once():
    assert sum(1 for _ in edges(2, 2)) == 12
    assert sum(1 for _ in edges(5, 1)) == 5
    assert sum(1 for _ in edges(1, 3)) == 12


def test_edges_lighter_endpoint_first():
    for u, v in edges(2, 3):
        assert sum(v) == sum(u) + 1


def test_edge_ranges_match_edges():
    # a block of consecutive positions has step 1, a residue class a larger
    # step; these grids use both cuts
    cuts = set()
    for n, d in [(2, 3), (3, 4), (1, 10), (255, 2)]:
        kernel = [
            (lex_unrank(i, n, d), lex_unrank(i + s, n, d))
            for r, s in edge_ranges(n, d)
            for i in r
        ]
        assert len(kernel) == d * n * (n + 1) ** (d - 1), (n, d)
        assert sorted(kernel) == sorted(edges(n, d)), (n, d)
        cuts |= {r.step == 1 for r, _ in edge_ranges(n, d)}
    assert cuts == {True, False}


def test_neighbour_positions_match_edges():
    # every grid of at most 4 096 vertices in two or more dimensions; of the
    # 4 095 paths, whose full check would take 8.5 M calls, those of at most
    # 64 vertices and the longest.  Lex positions are product's order here.
    grids = [(n, d) for d in range(2, 13) for n in range(1, 64) if (n + 1) ** d <= 4096]
    grids += [(n, 1) for n in range(1, 64)] + [(4095, 1)]
    for n, d in grids:
        position = {u: q for q, u in enumerate(product(range(n + 1), repeat=d))}
        expected = [[] for _ in position]
        for u, v in edges(n, d):
            expected[position[u]].append(position[v])
            expected[position[v]].append(position[u])
        for (q, around), u in zip(enumerate(expected), position):
            found = lex_neighbourhood(q, n, d)
            assert (found[0], sorted(found[1])) == (u, sorted(around)), (n, d, q)
    with pytest.raises(ValueError):
        lex_neighbourhood(9, 2, 2)


def _positions(runs):
    return [(i, s) for r, s in runs for i in r]


def test_edge_ranges_capped_pieces_concatenate(monkeypatch):
    for n, d in [(2, 3), (3, 4), (1, 10), (255, 2), (6, 1)]:
        monkeypatch.setattr(grid, "RUN_CAP", (n + 1) ** d)
        uncapped = list(edge_ranges(n, d))
        for cap in (1, 5, 64):
            monkeypatch.setattr(grid, "RUN_CAP", cap)
            capped = list(edge_ranges(n, d))
            assert max(len(r) for r, _ in capped) <= cap
            assert _positions(capped) == _positions(uncapped), (n, d, cap)


def test_edge_ranges_cap_long_runs():
    # dimension 0 of P_3^9 is three blocks of 3 * 4^8 = 196 608 positions
    n, d = 3, 9
    lengths = [len(r) for r, _ in edge_ranges(n, d)]
    assert max(lengths) == grid.RUN_CAP
    assert sum(lengths) == 9 * 3 * 4**8


def _hales_by_enumeration(n, d):
    labels = [0] * (n + 1) ** d
    for label, u in enumerate(hales_enumerate(n, d), start=1):
        labels[lex_rank(u, n, d)] = label
    return labels


def test_hales_label_array_inverts_enumeration():
    # the sweep crosses the typecode switches at 255/256 and 65535/65536 of
    # the weights, which n*d picks, and of the labels, which (n+1)^d picks
    typecodes = set()
    grids = [(1, 1), (4, 1), (9, 1), (2, 3), (3, 2), (1, 12), (255, 2), (5, 4),
             (3, 6), (254, 1), (255, 1), (256, 1), (1, 8), (127, 2), (128, 2),
             (65534, 1), (65535, 1), (65536, 1)]
    for n, d in grids:
        labels = label_array("hales", n, d)
        assert list(labels) == _hales_by_enumeration(n, d), (n, d)
        typecodes.add(labels.typecode)
    assert typecodes == {"B", "H", "i"}


def test_hales_label_array_matches_rank():
    rng = random.Random(7)
    for n, d in [(3, 9), (31, 3), (2, 10), (999, 2)]:
        labels = label_array("hales", n, d)
        for i in rng.sample(range((n + 1) ** d), 200):
            u = lex_unrank(i, n, d)
            assert hales_rank(u, n, d) + 1 == labels[lex_rank(u, n, d)], (n, d, u)


def test_position_texts_match_format_vertex():
    for n, d in [(1, 1), (4, 1), (2, 3), (3, 2), (1, 10), (11, 2)]:
        lex = range(1, (n + 1) ** d + 1)
        listing = [format_vertex(u) for u in product(range(n + 1), repeat=d)]
        assert list(label_listing(n, d, lex)) == list(zip(listing, lex))


def test_lex_rank_unrank():
    n, d = 2, 2
    assert lex_rank((1, 1), n, d) == 4
    assert lex_rank((0, 0), n, d) == 0
    assert lex_unrank(8, n, d) == (2, 2)
    for r in range(9):
        assert lex_rank(lex_unrank(r, n, d), n, d) == r
    with pytest.raises(ValueError):
        lex_unrank(9, n, d)


def test_lex_unrank_refuses_a_huge_d_before_allocating():
    # an in-range rank of a vertex with 10^18 coordinates is refused, not
    # built; an out-of-range one is still a ValueError
    start = time.process_time()
    with pytest.raises(BudgetExceededError, match="over the unrank budget"):
        lex_unrank(0, 3, 10**18)
    assert time.process_time() - start < 1
    message = f"rank -1 outside [0, 4^{10**18} - 1]"
    with pytest.raises(ValueError, match=re.escape(message)):
        lex_unrank(-1, 3, 10**18)


def test_labeling_bandwidth_examples():
    assert labeling_bandwidth("hales", 2, 2).value == 3
    assert labeling_bandwidth("lex", 2, 3).value == 9
    for n in (1, 3, 7):
        assert labeling_bandwidth("hales", n, 1).value == 1


def test_bandwidth_report_is_a_named_tuple():
    assert BandwidthReport._fields == ("value", "witness")
    value, witness = labeling_bandwidth("lex", 2, 3)
    assert value == 9
    assert witness == labeling_bandwidth("lex", 2, 3).witness == ((0, 0, 0), (1, 0, 0))


def test_labeling_bandwidth_matches_formulas_small():
    for n in range(1, 4):
        d = 1
        while (n + 1) ** d <= 3000:
            assert labeling_bandwidth("hales", n, d).value == bw_hales(n, d)
            assert labeling_bandwidth("lex", n, d).value == bw_lex(n, d)
            d += 1


def test_witness_is_an_edge_achieving_the_value():
    n, d = 2, 3
    report = labeling_bandwidth("hales", n, d)
    u, v = report.witness
    diffs = [abs(a - b) for a, b in zip(u, v)]
    assert sorted(diffs) == [0] * (d - 1) + [1]
    ranks = {w: hales_rank(w, 2, 3) + 1 for w in (u, v)}
    assert abs(ranks[u] - ranks[v]) == report.value


def test_witness_is_the_least_label_pair(tmp_path):
    # on P_2^2 each of these labelings reaches its bandwidth 7 on two edges.
    # In `tied` and `crossed` they are ((0,2),(1,2)) and ((1,0),(2,0)).  In
    # `tied` the lighter ends (0,2) and (1,0) come in the same order by lex
    # position and by label, and in the other by Hales rank; in `crossed`
    # they come in one order by lex position and in the other by label,
    # which a witness that follows scan order gets wrong.  In `split` they
    # are ((0,1),(0,2)), labels 1 and 8, and ((2,0),(2,1)), labels 9 and 2:
    # they lie in two runs of edge_ranges, and the heavier ends' labels come
    # in the other order from the lighter ends'
    tied = {(0, 2): 1, (1, 2): 8, (1, 0): 2, (2, 0): 9, (0, 0): 3, (0, 1): 4,
            (1, 1): 5, (2, 1): 6, (2, 2): 7}
    crossed = {(1, 0): 1, (0, 2): 2, (0, 0): 3, (0, 1): 4, (1, 1): 5, (2, 1): 6,
               (2, 2): 7, (2, 0): 8, (1, 2): 9}
    split = {(0, 1): 1, (0, 2): 8, (2, 0): 9, (2, 1): 2, (0, 0): 3, (1, 0): 4,
             (1, 1): 5, (1, 2): 6, (2, 2): 7}
    labelings = {"tied": tied, "crossed": crossed, "split": split}
    files = {name: tmp_path / f"{name}.tsv" for name in labelings}
    for name, mapping in labelings.items():
        _write_labeling(files[name], mapping)
    for n, d in [(2, 2), (1, 4), (2, 3), (3, 3), (5, 2), (1, 7)]:
        hales = {u: i for i, u in enumerate(hales_enumerate(n, d))}
        cases = [("hales", hales), ("lex", {u: lex_rank(u, n, d) for u in hales})]
        if (n, d) == (2, 2):
            cases += [(load_labeling_file(str(files[name]), n, d), mapping)
                      for name, mapping in labelings.items()]
        for labeling, labels in cases:
            report = labeling_bandwidth(labeling, n, d)
            maximizers = [
                (labels[u], labels[v], (u, v))
                for u, v in edges(n, d)
                if abs(labels[u] - labels[v]) == report.value
            ]
            assert report.witness == min(maximizers)[2], (labeling, n, d)
    witnesses = {"tied": ((0, 2), (1, 2)), "crossed": ((1, 0), (2, 0)),
                 "split": ((0, 1), (0, 2))}
    for name, witness in witnesses.items():
        report = labeling_bandwidth(load_labeling_file(str(files[name]), 2, 2), 2, 2)
        assert report == (7, witness), name


def test_witness_reaches_the_value_with_repeated_labels():
    # labeling_bandwidth takes any labels; where two ends share a label,
    # the witness is still an edge that reaches the value, the first in
    # scan order among those of least label pair
    assert labeling_bandwidth([5, 5, 1], 2, 1) == (4, ((1,), (2,)))
    assert labeling_bandwidth([1, 5, 5, 1], 3, 1) == (4, ((0,), (1,)))
    assert labeling_bandwidth([2, 2, 2, 2], 1, 2) == (0, ((0, 0), (1, 0)))
    assert labeling_bandwidth([1, 1, 3, 3], 1, 2) == (2, ((0, 0), (1, 0)))
    # the pair is (lighter end's label, other end's label): (5, 3) < (5, 7)
    assert labeling_bandwidth([5, 7, 5, 3], 3, 1) == (2, ((2,), (3,)))


def test_scans_do_not_build_the_hales_labels(monkeypatch, tmp_path, capsys):
    # a lex scan and the re-scan of a loaded labeling read only the labels
    # they scan, and hales-scan reads its DP; a Hales export, which builds
    # the labels, shows that the patch is live
    def refuse(n, d):
        raise AssertionError("Hales label array built")

    path = tmp_path / "lex.tsv"
    _write_labeling(path, {u: lex_rank(u, 2, 2) + 1 for u in product(range(3), repeat=2)})
    monkeypatch.setattr(grid, "_hales_labels", refuse)
    assert labeling_bandwidth("lex", 3, 4) == (64, ((0,) * 4, (1, 0, 0, 0)))
    loaded = load_labeling_file(str(path), 2, 2)
    assert labeling_bandwidth(loaded, 2, 2) == (3, ((0, 0), (1, 0)))
    assert main(["bw", "--n", "2", "--d", "3", "--method", "lex"]) == 0
    assert capsys.readouterr().out == "value 9\nmethod edge-scan\nwitness 0,0,0 1,0,0\n"
    assert main(["bw", "--n", "2", "--d", "3", "--method", "hales-scan"]) == 0
    assert capsys.readouterr().out == "value 8\nmethod edge-scan\nwitness 0,1,1 1,1,1\n"
    export = ["export-matrix", "--n", "2", "--d", "3", "--order", "hales"]
    with pytest.raises(AssertionError, match="Hales label array built"):
        main([*export, "--out", str(tmp_path / "hales.mtx")])


def test_range_labels_scan_as_their_list():
    # a run of range labels stretches every edge by one difference; a list
    # of the same labels is scanned edge by edge.  The descending range's
    # differences are negative, so only their absolute value is a stretch.
    # Every grid of at most 4 096 vertices with d >= 2, and paths on either
    # side of RUN_CAP, where the one run is cut in two
    grids = [(n, d) for d in range(2, 13) for n in range(1, 64) if (n + 1) ** d <= 4096]
    grids += [(n, 1) for n in (1, 2, 3, 4095, grid.RUN_CAP, grid.RUN_CAP + 1)]
    for n, d in grids:
        total = (n + 1) ** d
        for labels in (range(1, total + 1), range(total, 0, -1)):
            expected = labeling_bandwidth(list(labels), n, d)
            assert labeling_bandwidth(labels, n, d) == expected, (n, d, labels)
            edge = tuple(lex_rank(u, n, d) for u in expected.witness)
            scan = grid._edge_scan(labels, n, d)
            assert scan == (expected.value, edge), (n, d, labels)


def _scan_by_edges(labels, n, d):
    """(value, least label pair) of a labeling by lex position, from
    conftest.edges and no lex-position arithmetic."""
    label = dict(zip(product(range(n + 1), repeat=d), labels))
    pairs = [(label[u], label[v]) for u, v in edges(n, d)]
    value = max(abs(a - b) for a, b in pairs)
    return value, min(pair for pair in pairs if abs(pair[0] - pair[1]) == value)


def test_scan_matches_the_edge_list(monkeypatch):
    # seeded labelings of six kinds, scanned in runs cut short so that a
    # grid has runs of many lengths: the value and the witness's label pair
    # must be the edge list's.  Labels may repeat, be negative, or lie past
    # 2^31 or 2^62, which no machine word holds
    rng = random.Random(2024)
    kinds = {
        "permutation": lambda size: rng.sample(range(1, size + 1), size),
        "repeats": lambda size: [rng.randint(1, size // 3 + 1) for _ in range(size)],
        "negative": lambda size: [rng.randint(-size, size // 2) for _ in range(size)],
        "high": lambda size: [rng.randint(2**31, 2**31 + size) for _ in range(size)],
        "wide": lambda size: [rng.randint(-(2**61), 2**61) for _ in range(size)],
        "huge": lambda size: [rng.randint(-(2**64), 2**64) for _ in range(size)],
    }
    for cap in (1, 3, 8):
        monkeypatch.setattr(grid, "RUN_CAP", cap)
        for n, d in [(1, 1), (2, 1), (9, 1), (1, 4), (2, 3), (3, 2), (4, 3), (1, 6)]:
            size = (n + 1) ** d
            for kind, draw in kinds.items():
                for _ in range(4):
                    labels = draw(size)
                    value, pair = _scan_by_edges(labels, n, d)
                    report = labeling_bandwidth(labels, n, d)
                    assert sum(abs(a - b) for a, b in zip(*report.witness)) == 1
                    u, v = (lex_rank(w, n, d) for w in report.witness)
                    assert (report.value, (labels[u], labels[v])) == (value, pair), (
                        kind, n, d, cap, labels)
                    scan = grid._edge_scan(labels, n, d)
                    assert scan == (value, (u, v)), (kind, n, d, cap)


def test_scan_budget_error_names_budget():
    with pytest.raises(BudgetExceededError) as err:
        labeling_bandwidth("hales", 2, 10, max_vertices=1000)
    assert str(err.value) == (
        f"P_2^10 has {3 ** 10} vertices; over the edge-scan budget (1000 vertices)")


def test_labeling_bandwidth_takes_an_order_or_a_full_label_array():
    n, d = 2, 2
    with pytest.raises(ValueError, match="unknown labeling 'file'"):
        labeling_bandwidth("file", n, d)
    with pytest.raises(ValueError, match="unknown labeling 'file'"):
        label_array("file", n, d)
    with pytest.raises(ValueError, match="8 labels for the 9 vertices"):
        labeling_bandwidth(list(range(1, 9)), n, d)
    assert labeling_bandwidth(list(range(1, 10)), n, d).value == 3


def _write_labeling(path, mapping):
    with open(path, "w", encoding="utf-8") as handle:
        for u, label in mapping.items():
            handle.write(f"{format_vertex(u)}\t{label}\n")


def test_labeling_file_round_trip(tmp_path):
    n, d = 2, 2
    mapping = {u: i for i, u in enumerate(hales_enumerate(2, 2), start=1)}
    path = tmp_path / "hales.tsv"
    _write_labeling(path, mapping)
    by_position = [mapping[u] for u in product(range(3), repeat=2)]
    assert load_labeling_file(str(path), n, d) == by_position
    report = labeling_bandwidth(load_labeling_file(str(path), n, d), n, d)
    assert report.value == 3


def test_labeling_file_rejects_duplicates_and_gaps(tmp_path):
    n, d = 1, 1
    path = tmp_path / "bad.tsv"

    # a coordinate with more digits than n is refused by its digit count
    path.write_text("0\t1\n" + "1" * 5000 + "\t2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.tsv:2: coordinate of 5000 digits outside \[0, 1\]$"):
        load_labeling_file(str(path), n, d)

    path.write_text("0\t1\n0\t2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate vertex"):
        load_labeling_file(str(path), n, d)

    path.write_text("0\t1\n1\t1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate label"):
        load_labeling_file(str(path), n, d)

    path.write_text("0\t1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bijection"):
        load_labeling_file(str(path), n, d)

    path.write_text("0\t3\n1\t1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="outside"):
        load_labeling_file(str(path), n, d)

    path.write_text("5\t1\n1\t2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="not in the grid"):
        load_labeling_file(str(path), n, d)

    # a negative coordinate, and a vertex with too many coordinates
    path.write_text("-1\t1\n1\t2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.tsv:1: vertex -1 not in the grid$"):
        load_labeling_file(str(path), n, d)

    path.write_text("0,0\t1\n1\t2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.tsv:1: vertex 0,0 not in the grid$"):
        load_labeling_file(str(path), n, d)

    path.write_text("0\t1\n1\tx\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.tsv:2: bad label 'x': not an integer$"):
        load_labeling_file(str(path), n, d)

    path.write_text("0\t1\n0;1\t2\n", encoding="utf-8")
    message = r"bad\.tsv:2: bad vertex: coordinate 0 is '0;1', not an integer$"
    with pytest.raises(ValueError, match=message):
        load_labeling_file(str(path), n, d)

    # a label with more digits than the vertex count is refused unread
    path.write_text("0\t1\n1\t" + "2" * 5000 + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad\.tsv:2: label of 5000 digits outside 1\.\.2$"):
        load_labeling_file(str(path), n, d)


def test_a_long_refused_text_is_cut(tmp_path):
    # a message shows the first 40 characters of a text it refuses, and
    # its length
    long = "x" * 50_000
    cut = f"{'x' * 40!r}... (50000 characters)"
    with pytest.raises(ValueError) as err:
        parse_vertex(f"0,{long}", 1)
    assert str(err.value) == f"bad vertex: coordinate 1 is {cut}, not an integer"
    path = tmp_path / "long.tsv"
    zeros = ",".join(["0"] * 25_000)
    for line, message in [
        (f"{long}\t1", f"bad vertex: coordinate 0 is {cut}, not an integer"),
        (f"0\t{long}", f"bad label {cut}: not an integer"),
        (f"{zeros}\t1", f"vertex {zeros[:40]}... (49999 characters) not in the grid"),
    ]:
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_labeling_file(str(path), 1, 1)
        assert str(err.value) == f"{path}:1: {message}"
        assert len(str(err.value)) < len(str(path)) + 120


def test_labeling_file_refuses_a_grid_over_the_scan_budget(tmp_path):
    # 2^40 vertices: refused before the label list is allocated or the file read
    path = tmp_path / "missing.tsv"
    with pytest.raises(BudgetExceededError) as err:
        load_labeling_file(str(path), 1, 40)
    assert str(err.value) == (
        f"P_1^40 has {2**40} vertices; "
        f"over the labeling-file budget ({grid.DEFAULT_SCAN_BUDGET} vertices)")


def test_labeling_file_skips_comments_and_blanks(tmp_path):
    n, d = 1, 1
    path = tmp_path / "commented.tsv"
    path.write_text("# header\n\n0\t1\n1\t2\n", encoding="utf-8")
    assert load_labeling_file(str(path), n, d) == [1, 2]
