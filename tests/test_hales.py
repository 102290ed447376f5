"""Order engine: comparator, rank/unrank, streaming, and block construction.

The independent oracle throughout is a plain sort of itertools.product
output under the key (weight, right-to-left coordinates negated).
"""

import random
import tracemalloc
from functools import cmp_to_key
from itertools import product

import pytest

from gridband import coeffs
from gridband.bandwidth import bw_hales
from gridband.coeffs import coeff, coeff_row
from gridband.grid import _edge_scan, label_array, lex_unrank
from gridband.hales import (
    block_matrix,
    hales_bandwidth,
    hales_compare,
    hales_enumerate,
    hales_rank,
    hales_unrank,
)


def grevlex_sorted(n, d):
    """Oracle ordering, written straight from the comparison rule."""
    return sorted(
        product(range(n + 1), repeat=d),
        key=lambda u: (sum(u), tuple(-c for c in reversed(u))),
    )


P22_LISTING = [
    (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (1, 2), (2, 1), (2, 2),
]

# weight-k slices of {0,1,2}^3, rows in order
BLOCKS_2_3 = {
    0: [(0, 0, 0)],
    1: [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
    2: [(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)],
    3: [(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 1, 1), (2, 0, 1), (1, 2, 0), (2, 1, 0)],
    4: [(0, 2, 2), (1, 1, 2), (2, 0, 2), (1, 2, 1), (2, 1, 1), (2, 2, 0)],
    5: [(1, 2, 2), (2, 1, 2), (2, 2, 1)],
    6: [(2, 2, 2)],
}


def test_compare_examples():
    assert hales_compare((0, 1), (1, 0)) == -1
    assert hales_compare((0, 2), (1, 1)) == -1
    assert hales_compare((1, 2), (1, 2)) == 0
    assert hales_compare((1, 0), (0, 1)) == 1


def test_p22_listing():
    assert list(hales_enumerate(2, 2)) == P22_LISTING
    assert grevlex_sorted(2, 2) == P22_LISTING


def test_rank_examples():
    assert hales_rank((0, 0, 0, 0), 3, 4) == 0
    assert hales_rank((1, 1), 2, 2) == 4  # 1-based label 5
    assert hales_rank((1, 1, 1), 2, 3) == 13


def test_unrank_examples():
    assert hales_unrank(0, 2, 3) == (0, 0, 0)
    assert hales_unrank(26, 2, 3) == (2, 2, 2)
    assert hales_unrank(4, 2, 2) == (1, 1)


@pytest.mark.parametrize(
    "n,d",
    [(1, 7), (2, 5), (3, 4), (7, 2), (99, 1), (1, 8), (3, 3), (4, 3), (5, 3),
     (6, 3), (7, 3), (8, 3)],
)
def test_round_trips_exhaustive(n, d):
    # rank adds up the shifts, unrank takes them off: both against
    # the enumeration, which counts nothing.  Every n up to 8 and both
    # parities of n*d, so weights past the middle of the half rows too
    for r, u in enumerate(hales_enumerate(n, d)):
        assert hales_unrank(r, n, d) == u
        assert hales_rank(u, n, d) == r
    assert r == (n + 1) ** d - 1


def test_one_dimension_builds_no_row(monkeypatch):
    # in one dimension the rank is the coordinate
    def no_row(*step):
        raise AssertionError("a row was built")

    monkeypatch.setattr(coeffs, "_miller", no_row)
    assert hales_rank((5,), 20_000_000, 1) == 5
    assert hales_unrank(5, 20_000_000, 1) == (5,)
    assert list(label_array("hales", 4, 1)) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("call", ["coeff_row", "hales_rank", "hales_unrank"])
def test_rows_stream_in_bounded_memory(call):
    # one full row of (6, 360) is about 0.3 MiB, and all 361 of them are
    # 38 MiB.  By half rows and one count stream, the calls peak near 0.17,
    # 0.32 and 0.31 MiB on Python 3.11; rank peaked near 0.60 MiB while it
    # held the prefix sums of rows 0..360 built up one from another, and
    # streaming full rows the calls peaked near 0.60, 1.25 and 0.86 MiB,
    # above each bound
    bound = {"coeff_row": 0.45, "hales_rank": 0.65, "hales_unrank": 0.65}[call]
    n, d = 6, 360
    u = tuple(random.Random(360).randint(0, n) for _ in range(d))
    calls = {
        "coeff_row": lambda: coeff_row(n, d),
        "hales_rank": lambda: hales_rank(u, n, d),
        "hales_unrank": lambda: hales_unrank((n + 1) ** d // 3, n, d),
    }
    tracemalloc.start()
    try:
        calls[call]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * (1 << 20), peak


@pytest.mark.parametrize(
    "n,d", [(1, 64), (2, 64), (5, 48), (8, 40), (1000, 3), (300, 4)]
)
def test_round_trips_random_large(n, d):
    # the last two bisect over weight ranges up to n + 1 wide
    rng = random.Random(20260808 + n * 100 + d)
    total = (n + 1) ** d
    for _ in range(200):
        u = tuple(rng.randint(0, n) for _ in range(d))
        assert hales_unrank(hales_rank(u, n, d), n, d) == u
        r = rng.randrange(total)
        assert hales_rank(hales_unrank(r, n, d), n, d) == r


@pytest.mark.parametrize("n,d", [(1, 1000), (2, 600)])
def test_round_trips_on_deep_cold_rows(n, d):
    total = (n + 1) ** d
    assert hales_rank((0,) * d, n, d) == 0
    assert hales_rank((0,) * (d - 1) + (1,), n, d) == 1
    assert hales_rank((n,) * d, n, d) == total - 1
    assert hales_unrank(total - 1, n, d) == (n,) * d
    rng = random.Random(20261018 + n)
    for _ in range(20):
        u = tuple(rng.randint(0, n) for _ in range(d))
        assert hales_unrank(hales_rank(u, n, d), n, d) == u
        r = rng.randrange(total)
        assert hales_rank(hales_unrank(r, n, d), n, d) == r


@pytest.mark.parametrize("n,d", [(2, 4), (3, 3), (1, 8)])
def test_order_agreement(n, d):
    by_oracle = grevlex_sorted(n, d)
    assert list(hales_enumerate(n, d)) == by_oracle
    assert sorted(by_oracle, key=cmp_to_key(hales_compare)) == by_oracle
    assert sorted(by_oracle, key=lambda u: hales_rank(u, n, d)) == by_oracle


def test_comparator_matches_rank_pairwise():
    verts = list(product(range(3), repeat=3))
    ranks = {u: hales_rank(u, 2, 3) for u in verts}
    for u in verts:
        for v in verts:
            cmp = hales_compare(u, v)
            assert cmp == (ranks[u] > ranks[v]) - (ranks[u] < ranks[v])


def test_enumerate_first_and_last():
    first4 = []
    for u in hales_enumerate(2, 2):
        first4.append(u)
        if len(first4) == 4:
            break
    assert first4 == [(0, 0), (0, 1), (1, 0), (0, 2)]
    assert list(hales_enumerate(4, 1)) == [(0,), (1,), (2,), (3,), (4,)]
    tail = list(hales_enumerate(2, 3))[-4:]
    assert tail == [(1, 2, 2), (2, 1, 2), (2, 2, 1), (2, 2, 2)]


def test_printed_blocks_2_3():
    for k, rows in BLOCKS_2_3.items():
        assert block_matrix(2, 3, k) == rows, k


def test_block_matrix_edges_and_errors():
    assert block_matrix(3, 4, 0) == [(0, 0, 0, 0)]
    assert block_matrix(3, 4, 12) == [(3, 3, 3, 3)]


def test_block_matrix_is_deeper_than_the_recursion_limit():
    d = 1200
    rows = block_matrix(1, d, 1)
    units = {tuple(int(i == j) for j in range(d)) for i in range(d)}
    assert len(rows) == d and set(rows) == units
    assert all(hales_compare(u, v) == -1 for u, v in zip(rows, rows[1:]))
    assert next(hales_enumerate(1, d)) == (0,) * d


def test_blocks_concatenate_to_full_order():
    for n in range(1, 4):
        for d in range(1, 5):
            concat = []
            for k in range(n * d + 1):
                concat.extend(block_matrix(n, d, k))
            assert concat == grevlex_sorted(n, d), (n, d)


def test_block_structure_invariants():
    for n in range(1, 5):
        for d in range(1, 7):
            for k in range(n * d + 1):
                rows = block_matrix(n, d, k)
                assert len(rows) == coeff(n, d, k)
                assert len(set(rows)) == len(rows)
                assert all(sum(u) == k for u in rows)
                for a, b in zip(rows, rows[1:]):
                    assert hales_compare(a, b) == -1


def test_bandwidth_dp_equals_the_edge_scan():
    # value and witness against the scan of the built labels, on every grid
    # with n <= 6 and at most 2*10^4 vertices and on four up to 10^5
    grids = [(n, d) for n in range(1, 7) for d in range(1, 15) if (n + 1) ** d <= 20_000]
    grids += [(1, 16), (2, 10), (3, 8), (9, 5)]
    for n, d in grids:
        value, (i, j) = _edge_scan(label_array("hales", n, d), n, d)
        witness = (lex_unrank(i, n, d), lex_unrank(j, n, d))
        assert hales_bandwidth(n, d) == (value, witness), (n, d)


def test_bandwidth_dp_equals_the_formula_past_the_scan():
    # grids of 2^200, 11^40 and 1001^3 vertices, which no scan reaches
    for n, d in [(1, 200), (10, 40), (1000, 3)]:
        value, (x, y) = hales_bandwidth(n, d)
        assert value == bw_hales(n, d), (n, d)
        assert hales_rank(y, n, d) - hales_rank(x, n, d) == value, (n, d)
