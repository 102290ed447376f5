"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact integer equality unless stated otherwise.
"""

import json
import math
import time
from functools import cmp_to_key
from itertools import product

import gridband.cli as cli
from gridband.bandwidth import asymptotic_estimate, bw_hales, bw_lex, ratio_table
from gridband.coeffs import (
    coeff,
    coeff_row,
    max_coeff,
    top_sum,
    trinomial_coeff,
)
from gridband.grid import labeling_bandwidth
from gridband.hales import (
    block_matrix,
    hales_compare,
    hales_rank,
    hales_unrank,
)
from gridband.oracle import PROVED, brute_force_bw

# bw(P_n^d) for n = 2..8 (columns), d = 1..11 (rows)
BW_TABLE_N2_TO_N8 = {
    1: (1, 1, 1, 1, 1, 1, 1),
    2: (3, 4, 5, 6, 7, 8, 9),
    3: (8, 14, 21, 30, 40, 52, 65),
    4: (21, 48, 91, 155, 243, 360, 509),
    5: (56, 172, 404, 831, 1514, 2574, 4085),
    6: (152, 617, 1835, 4512, 9655, 18716, 33551),
    7: (419, 2289, 8464, 25098, 62474, 138816, 279441),
    8: (1169, 8463, 39489, 140059, 408667, 1035692, 2352135),
    9: (3292, 32011, 185814, 793765, 2695090, 7823236, 19956152),
    10: (9338, 120439, 880174, 4499506, 17887694, 59241709, 170376339),
    11: (26641, 460813, 4191494, 25788102, 119335481, 452484637, 1461956288),
}

# hypercube column from the central-binomial sum, d = 1..11
HYPERCUBE_FORMULA = (1, 2, 4, 7, 13, 23, 43, 78, 148, 274, 526)
# the value circulating in older tabulations runs one lower from d = 3 on
HYPERCUBE_TABULATED = (1, 2, 3, 6, 12, 22, 42, 77, 147, 273, 525)

# weight-k slices of {0,1,2}^3, row for row
BLOCKS_2_3 = {
    0: [(0, 0, 0)],
    1: [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
    2: [(0, 0, 2), (0, 1, 1), (1, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)],
    3: [(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 1, 1), (2, 0, 1), (1, 2, 0), (2, 1, 0)],
    4: [(0, 2, 2), (1, 1, 2), (2, 0, 2), (1, 2, 1), (2, 1, 1), (2, 2, 0)],
    5: [(1, 2, 2), (2, 1, 2), (2, 2, 1)],
    6: [(2, 2, 2)],
}


def _pass(num, name):
    print(f"CRITERION {num} ({name}): PASS")


def _table_doc(capsys, n_max, d_max):
    code = cli.main(["table", "--n", str(n_max), "--d", str(d_max), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def conv_row(n, d):
    row = [1]
    for _ in range(d):
        out = [0] * (len(row) + n)
        for i, a in enumerate(row):
            for j in range(n + 1):
                out[i + j] += a
        row = out
    return row


def test_criterion_1_table_reproduction(capsys):
    start = time.monotonic()
    doc = _table_doc(capsys, 8, 11)
    rows = doc["rows"]
    assert len(rows) == 11 and all(len(row) == 8 for row in rows)
    for d in range(1, 12):
        for n in range(2, 9):
            assert rows[d - 1][n - 1] == BW_TABLE_N2_TO_N8[d][n - 2], (n, d)
    # spot anchors
    assert rows[2][1] == 8
    assert rows[6][4] == 25098
    assert rows[10][7] == 1461956288
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"table took {elapsed:.2f}s"
    _pass(1, "table reproduction")


def test_criterion_2_hypercube_column_erratum(capsys):
    start = time.monotonic()
    assert tuple(bw_hales(1, d) for d in range(1, 12)) == HYPERCUBE_FORMULA
    # independent derivation of the same column
    assert HYPERCUBE_FORMULA == tuple(
        sum(math.comb(i, i // 2) for i in range(d)) for d in range(1, 12)
    )
    doc = _table_doc(capsys, 8, 11)
    column = tuple(row[0] for row in doc["rows"])
    assert column == HYPERCUBE_FORMULA
    for d in range(3, 12):
        assert column[d - 1] != HYPERCUBE_TABULATED[d - 1]
    note = doc["note"]
    assert "n=1" in note
    assert "4 at (n=1, d=3)" in note  # the d=3 arbitration outcome is recorded

    for d, expected in [(2, 2), (3, 4)]:
        cert = brute_force_bw(1, d, max_nodes=10 ** 8)
        assert cert.status == PROVED
        assert cert.optimal_value == expected == bw_hales(1, d)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"erratum handling took {elapsed:.2f}s"
    _pass(2, "hypercube column erratum")


def test_criterion_3_optimality_certification():
    for n, d in [(1, 1), (1, 2), (1, 3), (2, 2), (3, 2)]:
        start = time.monotonic()
        cert = brute_force_bw(n, d, max_nodes=10 ** 8)
        elapsed = time.monotonic() - start
        assert cert.status == PROVED, (n, d)
        assert cert.optimal_value == bw_hales(n, d), (n, d)
        assert cert.nodes_explored <= 10 ** 8
        assert elapsed < 60.0, f"({n},{d}) took {elapsed:.2f}s"
    _pass(3, "optimality certification")


def test_criterion_4_labeling_formula_consistency():
    start = time.monotonic()
    checked = 0
    for n in range(1, 5):
        d = 1
        while (n + 1) ** d <= 10 ** 5:
            assert labeling_bandwidth("hales", n, d).value == bw_hales(n, d), (n, d)
            assert labeling_bandwidth("lex", n, d).value == (n + 1) ** (d - 1), (n, d)
            checked += 1
            d += 1
    assert checked == 16 + 10 + 8 + 7
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"scans took {elapsed:.2f}s"
    _pass(4, "labeling/formula consistency")


def test_criterion_5_order_engine_coherence():
    for n, d in [(1, 13), (2, 8), (3, 6), (4, 5), (9, 2), (99, 1)]:
        for r in range((n + 1) ** d):
            assert hales_rank(hales_unrank(r, n, d), n, d) == r

    for n in range(1, 4):
        for d in range(1, 5):
            concat = []
            for k in range(n * d + 1):
                concat.extend(block_matrix(n, d, k))
            by_comparator = sorted(
                product(range(n + 1), repeat=d), key=cmp_to_key(hales_compare)
            )
            assert concat == by_comparator, (n, d)

    for k, rows in BLOCKS_2_3.items():
        assert block_matrix(2, 3, k) == rows, k
    _pass(5, "order-engine coherence")


def test_criterion_6_coefficient_identities():
    start = time.monotonic()
    for n in range(1, 9):
        for d in range(41):
            row = coeff_row(n, d)
            assert len(row) == n * d + 1
            assert sum(row) == (n + 1) ** d
            assert row == row[::-1]
            for k in range(1, n * d):
                assert row[k] * row[k] >= row[k - 1] * row[k + 1]

    for n in range(1, 7):
        for d in range(21):
            assert list(coeff_row(n, d)) == conv_row(n, d), (n, d)

    for d in range(21):
        for k in range(2 * d + 1):
            assert trinomial_coeff(d, k) == coeff(2, d, k)

    for n in range(1, 7):
        for d in range(2, 21):
            ranked = tuple(sorted(coeff_row(n, d - 1), reverse=True))
            assert max_coeff(n, d) == top_sum(n, d - 1) + ranked[n], (n, d)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"identities took {elapsed:.2f}s"
    _pass(6, "coefficient identities")


def test_criterion_7_bounds():
    for n in range(1, 9):
        for d in range(1, 21):
            value = bw_hales(n, d)
            assert max_coeff(n, d) <= value <= max_coeff(n, d + 1), (n, d)
    _pass(7, "central-coefficient bounds")


def test_criterion_8_asymptotics():
    start = time.monotonic()
    for n in range(1, 5):
        ratios = {
            d: asymptotic_estimate(n, d).estimate / max_coeff(n, d + 1)
            for d in range(30, 61)
        }
        for d, r in ratios.items():
            assert 1.0 <= r <= 1.10, (n, d, r)
        # the peak sits on or half off the distribution mode depending on
        # row parity, so the approach to 1 is monotone within parity classes
        for d in range(42, 61):
            assert ratios[d] <= ratios[d - 2], (n, d)

    for n in range(1, 5):
        ratios = [r for _, _, _, r in ratio_table(n, 30)]
        tail = ratios[2:]  # d >= 3
        assert all(a > b for a, b in zip(tail, tail[1:])), n
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"asymptotics took {elapsed:.2f}s"
    _pass(8, "asymptotics")


def _read_matrix_market(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate integer symmetric"
    size_r, size_c, nnz = (int(tok) for tok in lines[1].split())
    assert size_r == size_c
    entries = [tuple(int(tok) for tok in line.split()) for line in lines[2:] if line]
    assert len(entries) == nnz
    return size_r, entries


def test_criterion_9_matrix_export(capsys, tmp_path):
    for n, d in [(2, 2), (3, 2), (1, 3)]:
        path = tmp_path / f"laplacian_{n}_{d}.mtx"
        code = cli.main(
            [
                "export-matrix", "--n", str(n), "--d", str(d),
                "--order", "hales", "--kind", "laplacian", "--out", str(path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        size, entries = _read_matrix_market(path)
        assert size == (n + 1) ** d

        seen = set()
        row_sums = [0] * (size + 1)
        half_bandwidth = 0
        for i, j, v in entries:
            assert 1 <= j <= i <= size  # lower triangle only
            assert (i, j) not in seen
            seen.add((i, j))
            row_sums[i] += v
            if i != j:
                row_sums[j] += v  # mirror of the symmetric half
                half_bandwidth = max(half_bandwidth, i - j)
        assert all(s == 0 for s in row_sums[1:]), (n, d)
        assert half_bandwidth == labeling_bandwidth("hales", n, d).value == bw_hales(n, d)
    _pass(9, "matrix export")
