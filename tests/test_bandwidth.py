"""Closed-form values, bounds, and asymptotics."""

import math
import tracemalloc
from itertools import accumulate

import pytest

from gridband import coeffs
from gridband.bandwidth import (
    AsymptoticEstimate,
    BoundsPair,
    asymptotic_estimate,
    bounds,
    bw_hales,
    bw_hypercube,
    bw_lex,
    ratio_table,
)
from gridband.coeffs import (
    _top_sums_by_walk,
    coeff_row,
    max_coeff,
    top_sum,
    trinomial_coeff,
)


def test_bw_hales_examples():
    assert bw_hales(2, 3) == 8
    assert bw_hales(5, 7) == 25098
    for n in range(1, 9):
        assert bw_hales(n, 2) == n + 1
        assert bw_hales(n, 1) == 1


def test_bw_hales_recurrence():
    for n in range(1, 9):
        for d in range(2, 21):
            assert bw_hales(n, d) == bw_hales(n, d - 1) + top_sum(n, d - 1)


def top_sums_by_rows(n, d_max):
    """Reference: the n largest coefficients of each row, summed."""
    return [sum(sorted(coeff_row(n, i), reverse=True)[:n]) for i in range(d_max)]


def test_series_routes_agree():
    # the walk and inclusion-exclusion against the sorted rows, whichever
    # route top_sums picks for ratio_table's running sum; (n, 2n) is the
    # last point that counts and (n, 2n+1) the first that walks
    cases = [(n, d) for n in range(1, 13) for d in range(1, 25)]
    cases += [(n, d) for n in range(1, 13) for d in (2 * n, 2 * n + 1)]
    for n, d in cases + [(200, 30), (100, 60), (30, 130)]:
        by_rows = top_sums_by_rows(n, d)
        assert list(_top_sums_by_walk(n, d)) == by_rows, (n, d)
        assert [top_sum(n, i) for i in range(d)] == by_rows, (n, d)
        assert [row[1] for row in ratio_table(n, d)] == list(accumulate(by_rows)), (n, d)
        assert bw_hales(n, d) == sum(by_rows), (n, d)


def test_series_builds_no_cached_row(monkeypatch):
    # the counting route builds no row and runs no recurrence: it gives the
    # rows' answers with both steps broken.  The bounds build no row: at
    # (6, 100) max_coeff takes the recurrence, which holds n+2 terms
    series = list(accumulate(top_sums_by_rows(100, 6)))
    pair = BoundsPair(max(coeff_row(6, 100)), max(coeff_row(6, 101)))

    def no_row(*step):
        raise AssertionError("a row was built")

    monkeypatch.setattr(coeffs, "_half_row", no_row)
    assert bounds(6, 100) == pair
    monkeypatch.setattr(coeffs, "_miller", no_row)
    assert [row[1] for row in ratio_table(100, 6)] == series


def test_bw_hales_keeps_a_running_sum():
    # the 4 000 partial sums of (1, 4000), of up to 4 000 bits each, would
    # take about 1.5 MiB; the walk's window and one running sum take kB.
    # A first call fills the interpreter's tuple free lists, whose blocks
    # tracemalloc counts as held, so only the second is traced
    bw_hales(1, 4000)
    tracemalloc.start()
    try:
        value = bw_hales(1, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == bw_hypercube(4000)
    assert peak < 0.25 * 2**20, peak


def test_huge_n():
    n = 10**9
    assert bw_hales(n, 2) == n + 1
    assert max_coeff(n, 2) == n + 1
    pair = bounds(n, 12)
    assert pair.lower <= bw_hales(n, 12) <= pair.upper


def test_hypercube_formula():
    assert bw_hypercube(1) == 1
    assert bw_hypercube(2) == 2
    assert bw_hypercube(4) == 7
    expected = [1, 2, 4, 7, 13, 23, 43, 78, 148, 274, 526]
    assert [bw_hypercube(d) for d in range(1, 12)] == expected
    for d in range(1, 41):
        assert bw_hypercube(d) == bw_hales(1, d)
        assert bw_hypercube(d) == sum(math.comb(i, i // 2) for i in range(d))
    assert bw_hales(1, 1500) == bw_hypercube(1500)  # a deep walk


def test_bw_lex():
    assert bw_lex(2, 3) == 9
    assert bw_lex(7, 1) == 1
    assert bw_lex(8, 11) == 9 ** 10 == 3486784401


def test_bounds_examples():
    pair = bounds(2, 3)
    assert (pair.lower, pair.upper) == (7, 19)
    assert pair.lower <= bw_hales(2, 3) <= pair.upper
    pair = bounds(1, 2)
    assert (pair.lower, pair.upper) == (2, 3)
    for n in range(1, 9):
        assert bounds(n, 1).lower == 1


def test_bounds_pair_is_a_named_tuple():
    assert BoundsPair._fields == ("lower", "upper")
    assert bounds(2, 3) == (7, 19)
    lower, upper = bounds(2, 3)
    assert (lower, upper) == (7, 19)
    assert repr(bounds(2, 3)) == "BoundsPair(lower=7, upper=19)"


def test_bounds_on_deep_cold_rows():
    # for n = 2 the largest coefficient of row d is the trinomial C(d, d)
    pair = bounds(2, 620)
    assert (pair.lower, pair.upper) == (trinomial_coeff(620, 620), trinomial_coeff(621, 621))


def test_bounds_bracket_small():
    for n in range(1, 5):
        for d in range(1, 11):
            pair = bounds(n, d)
            assert pair.lower <= bw_hales(n, d) <= pair.upper


def test_asymptotic_estimate_examples():
    est = asymptotic_estimate(1, 9).estimate
    assert est == pytest.approx(1024 * math.sqrt(6 / (30 * math.pi)), rel=1e-12)
    assert round(est, 2) == 258.37
    assert max_coeff(1, 10) == 252

    est = asymptotic_estimate(2, 2).estimate
    assert est == pytest.approx(27 * math.sqrt(6 / (24 * math.pi)), rel=1e-12)
    assert round(est, 2) == 7.62
    assert max_coeff(2, 3) == 7


def test_asymptotic_estimate_fields():
    info = asymptotic_estimate(3, 4)
    assert info.n == 3 and info.d == 4
    assert info.estimate == pytest.approx(4 ** 5 * info.sqrt_factor, rel=1e-15)
    assert info.sqrt_factor == pytest.approx(
        math.sqrt(6 / (math.pi * 5 * 15)), rel=1e-12
    )


def test_asymptotic_estimate_is_a_named_tuple():
    assert AsymptoticEstimate._fields == ("n", "d", "estimate", "sqrt_factor")
    info = asymptotic_estimate(3, 4)
    n, d, estimate, sqrt_factor = info
    assert (n, d) == (3, 4)
    assert (estimate, sqrt_factor) == (info.estimate, info.sqrt_factor)


def test_asymptotic_estimate_past_float_range_is_refused():
    # 2^1023 is the largest power of two a float holds
    assert asymptotic_estimate(1, 1022).estimate > 0
    for n, d in ((1, 1023), (1, 2000), (999, 200)):
        with pytest.raises(ValueError, match="float range"):
            asymptotic_estimate(n, d)


def test_ratio_table_examples():
    rows = {d: ratio for d, _, _, ratio in ratio_table(2, 11)}
    assert rows[2] == pytest.approx(1.0)
    assert rows[11] == pytest.approx(26641 / 59049, rel=1e-15)
    assert rows[11] == pytest.approx(0.451, abs=5e-4)


def test_ratio_eventually_strictly_decreasing():
    for n in range(1, 9):
        ratios = [r for _, _, _, r in ratio_table(n, 20)]
        tail = ratios[2:]  # d >= 3
        assert all(a > b for a, b in zip(tail, tail[1:])), n


def test_ratio_to_lex_tends_to_the_normal_peak_limit():
    # the paper's last claim: bw_hales / bw_lex * sqrt(d) tends to
    # (n+1) sqrt(6 / (pi n (n+2))), and the relative error falls as 1/d
    for n in range(1, 11):
        limit = (n + 1) * math.sqrt(6 / (math.pi * n * (n + 2)))
        scaled = {}
        for d in (100, 300, 1000):
            # int / int rounds once, so nothing overflows
            err = bw_hales(n, d) / bw_lex(n, d) * math.sqrt(d) / limit - 1
            scaled[d] = err * d
            assert abs(scaled[d]) <= 0.5, (n, d, scaled[d])
        assert abs(scaled[1000] - scaled[300]) < 0.01, (n, scaled)


def test_validation():
    with pytest.raises(ValueError):
        bw_hales(2, 0)
    with pytest.raises(ValueError):
        bw_hypercube(0)
    with pytest.raises(ValueError):
        bounds(0, 3)
    with pytest.raises(ValueError):
        ratio_table(1, 0)
