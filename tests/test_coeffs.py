"""Coefficient rows: examples frozen against a direct convolution oracle."""

import re
from collections import deque
from itertools import accumulate, pairwise

import pytest

from gridband import coeffs
from gridband.bandwidth import BoundsPair, asymptotic_estimate, bounds, bw_hales, ratio_table
from gridband.coeffs import (
    BudgetExceededError,
    _count_below,
    _half_row,
    _step_down,
    _top_sums_by_walk,
    coeff,
    coeff_row,
    max_coeff,
    top_sum,
    trinomial_coeff,
)
from gridband.grid import lex_unrank, parse_vertex
from gridband.hales import hales_rank, hales_unrank


def conv_rows(n, d_max):
    """Oracle: rows 0..d_max of (1 + x + ... + x^n)^d, each multiplied out
    from the one before, term by term."""
    row = [1]
    yield row
    for _ in range(d_max):
        out = [0] * (len(row) + n)
        for i, a in enumerate(row):
            for j in range(n + 1):
                out[i + j] += a
        row = out
        yield row


def conv_row(n, d):
    """Oracle: multiply out (1 + x + ... + x^n)^d term by term."""
    return deque(conv_rows(n, d), 1)[0]


def test_coeff_row_examples():
    assert coeff_row(2, 0) == (1,)
    assert coeff_row(3, 1) == (1, 1, 1, 1)
    assert coeff_row(2, 3) == (1, 3, 6, 7, 6, 3, 1)
    assert coeff_row(2, 3) == tuple(conv_row(2, 3))


def test_deep_cold_row_matches_closed_form():
    row = coeff_row(2, 600)
    assert len(row) == 1201
    assert sum(row) == 3**600
    assert row == row[::-1]
    for k in (0, 1, 2, 299, 600, 1000):
        assert row[k] == trinomial_coeff(600, k), k


def test_coeff_out_of_range_is_zero():
    assert coeff(2, 3, 3) == 7
    assert coeff(2, 3, -1) == 0
    assert coeff(2, 3, 7) == 0
    assert coeff(2, 3, 1) == 3
    assert coeff(2, 3, 5) == 3


@pytest.mark.parametrize("n", [1, 2, 5])
def test_max_coeff_trivial_power(n):
    assert max_coeff(n, 0) == 1


def test_max_coeff_examples():
    assert max_coeff(2, 3) == 7
    assert max_coeff(1, 10) == 252  # central binomial C(10, 5)


def test_top_sum_examples():
    assert top_sum(4, 0) == 1
    assert top_sum(2, 2) == 5  # 3 + 2 from 1,2,3,2,1
    assert top_sum(2, 4) == 35  # 19 + 16


def test_trinomial_closed_form():
    assert trinomial_coeff(3, 3) == 7
    assert trinomial_coeff(4, 4) == 19
    for d in (0, 1, 5, 9):
        assert trinomial_coeff(d, 0) == 1
    for d in range(13):
        for k in range(2 * d + 1):
            assert trinomial_coeff(d, k) == coeff(2, d, k)


def ranked(n, d):
    """Reference for "the largest coefficients": the row sorted, largest first."""
    return tuple(sorted(coeff_row(n, d), reverse=True))


def test_row_invariants_small():
    for n in range(1, 5):
        for d in range(13):
            row = coeff_row(n, d)
            assert len(row) == n * d + 1
            assert sum(row) == (n + 1) ** d
            assert row == row[::-1]
            for k in range(1, n * d):
                assert row[k] * row[k] >= row[k - 1] * row[k + 1]


def test_recurrence_matches_convolution_small():
    # both parities of n*d; coeff_row mirrors the half row into the full row
    for n in range(1, 9):
        for d, full in enumerate(conv_rows(n, 30)):
            assert list(coeff_row(n, d)) == full, (n, d)


def test_recurrence_half_rows_match_the_stream():
    # Miller's recurrence against the oracle's row stream, both parities of
    # n*d; the half of row d holds the degrees 0..floor(n*d/2)
    for n in range(1, 13):
        for d, full in enumerate(conv_rows(n, 60)):
            assert _half_row(n, d) == tuple(full[: n * d // 2 + 1]), (n, d)


def test_central_coefficient_identity():
    # max of row d equals top_sum(n, d-1) plus the (n+1)-st sorted entry,
    # that entry read as 0 when row d-1 is shorter than n+1
    for n in range(1, 6):
        for d in range(1, 12):
            top = ranked(n, d - 1)
            extra = top[n] if n < len(top) else 0
            assert max_coeff(n, d) == top_sum(n, d - 1) + extra, (n, d)


def test_count_below_matches_row_prefix_sums():
    # inclusion-exclusion against the row's prefix sums, for every k below,
    # inside and above the row
    for n in range(1, 9):
        for i in range(13):
            prefix = list(accumulate(coeff_row(n, i), initial=0))
            for k in range(-2, n * i + 4):
                expected = prefix[min(max(k, 0), n * i + 1)]
                assert _count_below(n, i, k) == expected, (n, i, k)


def test_max_coeff_and_top_sum_match_rows():
    for n in range(1, 13):
        for d in range(25):
            top = ranked(n, d)
            assert max_coeff(n, d) == top[0], (n, d)
            assert top_sum(n, d) == sum(top[:n]), (n, d)


def _no_row(*step):
    raise AssertionError("a row was built")


def _break_row_steps(monkeypatch):
    # the recurrence's step: a route that reaches it at n = 10^9 fails here
    # instead of allocating n-sized windows
    monkeypatch.setattr(coeffs, "_miller", _no_row)


def test_huge_n_needs_no_row(monkeypatch):
    _break_row_steps(monkeypatch)
    n = 10**9
    assert top_sum(n, 1) == n
    assert max_coeff(n, 12) < max_coeff(n, 13)
    assert coeff(n, 2, n) == n + 1
    assert [row[1] for row in ratio_table(n, 3)] == [1, n + 1, n + 1 + top_sum(n, 2)]
    assert bounds(n, 12) == BoundsPair(max_coeff(n, 12), max_coeff(n, 13))


def test_step_down_inverts_one_convolution_step():
    # on prefix sums of half rows: the counts of row m+1 step down to those
    # of row m
    for n in range(1, 9):
        for m, (row, up) in enumerate(pairwise(conv_rows(n, 31))):
            below = list(accumulate(up[: n * (m + 1) // 2 + 1], initial=0))
            half = row[: n * m // 2 + 1]
            assert _step_down(below, n, m + 1) == list(accumulate(half, initial=0)), (n, m)


def test_row_budget_refuses_before_building(monkeypatch):
    _break_row_steps(monkeypatch)
    with pytest.raises(BudgetExceededError) as refused:
        _half_row(10**8, 2)
    bits, budget = map(int, re.fullmatch(
        r"coefficient row 2 for n = 100000000 would hold about (\d+) bits; "
        r"the row budget is (\d+) bits", str(refused.value)).groups())
    assert budget == coeffs.ROW_BITS < bits == (2 * 10**8 + 1) * 2 * 27
    # the walk, rank and unrank refuse the same row, alike
    for call in (
        lambda: next(_top_sums_by_walk(10**8, 3)),
        lambda: hales_rank((0, 0), 10**8, 2),
        lambda: hales_unrank(0, 10**8, 2),
    ):
        with pytest.raises(BudgetExceededError) as also:
            call()
        assert str(also.value) == str(refused.value)
    monkeypatch.undo()
    assert len(coeff_row(6, 450)) == 2701  # about 3.6e6 bits: inside the budget


# with Python's int/str digit limit at its default, as outside the CLI, a
# refusal writes an integer it cannot print as its name in capitals, and
# gives its size in a clause of its own; its other numbers print as before
NINES = "9" * 40 + "... (2500 characters)"
HUGE_REFUSALS = [
    (lambda: coeffs.check_grid(-10**5000, 1), ValueError,
     "need n >= 1 and d >= 1, got n=N, d=1; N is a negative integer of about 5001 digits"),
    (lambda: coeffs.check_budget(10**4400, 1, 5, "x"), BudgetExceededError,
     "P_N^1 has (N+1)^1 vertices; over the x budget (5 vertices); N is an integer of about 4401 digits"),
    (lambda: bw_hales(1, 10**2500), BudgetExceededError,
     f"coefficient row {NINES} for n = 1 would hold about B bits; the row budget is 268435456 bits; "
     "B is an integer of about 5001 digits"),
    (lambda: coeffs._check_row_bits(10**5000, 2), BudgetExceededError,
     "coefficient row 2 for n = N would hold about B bits; the row budget is 268435456 bits; "
     "N is an integer of about 5001 digits; B is an integer of about 5005 digits"),
    (lambda: hales_unrank(10**5000, 1, 5), ValueError,
     "rank R outside [0, 31]; R is an integer of about 5001 digits"),
    (lambda: coeffs._refuse_rank(0, 10**5000, 3), ValueError,
     "rank 0 outside [0, (N+1)^3 - 1]; N is an integer of about 5001 digits"),
    (lambda: asymptotic_estimate(10**4400, 1), ValueError,
     "(n+1)^(d+1) = (N+1)^2 is beyond float range; no float estimate exists; "
     "N is an integer of about 4401 digits"),
    (lambda: lex_unrank(0, 1, 10**5000), BudgetExceededError,
     "a vertex of P_1^D has D coordinates; over the unrank budget (1000000 coordinates); "
     "D is an integer of about 5001 digits"),
    # the check of a vertex's length printed d through str, and so raised
    # the limit's own ValueError
    (lambda: hales_rank((0,), 1, 10**5000), ValueError,
     "vertex has 1 coordinates, expected D; D is an integer of about 5001 digits"),
    (lambda: hales_rank((-1,), 10**5000, 1), ValueError,
     "coordinate 0 is -1, outside [0, N]; N is an integer of about 5001 digits"),
    (lambda: parse_vertex("1" * 6000, 10**5000), ValueError,
     "coordinate of 6000 digits outside [0, N]; N is an integer of about 5001 digits"),
]


@pytest.mark.parametrize("call,error,message", HUGE_REFUSALS,
                         ids=["check_grid", "check_budget", "bw_hales", "check_row_bits",
                              "hales_unrank", "refuse_rank", "asymptotic_estimate", "lex_unrank",
                              "vertex_length", "vertex_coordinate", "parse_vertex"])
def test_refusals_of_integers_past_the_digit_limit(no_work, call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert str(refused.value) == message


def test_walk_matches_counting():
    # the window walk, called directly, at every d_max on both sides of the
    # series route rule 2n = d_max
    for n in range(1, 13):
        tops = [top_sum(n, i) for i in range(80)]
        for d in range(1, 81):
            assert list(_top_sums_by_walk(n, d)) == tops[:d], (n, d)


@pytest.mark.parametrize(
    "n,d", [(1, 54), (1, 55), (1, 56), (6, 79), (6, 80), (6, 81), (12, 109),
            (12, 110), (12, 111), (100, 549), (100, 550), (100, 551)]
)
def test_max_coeff_routes_agree_at_break_even(monkeypatch, n, d):
    # the counts give coeff's central value and the recurrence gives the
    # last entry of the half row; max_coeff takes the counts up to
    # d = 5(n + 10) and the recurrence past it, and works with the other
    # route broken
    centre = n * d // 2
    by_counts, by_terms = coeff(n, d, centre), _half_row(n, d)[-1]
    assert by_counts == by_terms
    unused = "_miller" if d <= 5 * (n + 10) else "_count_below"
    monkeypatch.setattr(coeffs, unused, _no_row)
    assert max_coeff(n, d) == by_counts
