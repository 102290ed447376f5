"""Shared test references."""

import sys
from itertools import product


def edges(n, d):
    """Each undirected edge of P_n^d exactly once, lighter endpoint first.

    The reference for `grid.edge_ranges` and the matrix export: one vertex
    tuple per endpoint, built with no lex-position arithmetic.
    """
    for u in product(range(n + 1), repeat=d):
        for p, c in enumerate(u):
            if c < n:
                yield u, u[:p] + (c + 1,) + u[p + 1 :]


def limit_lifted(compute):
    """compute() run with Python's int/str digit limit lifted, as main lifts it."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return compute()
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
