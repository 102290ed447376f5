"""Shared test references, and the guards that every refusal runner requests."""

import signal
import sys
from functools import partial
from itertools import product

import pytest

# the loops that do a command's work, by the module that names them; the
# functions that hold a check (top_sums, lex_unrank, lex_neighbourhood,
# label_array) stay live, as a refusal is raised inside them
WORK = {
    "coeffs": ("_miller", "_count_below", "_top_window", "_step_down", "_slide", "_below"),
    "grid": ("_edge_scan", "_hales_labels", "edge_ranges", "_split_tables", "hales_bandwidth"),
    "hales": ("hales_bandwidth", "_window_max"),
    "oracle": ("_edge_scan", "_Search"),
}


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


@pytest.fixture
def cpu_second():
    """Fail the test once it has used 1 s of CPU, where it stands.

    The profiling timer counts the process's CPU time, and its signal
    interrupts Python bytecode: a single long C call runs to its end first.
    The timer is stopped and SIGPROF's handler restored at teardown, which
    runs whether or not the test passed.
    """
    previous = signal.signal(signal.SIGPROF, lambda signum, frame: pytest.fail("over 1 s of CPU"))
    signal.setitimer(signal.ITIMER_PROF, 1)
    yield
    signal.setitimer(signal.ITIMER_PROF, 0)
    signal.signal(signal.SIGPROF, previous)


def _ran(name, *args, **kwargs):
    raise AssertionError(f"{name} ran before the refusal")


@pytest.fixture
def no_work(cpu_second, monkeypatch):
    """cpu_second, and every WORK loop raising AssertionError by its name.

    setattr by dotted path raises if a name is gone, so a stale WORK fails
    here rather than passing.
    """
    for module, names in WORK.items():
        for name in names:
            monkeypatch.setattr(f"gridband.{module}.{name}", partial(_ran, f"{module}.{name}"))
