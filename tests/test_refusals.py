"""Library refusals, each pinned by its whole message, and the guards that
prove every refusal comes before any work."""

import importlib
import re
import signal
import time
from functools import partial

import pytest

from gridband.bandwidth import asymptotic_estimate, bounds, bw_hales, bw_hypercube, ratio_table
from gridband.coeffs import BudgetExceededError, coeff_row, trinomial_coeff
from gridband.grid import (
    label_array,
    labeling_bandwidth,
    lex_neighbourhood,
    lex_unrank,
    load_labeling_file,
    parse_vertex,
)
from gridband.hales import block_matrix, hales_compare, hales_rank, hales_unrank
from gridband.oracle import brute_force_bw

from conftest import WORK

E18 = 10**18
LONG = "x" * 50_000
CUT = f"{'x' * 40!r}... (50000 characters)"
ZEROS = ",".join(["0"] * 25_000)
# (id, call, error class, whole message).  A call given as a str is the text
# of a P_1^1 labeling file, whose refusal's message follows `{path}:`
REFUSALS = [
    # bandwidth
    ("estimate 1,1023", lambda: asymptotic_estimate(1, 1023), ValueError,
     "(n+1)^(d+1) = 2^1024 is beyond float range; no float estimate exists"),
    ("estimate 1,2000", lambda: asymptotic_estimate(1, 2000), ValueError,
     "(n+1)^(d+1) = 2^2001 is beyond float range; no float estimate exists"),
    ("estimate 999,200", lambda: asymptotic_estimate(999, 200), ValueError,
     "(n+1)^(d+1) = 1000^201 is beyond float range; no float estimate exists"),
    ("bw_hales", lambda: bw_hales(2, 0), ValueError, "need n >= 1 and d >= 1, got n=2, d=0"),
    ("bw_hypercube", lambda: bw_hypercube(0), ValueError, "need n >= 1 and d >= 1, got n=1, d=0"),
    ("bounds", lambda: bounds(0, 3), ValueError, "need n >= 1 and d >= 1, got n=0, d=3"),
    ("ratio_table", lambda: ratio_table(1, 0), ValueError, "need n >= 1 and d >= 1, got n=1, d=0"),
    # coeffs
    ("coeff_row n=0", lambda: coeff_row(0, 3), ValueError, "need n >= 1 and d >= 0, got n=0, d=3"),
    ("coeff_row d=-1", lambda: coeff_row(2, -1), ValueError, "need n >= 1 and d >= 0, got n=2, d=-1"),
    ("trinomial 7", lambda: trinomial_coeff(3, 7), ValueError, "k must lie in [0, 6], got 7"),
    ("trinomial -1", lambda: trinomial_coeff(3, -1), ValueError, "k must lie in [0, 6], got -1"),
    # hales
    ("compare", lambda: hales_compare((0, 1), (0, 1, 2)), ValueError, "dimension mismatch: 2 vs 3"),
    ("rank 0,3", lambda: hales_rank((0, 3), 2, 2), ValueError, "coordinate 1 is 3, outside [0, 2]"),
    ("rank 0,1,0", lambda: hales_rank((0, 1, 0), 2, 2), ValueError, "vertex has 3 coordinates, expected 2"),
    ("unrank -1", lambda: hales_unrank(-1, 2, 2), ValueError, "rank -1 outside [0, 8]"),
    ("unrank 9", lambda: hales_unrank(9, 2, 2), ValueError, "rank 9 outside [0, 8]"),
    ("block 7", lambda: block_matrix(2, 3, 7), ValueError, "weight must lie in [0, 6], got 7"),
    ("block -1", lambda: block_matrix(2, 3, -1), ValueError, "weight must lie in [0, 6], got -1"),
    # oracle
    ("max_nodes=0", lambda: brute_force_bw(1, 1, max_nodes=0), ValueError, "max_nodes must be positive"),
    *[(f"time_limit={limit}", partial(brute_force_bw, 1, 1, time_limit=limit), ValueError,
       "time_limit must be positive") for limit in (0.0, -0.0, float("nan"))],
    # grid: vertices and lex positions; a message shows the first 40
    # characters of a text it refuses, and its length
    ("vertex 1,x", lambda: parse_vertex("1,x", 2), ValueError,
     "bad vertex: coordinate 1 is 'x', not an integer"),
    ("vertex 9,100", lambda: parse_vertex("9,100", 10), ValueError, "coordinate of 3 digits outside [0, 10]"),
    ("vertex 0,x...", lambda: parse_vertex(f"0,{LONG}", 1), ValueError,
     f"bad vertex: coordinate 1 is {CUT}, not an integer"),
    ("neighbourhood 9", lambda: lex_neighbourhood(9, 2, 2), ValueError, "rank 9 outside [0, 8]"),
    ("lex_unrank 9", lambda: lex_unrank(9, 2, 2), ValueError, "rank 9 outside [0, 8]"),
    # an in-range rank of a vertex with 10^18 coordinates is refused, not built
    ("lex_unrank d=10^18", lambda: lex_unrank(0, 3, E18), BudgetExceededError,
     f"a vertex of P_3^{E18} has {E18} coordinates; over the unrank budget (1000000 coordinates)"),
    ("lex_unrank -1 d=10^18", lambda: lex_unrank(-1, 3, E18), ValueError, f"rank -1 outside [0, 4^{E18} - 1]"),
    # grid: scans; the Hales DP builds no vertex, and its budget is on its
    # n*d^2 steps, after the grid is checked
    ("scan lex", lambda: labeling_bandwidth("lex", 2, 10, max_vertices=1000), BudgetExceededError,
     "P_2^10 has 59049 vertices; over the edge-scan budget (1000 vertices)"),
    ("scan hales", lambda: labeling_bandwidth("hales", 2, 10, max_vertices=199), BudgetExceededError,
     "the Hales DP on P_2^10 takes 200 steps (n*d^2); over the scan budget (199 steps)"),
    ("scan d=-2000", lambda: labeling_bandwidth("hales", 1, -2000), ValueError,
     "need n >= 1 and d >= 1, got n=1, d=-2000"),
    ("scan file", lambda: labeling_bandwidth("file", 2, 2), ValueError,
     "unknown labeling 'file' (use 'hales' or 'lex')"),
    ("label_array file", lambda: label_array("file", 2, 2), ValueError,
     "unknown labeling 'file' (use 'hales' or 'lex')"),
    ("8 labels", lambda: labeling_bandwidth(list(range(1, 9)), 2, 2), ValueError,
     "8 labels for the 9 vertices of P_2^2"),
    # grid: labeling files; 2^40 vertices are refused before the file is
    # read, and a field with more digits than the grid allows unread
    ("file P_1^40", lambda: load_labeling_file("missing.tsv", 1, 40), BudgetExceededError,
     f"P_1^40 has {2**40} vertices; over the labeling-file budget (1000000 vertices)"),
    ("file coordinate digits", "0\t1\n" + "1" * 5000 + "\t2\n", ValueError,
     "2: coordinate of 5000 digits outside [0, 1]"),
    ("file label digits", "0\t1\n1\t" + "2" * 5000 + "\n", ValueError, "2: label of 5000 digits outside 1..2"),
    ("file duplicate vertex", "0\t1\n0\t2\n", ValueError, "2: duplicate vertex 0"),
    ("file duplicate label", "0\t1\n1\t1\n", ValueError, "2: duplicate label 1"),
    ("file gap", "0\t1\n", ValueError, " 1 vertices labeled, expected 2 (not a bijection)"),
    ("file label 3", "0\t3\n1\t1\n", ValueError, "1: label 3 outside 1..2"),
    ("file vertex 5", "5\t1\n1\t2\n", ValueError, "1: vertex 5 not in the grid"),
    ("file vertex -1", "-1\t1\n1\t2\n", ValueError, "1: vertex -1 not in the grid"),
    ("file vertex 0,0", "0,0\t1\n1\t2\n", ValueError, "1: vertex 0,0 not in the grid"),
    ("file label x", "0\t1\n1\tx\n", ValueError, "2: bad label 'x': not an integer"),
    ("file vertex 0;1", "0\t1\n0;1\t2\n", ValueError, "2: bad vertex: coordinate 0 is '0;1', not an integer"),
    ("file long coordinate", f"{LONG}\t1\n", ValueError,
     f"1: bad vertex: coordinate 0 is {CUT}, not an integer"),
    ("file long label", f"0\t{LONG}\n", ValueError, f"1: bad label {CUT}: not an integer"),
    ("file long vertex", f"{ZEROS}\t1\n", ValueError,
     f"1: vertex {ZEROS[:40]}... (49999 characters) not in the grid"),
]


@pytest.mark.parametrize("call,error,message", [pytest.param(*row, id=name) for name, *row in REFUSALS])
def test_library_refusal(no_work, tmp_path, call, error, message):
    if isinstance(call, str):
        path = tmp_path / "labels.tsv"
        path.write_text(call, encoding="utf-8")
        call, message = partial(load_labeling_file, str(path), 1, 1), f"{path}:{message}"
    with pytest.raises(error) as refused:
        call()
    assert (type(refused.value), str(refused.value)) == (error, message)


def test_cpu_second_stops_a_loop_where_it_stands(cpu_second):
    start = time.process_time()
    with pytest.raises(pytest.fail.Exception, match="^over 1 s of CPU$"):
        while True:
            pass
    assert time.process_time() - start < 1.5


def test_no_work_breaks_every_work_loop(no_work):
    for module, names in WORK.items():
        for name in names:
            with pytest.raises(AssertionError, match=re.escape(f"{module}.{name} ")):
                getattr(importlib.import_module(f"gridband.{module}"), name)()


@pytest.fixture
def restored():
    """Set up before a guard and torn down after it: the guard must leave
    the profiling timer off and SIGPROF's handler the one it found, here
    SIG_IGN.  The timer is stopped and the outer handler put back first, so
    a guard that fails this cannot end the run."""
    outer = signal.signal(signal.SIGPROF, signal.SIG_IGN)
    yield
    left = signal.getitimer(signal.ITIMER_PROF), signal.getsignal(signal.SIGPROF)
    signal.setitimer(signal.ITIMER_PROF, 0)
    signal.signal(signal.SIGPROF, outer)
    assert left == ((0.0, 0.0), signal.SIG_IGN)


@pytest.mark.parametrize("guard", ["cpu_second", "no_work"])
def test_a_guard_restores_the_timer_and_its_handler(restored, request, guard):
    request.getfixturevalue(guard)
    assert signal.getitimer(signal.ITIMER_PROF)[0] > 0
    assert signal.getsignal(signal.SIGPROF) is not signal.SIG_IGN
