"""Every real-process pin: one table of `python -m gridband` runs, CASES, and
the one runner, spawn, that starts the children of every test.

Each case runs in a fresh child with src on PYTHONPATH, in its own
directory, under a wall cap; the files it writes are deleted once their pins
are read.  A failing run's stderr is empty or one short `gridband: error:`
line (or the usage line and its error), never a traceback.
"""

import hashlib
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import NamedTuple

import pytest

import gridband
from conftest import limit_lifted

SRC = Path(gridband.__file__).resolve().parents[1]
WALL = 30  # seconds, for a case that names no cap of its own
STACK = 1 << 20  # bytes: `ulimit -s 1024`

# Linux carries the spawning process's peak RSS into a child's ru_maxrss
# across exec, so a child of the test process would read the test process's
# peak.  A capped case is started by this small wrapper, which reads the
# child's own from wait4 and writes it, in kB, to the fd given first.
WRAPPER = """
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[2:]], os.environ)
status, usage = os.wait4(pid, 0)[1:]
os.write(int(sys.argv[1]), str(usage.ru_maxrss).encode())
sys.exit(os.waitstatus_to_exitcode(status))
"""


class Run(NamedTuple):
    code: int
    out: bytes
    err: bytes
    rss_mb: float | None


def spawn(args, cwd, wall=WALL, rss=False, stack=None, env=None) -> Run:
    """`python *args` run in cwd with src on PYTHONPATH and env added, and reaped.

    Past wall seconds the child's process group is killed and the test
    fails.  stack caps the child's stack in bytes.  With rss, the child is
    started by WRAPPER, and its own peak RSS in MB is returned.
    """
    peak_in, peak_out = os.pipe() if rss else (None, None)
    wrapper = ["-c", WRAPPER, str(peak_out)] if rss else []
    try:
        with subprocess.Popen(
            [sys.executable, *wrapper, *args], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC), **(env or {})}, pass_fds=[peak_out] if rss else [],
            start_new_session=True,
            preexec_fn=partial(resource.setrlimit, resource.RLIMIT_STACK, (stack, stack)) if stack else None,
        ) as child:
            try:
                out, err = child.communicate(timeout=wall)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
                pytest.fail(f"over {wall} s: {' '.join(args)[:200]}")
    finally:
        if rss:
            os.close(peak_out)
            with open(peak_in, "rb") as pipe:
                peak = pipe.read()
    return Run(child.returncode, out, err, int(peak) / 1024 if rss else None)


REFUSAL = r"gridband: error: [^\n]*\n"
USAGE = r"usage: gridband [^\n]*\ngridband[^\n]*: error: [^\n]*\n"
ROW_REFUSAL = re.escape("gridband: error: coefficient row 2 for n = 100000000 would hold about "
                        "10800000054 bits; the row budget is 268435456 bits\n")


class Case(NamedTuple):
    """One run of `python *python argv` (argv split on spaces) and what it gives."""
    argv: str
    code: int = 0
    out: str | None = None  # stdout, exactly
    lines: tuple = ()  # whole lines of stdout
    last: str | None = None  # stdout's last line
    sha: str | None = None  # sha256 of stdout
    files: tuple = ()  # (written file, its sha256 or its line count)
    err: str = REFUSAL  # what a failing run's stderr matches in full
    wall: float = WALL
    rss_mb: float | None = None
    stack: int | None = None
    env: dict | None = None
    python: tuple = ("-m", "gridband")


def central_bounds(d):
    """bounds --n 1 --d d in json: the central binomials, and the sum of
    binom(i, i // 2) over i < d, stepped along i."""
    b, total = 1, 0
    for i in range(d):
        total += b
        b = b * (i + 1) // (i // 2 + 1) if i % 2 == 0 else 2 * b
    doc = {"bandwidth": total, "d": d, "lower": math.comb(d, d // 2), "n": 1,
           "upper": math.comb(d + 1, d // 2)}
    return json.dumps(doc, sort_keys=True) + "\n"


NINES = "9" * 4200
# a lex label or rank past Python's 4 300-digit int/str limit prints in full
ONES = ",".join(["1"] * 15000)
TOP, TOP_RANK = limit_lifted(lambda: (str(2**15000), str(2**15000 - 1)))
BUFFERLESS = {"PYTHONUNBUFFERED": "1"}  # listings go out in blocks all the same
PROOF_22 = "verdict verified\nformula 3\nbrute_force 3\nstatus proved\nnodes 9\n"

STDLIB_ONLY = ("import sys; before = set(sys.modules); import gridband, gridband.cli; "
               "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before} - sys.stdlib_module_names))")

CASES = [
    Case("bw --n 2 --d 3 --format json"),
    Case("coeffs --n 2 --d 3 --format csv"),
    Case("label --n 1 --d 3 --format json"),
    Case("bounds --n 1000000000 --d 12 --format json", wall=20),
    Case("bounds --n 1 --d 11000 --format json", wall=10, out=central_bounds(11000)),
    Case("bw --n 999 --d 2 --method hales-scan", wall=20, lines=("value 1000", "witness 0,998 1,998")),
    Case("bw --n 1 --d 19 --method hales-scan", wall=20, lines=("value 99295",)),
    Case("bw --n 3 --d 9 --method hales-scan", wall=20,
         lines=("value 32011", "witness 0,2,2,1,2,1,2,1,2 1,2,2,1,2,1,2,1,2")),
    # grids far past any budget or float are refused from the bit length of
    # n+1, before (n+1)^d is built or printed, and a refusal cuts a huge
    # integer that it echoes
    Case("label --n 1 --d 1000000000000000000", 2, wall=5),
    Case("export-matrix --n 2 --d 1000000000 --out huge.mtx", 2, wall=5),
    Case("bw --n 5 --d 1000000000 --method brute --time-limit 3", 2, wall=5),
    Case("unrank --n 3 --d 1000000000000000000 -1", 1, wall=5),
    Case("unrank --n 3 --d 1000000000000000000 --order lex -1", 1, wall=5),
    Case("estimate --n 1000000000 --d 1000000000", 1, wall=5),
    Case("bw --n 1 --d 100000 --method lex --budget 5", 2, wall=5),
    Case("bw --n 1 --d 20000 --method hales-scan", 2, wall=5),
    # the Hales DP at its step budget, n*d^2 = 10^6, and a table of 9*10^9
    # cells, refused before a stream per column is made
    Case("bw --n 1 --d 1000 --method hales-scan", wall=20,
         sha="d2b142bcbef369eeac971cb75508ff0ca81962f63fdb83876ad58120fdc98a49"),
    Case("table --n 1000000000 --d 9", 2, wall=5, rss_mb=100),
    # an export is refused by its own vertex budget alone, though its Hales
    # DP takes 9 steps on these 8 vertices
    Case("export-matrix --n 1 --d 3 --budget 8 --out p13.mtx", lines=("half_bandwidth 4",)),
    Case("verify-optimal --n 1000000000000000000 --d 1000000000000000000", 2, wall=5),
    Case("unrank --n 3 --d 1000000000000000000 --order lex 0", 2, wall=5),
    Case(f"label --n 1 --d {NINES}", 2, wall=5),
    Case(f"rank --n 1 --d 15000 --order lex {ONES}", wall=10, out=f"{TOP}\n"),
    Case(f"unrank --n 1 --d 15000 --order lex {TOP_RANK}", wall=10, out=f"{ONES}\n"),
    # a rank with more digits than the grid's count is refused unread
    Case(f"unrank --n 1 --d 10 {'1' * 100000}", 1, wall=5, err=r"gridband: error: rank [^\n]* outside [^\n]*\n"),
    Case("bw --n 1 --d 19 --method lex", wall=20,
         lines=("value 262144", f"witness {','.join('0' * 19)} {','.join('1' + '0' * 18)}")),
    Case("label --n 1 --d 16", wall=30, env=BUFFERLESS,
         sha="2b7ae1a125c30dc10b103c4e2fe902eaef794d83053324cf2385267f38c35c4a"),
    Case("label --n 2 --d 7 --format csv", wall=30, env=BUFFERLESS,
         sha="8a7f4634cdca402938802b0d65d9b6324ff77e819cf9e221652963838989eeed"),
    Case("bw --n 3 --d 9 --method lex", wall=30, env=BUFFERLESS, lines=("value 65536",)),
    Case("export-matrix --n 999 --d 2 --kind laplacian --order hales --out big.mtx --self-test", wall=60,
         lines=("nnz 2998000", "half_bandwidth 1000"),
         files=(("big.mtx", "1344b9dc265aec702fef599fe4aead6ff33a3036d52f01bdf46cd6ca582405a4"),)),
    # 2^20 vertices, past the default scan budget: the export's --budget is
    # the only budget on its path
    Case("export-matrix --n 1 --d 20 --kind adjacency --budget 2000000 --out b20.mtx", wall=60,
         lines=("half_bandwidth 191673",)),
    Case("export-matrix --n 1 --d 16 --kind laplacian --order hales --out anchor.mtx --self-test", wall=60,
         files=(("anchor.mtx", "ced25298df2761889bf5e6a3b2e8275c042accd8b539e7462e57cdb52c3407c1"),)),
    # the benchmark's other three self-tested exports
    Case("export-matrix --n 1 --d 15 --kind adjacency --order lex --out deck-1.mtx --self-test", wall=60,
         files=(("deck-1.mtx", "0151be94d3c80e5c552ac9730fdb0b2ce92c70d9638fab33bbe1d0a44f15a276"),)),
    Case("export-matrix --n 7 --d 5 --kind laplacian --order lex --out deck-2.mtx --self-test", wall=60,
         files=(("deck-2.mtx", "a5862614b440da6fdb2f7abebd7ecd39f154168f311077e039d3a2d0aeb353ad"),)),
    Case("export-matrix --n 3 --d 7 --kind adjacency --order hales --out deck-3.mtx --self-test", wall=60,
         files=(("deck-3.mtx", "d65cab94aa628fc80e8af5b4acbd4e6ad7ea23a8189555427a62e609a52658a2"),)),
    Case("label --n 2 --d 2 --budget 0", 1, err=USAGE),
    Case("estimate --n 1 --d 2000", 1),
    Case("rank --n 100000000 --d 2 0,0", 2, wall=20, err=ROW_REFUSAL),
    Case("unrank --n 100000000 --d 2 0", 2, wall=20, err=ROW_REFUSAL),
    Case("rank --n 20000000 --d 1 5", out="6\n"),
    # each command refuses a walk past the row budget before it sums or
    # counts a term: table at its column 45, bounds before its bracket
    Case("table --n 1000 --d 1000", 2, wall=5, err=re.escape(
        "gridband: error: coefficient row 999 for n = 45 would hold about 269466264 bits; "
        "the row budget is 268435456 bits\n")),
    Case("bounds --n 1000 --d 5000", 2, wall=5, err=re.escape(
        "gridband: error: coefficient row 4999 for n = 1000 would hold about 249900059990 bits; "
        "the row budget is 268435456 bits\n")),
    Case("bw --n 1 --d 16 --method brute --budget 10 --out cert.tsv", 2, wall=60, err="", files=(("cert.tsv", 65539),)),
    # a search stopped by its budget holds only the vertices it reached, not
    # a table of all 524 288
    Case("bw --n 1 --d 19 --method brute --budget 10 --out cert19.tsv", 2, wall=60, err="", rss_mb=100,
         files=(("cert19.tsv", 524291),)),
    # the time limit is read at every search node, and a deep search holds no
    # set per open node
    Case("bw --n 1 --d 16 --method brute --time-limit 1", 2, wall=5, err="", rss_mb=300),
    # the search keeps its open nodes in a list, not on the C stack: a dive
    # 3 000 nodes deep ends at its budget on a 1 MB stack
    Case("bw --n 1 --d 16 --method brute --budget 3000", 2, wall=60, err="", stack=STACK, lines=("nodes 3001",)),
    Case("verify-optimal --n 2 --d 3", lines=("verdict verified",)),
    # the node counts of the README's proofs, each in a fresh process
    Case("verify-optimal --n 1 --d 5", lines=("verdict verified",), last="nodes 3673"),
    Case("verify-optimal --n 5 --d 2", lines=("verdict verified",), last="nodes 74109"),
    # --no-accelerate still parses and changes nothing
    Case("verify-optimal --n 2 --d 2", out=PROOF_22),
    Case("verify-optimal --n 2 --d 2 --no-accelerate", out=PROOF_22),
    Case("", 1, err=""),
    Case("bogus", 1, err=r"usage: gridband [^\n]*\ngridband: error: argument command: invalid choice: 'bogus' [^\n]*\n"),
    # a usage error cuts an over-long option value it quotes
    Case(f"bw --n {'x' * 50000} --d 1", 1, err=USAGE),
    Case("export-matrix --help",
         lines=("  --self-test                  re-read the file and verify row sums, symmetry, half-bandwidth",)),
    # no command imports typing, which costs a command started without site
    # (python -S) about 8 ms
    Case("", python=("-S", "-c", "import gridband.cli, sys; assert 'typing' not in sys.modules")),
    # the package is pure standard library: of the top-level modules that
    # importing it and its CLI adds, only gridband is not in the stdlib
    Case("", out="['gridband']\n", python=("-S", "-c", STDLIB_ONLY)),
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: (case.argv or " ".join(case.python))[:90])
def test_case(case, tmp_path):
    try:
        run = spawn([*case.python, *case.argv.split()], tmp_path, case.wall, case.rss_mb is not None,
                    case.stack, case.env)
        out, err = run.out.decode(), run.err.decode()
        assert run.code == case.code, err[:300]
        assert len(run.err) < 300 and "Traceback" not in err and "Exceeds the limit" not in err, err[:300]
        assert re.fullmatch(case.err if run.code else "", err), err[:300]
        assert case.out is None or out == case.out, out[:300]
        assert set(case.lines) <= set(out.splitlines()), out[:300]
        assert case.last is None or out.splitlines()[-1:] == [case.last], out[:300]
        assert case.sha is None or hashlib.sha256(run.out).hexdigest() == case.sha
        for name, pin in case.files:
            data = (tmp_path / name).read_bytes()
            assert pin in (data.count(b"\n"), hashlib.sha256(data).hexdigest()), name
        assert case.rss_mb is None or run.rss_mb < case.rss_mb, f"{run.rss_mb:.0f} MB"
    finally:
        for path in tmp_path.iterdir():
            path.unlink()


def stdout(argv, cwd, wall=WALL):
    """The stdout of `python -m gridband argv`, which must exit 0 with nothing on stderr."""
    run = spawn(["-m", "gridband", *argv.split()], cwd, wall)
    assert (run.code, run.err) == (0, b""), run.err[:300]
    return run.out.decode()


@pytest.mark.parametrize("n,d", [(6, 365), (1000000, 2)])
def test_unrank_then_rank_gives_the_rank_back(tmp_path, n, d):
    rank = (n + 1) ** d // 3
    vertex = stdout(f"unrank --n {n} --d {d} {rank}", tmp_path, 30).strip()
    assert stdout(f"rank --n {n} --d {d} {vertex}", tmp_path, 30) == f"{rank + 1}\n"


def test_hales_scan_reads_the_half_bandwidth_of_the_export(tmp_path):
    # both read the Hales bandwidth by its DP, and the export's self-test
    # checks the file it writes against it
    value = stdout("bw --n 2 --d 9 --method hales-scan", tmp_path, 20).splitlines()[0]
    export = stdout("export-matrix --n 2 --d 9 --order hales --out p29.mtx --self-test", tmp_path, 60)
    (tmp_path / "p29.mtx").unlink()
    assert value.startswith("value ") and f"half_bandwidth {value[6:]}" in export.splitlines()


def test_a_capped_run_reads_the_child_alone(tmp_path):
    # the test process peaks past the cap, and the child still reads below it
    ballast = b"x" * (128 << 20)
    run = spawn(["-m", "gridband", "bw", "--n", "2", "--d", "3"], tmp_path, rss=True)
    del ballast
    assert run.code == 0 and run.rss_mb < 100, run.rss_mb
