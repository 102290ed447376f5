"""Output checks for benchmark ops, and the failure classes they report.

Run as a script it checks a batch of finished CLI ops:

    python3 bench/checks.py REQUEST.json > VERDICTS.json

REQUEST holds a list of {"op", "returncode", "out", "err"} (the deck op and
the files its stdout and stderr went to); the verdicts come back in order
as {"klass", "problem", "out_bytes", "nodes"}.

Each check reaches its answer by a route independent of the code being
timed: coefficient rows and Hales ranks are rebuilt here from scratch, and
the hypercube column comes from math.comb.  Every value is checked exactly.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

OK = "ok"
WRONG = "wrong-output"
TRACEBACK = "traceback"

def classify(returncode: int, stderr: str, problem: str | None) -> str:
    """Failure class of one op: ok, wrong-output, exit-<code> or traceback.

    An uncaught exception prints a traceback and exits 1; it is told apart
    from a clean usage error (also exit 1) by the traceback header.
    """
    if "Traceback (most recent call last)" in stderr:
        return TRACEBACK
    if returncode != 0:
        return f"exit-{returncode}"
    return OK if problem is None else WRONG


def _next_row(prev: list[int], n: int) -> list[int]:
    """The row of degree d+1 from the row of degree d: sums of n+1 neighbours."""
    out = []
    window = 0
    for k in range(len(prev) + n):
        if k < len(prev):
            window += prev[k]
        if k > n:
            window -= prev[k - n - 1]
        out.append(window)
    return out


class Reference:
    """Coefficient rows, bandwidths and Hales ranks computed apart from gridband."""

    def __init__(self) -> None:
        self._rows: dict[int, list[list[int]]] = {}
        # n -> [last row built, bandwidth for each d so far, max coefficient for each d]
        self._streams: dict[int, list] = {}

    def row(self, n: int, d: int) -> list[int]:
        """Coefficients of (1 + x + ... + x^n)^d by repeated convolution; cached."""
        rows = self._rows.setdefault(n, [[1]])
        while len(rows) <= d:
            rows.append(_next_row(rows[-1], n))
        return rows[d]

    def _stream(self, n: int, d: int) -> list:
        """Per-row summaries up to degree d, keeping only the last row.

        Rows are symmetric and unimodal, so the n largest coefficients are
        the central n and the largest is the central one.
        """
        stream = self._streams.setdefault(n, [[1], [0], [1]])
        row, bws, maxes = stream
        while len(maxes) <= d:
            start = max(0, (len(row) - n) // 2)
            bws.append(bws[-1] + sum(row[start:start + n]))
            row = _next_row(row, n)
            maxes.append(row[len(row) // 2])
        stream[0] = row
        return stream

    def bandwidth(self, n: int, d: int) -> int:
        """Sum over i < d of the n largest coefficients of row i."""
        return self._stream(n, d)[1][d]

    def max_coeff(self, n: int, d: int) -> int:
        return self._stream(n, d)[2][d]

    def hales_rank(self, u: list[int] | tuple[int, ...], n: int) -> int:
        """0-based position of u in the graded reverse-lexicographic order."""
        k = sum(u)
        rank = sum(self.row(n, len(u))[:k])
        for pos in range(len(u) - 1, 0, -1):
            b = u[pos]
            # same weight, larger coordinate at pos: weights k-h of the first pos
            # coordinates for h = b+1 .. min(k, n)
            rank += sum(self.row(n, pos)[k - min(k, n): k - b])
            k -= b
        return rank


def hypercube_bw(d: int) -> int:
    return sum(math.comb(i, i // 2) for i in range(d))


def _bw_problem(value: int, n: int, d: int, ref: Reference) -> str | None:
    expected = hypercube_bw(d) if n == 1 else ref.bandwidth(n, d)
    return None if value == expected else f"bandwidth {value}, expected {expected}"


def _max_coeff_problem(value: int, n: int, d: int, ref: Reference) -> str | None:
    expected = ref.max_coeff(n, d)
    return None if value == expected else f"max coefficient {value}, expected {expected}"


def _fields(out: str) -> dict[str, str]:
    """`key value` lines of plain output."""
    return dict(line.split(" ", 1) for line in out.splitlines() if " " in line)


def _close(a: float, b: float, rel: float = 1e-4) -> bool:
    """Equal to the 6 significant digits the plain format prints."""
    return abs(a - b) <= rel * abs(b)


def _adjacent(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    return len(u) == len(v) and sum(abs(a - b) for a, b in zip(u, v)) == 1


def _vertex(text: str) -> tuple[int, ...]:
    return tuple(int(c) for c in text.split(","))


def _lex(u: tuple[int, ...], n: int) -> int:
    r = 0
    for c in u:
        r = r * (n + 1) + c
    return r


def _check_coeffs(op, out, ref):
    n, d = op["n"], op["d"]
    values = [int(t) for t in out.split()]
    if len(values) != n * d + 1:
        return f"{len(values)} coefficients, expected {n * d + 1}"
    if sum(values) != (n + 1) ** d:
        return "coefficients do not sum to (n+1)^d"
    if values != values[::-1]:
        return "row is not symmetric"
    if values != ref.row(n, d):
        return "row differs from the reference row"
    return None


def _check_bw(op, out, ref):
    n, d = op["n"], op["d"]
    f = _fields(out)
    value = int(f["value"])
    method = op["method"]
    if method == "formula":
        return _bw_problem(value, n, d, ref)
    if method == "brute":
        if f.get("status") != "proved" or int(f["nodes"]) < 1:
            return f"search status {f.get('status')}, nodes {f.get('nodes')}"
        return _bw_problem(value, n, d, ref)
    u, v = (_vertex(t) for t in f["witness"].split())
    if not _adjacent(u, v):
        return f"witness {f['witness']} is not an edge"
    if method == "lex":
        stretch = abs(_lex(u, n) - _lex(v, n))
        if value != (n + 1) ** (d - 1):
            return f"lex bandwidth {value}, expected {(n + 1) ** (d - 1)}"
    else:
        stretch = abs(ref.hales_rank(u, n) - ref.hales_rank(v, n))
        problem = _bw_problem(value, n, d, ref)
        if problem:
            return problem
    return None if stretch == value else f"witness stretch {stretch} != value {value}"


def _check_bounds(op, out, ref):
    n, d = op["n"], op["d"]
    f = _fields(out)
    lower, value, upper = int(f["lower"]), int(f["bandwidth"]), int(f["upper"])
    if not lower <= value <= upper:
        return f"bounds {lower} <= {value} <= {upper} do not bracket"
    return (
        _bw_problem(value, n, d, ref)
        or _max_coeff_problem(lower, n, d, ref)
        or _max_coeff_problem(upper, n, d + 1, ref)
    )


def _check_table(op, out, ref):
    n_max, d_max = op["n"], op["d"]
    lines = out.splitlines()
    if lines[0].split("\t") != ["d"] + [f"n={n}" for n in range(1, n_max + 1)]:
        return "bad table header"
    if len(lines) != d_max + 2 or not lines[-1].startswith("note: "):
        return f"{len(lines)} table lines, expected {d_max + 2}"
    for d, line in enumerate(lines[1:-1], start=1):
        cells = [int(t) for t in line.split("\t")]
        if cells[0] != d or len(cells) != n_max + 1:
            return f"bad table row {d}"
        for n, value in enumerate(cells[1:], start=1):
            problem = _bw_problem(value, n, d, ref)
            if problem:
                return f"table ({n}, {d}): {problem}"
    return None


def _check_ratio(op, out, ref):
    n, d_max = op["n"], op["d"]
    lines = out.splitlines()
    if len(lines) != d_max:
        return f"{len(lines)} ratio rows, expected {d_max}"
    for d, line in enumerate(lines, start=1):
        dd, h, lex, r = line.split("\t")
        if int(dd) != d or int(lex) != (n + 1) ** (d - 1):
            return f"bad ratio row {d}"
        problem = _bw_problem(int(h), n, d, ref)
        if problem:
            return f"ratio row {d}: {problem}"
        if not _close(float(r), int(h) / int(lex)):
            return f"ratio row {d}: {r} != {h}/{lex}"
    return None


def _check_estimate(op, out, ref):
    n, d = op["n"], op["d"]
    f = _fields(out)
    est, exact, ratio = float(f["estimate"]), int(f["exact"]), float(f["ratio"])
    own = math.exp(
        (d + 1) * math.log(n + 1) + 0.5 * math.log(6 / (math.pi * (d + 1) * (n * n + 2 * n)))
    )
    if not _close(est, own):
        return f"estimate {est}, expected {own}"
    if not _close(ratio, est / exact):
        return f"ratio {ratio} != {est}/{exact}"
    return _max_coeff_problem(exact, n, d + 1, ref)


def _check_rank(op, out, ref):
    label = int(out)
    expected = ref.hales_rank(op["vertex"], op["n"]) + 1
    return None if label == expected else f"label {label}, expected {expected}"


def _check_unrank(op, out, ref):
    n, d = op["n"], op["d"]
    v = _vertex(out.strip())
    if len(v) != d or any(c < 0 or c > n for c in v):
        return f"vertex {out.strip()[:40]} not in the grid"
    r = ref.hales_rank(v, n)
    return None if r == op["rank"] else f"rank of the vertex is {r}, not {op['rank']}"


def _check_verify(op, out, ref):
    f = _fields(out)
    if f.get("verdict") != "verified" or f.get("status") != "proved":
        return f"verdict {f.get('verdict')}, status {f.get('status')}"
    expected = ref.bandwidth(op["n"], op["d"])
    if int(f["formula"]) != expected or int(f["brute_force"]) != expected:
        return f"formula {f['formula']}, search {f['brute_force']}, expected {expected}"
    return None if int(f["nodes"]) >= 1 else "no search nodes"


def _check_export(op, out, ref, root: Path):
    n, d = op["n"], op["d"]
    f = _fields(out)
    size = (n + 1) ** d
    edges = d * n * (n + 1) ** (d - 1)
    nnz = edges + (size if op["kind"] == "laplacian" else 0)
    if op["order"] == "lex":
        half = (n + 1) ** (d - 1)
    else:
        half = hypercube_bw(d) if n == 1 else ref.bandwidth(n, d)
    expected = {"size": size, "nnz": nnz, "half_bandwidth": half}
    got = {key: int(f[key]) for key in expected}
    if got != expected:
        return f"export reports {got}, expected {expected}"
    data = (root / op["path"]).read_bytes()
    head = data.split(b"\n", 2)[:2]
    if head != [b"%%MatrixMarket matrix coordinate integer symmetric", b"%d %d %d" % (size, size, nnz)]:
        return f"bad MatrixMarket header {head!r}"
    entries = data.count(b"\n") - 2
    if entries != nnz:
        return f"{entries} MatrixMarket entries, expected {nnz}"
    return None


def _check_label(op, out, ref):
    n, d = op["n"], op["d"]
    lines = out.splitlines()
    if len(lines) != (n + 1) ** d:
        return f"{len(lines)} labels, expected {(n + 1) ** d}"
    prev = None
    for i, line in enumerate(lines, start=1):
        text, label = line.split("\t")
        u = _vertex(text)
        if int(label) != i or len(u) != d or min(u) < 0 or max(u) > n:
            return f"bad label line {i}: {line[:60]}"
        # strictly increasing keys over (n+1)^d in-grid lines make a bijection
        key = (sum(u), tuple(-c for c in reversed(u))) if op["order"] == "hales" else u
        if prev is not None and key <= prev:
            return f"label {i} out of {op['order']} order"
        prev = key
    return None


_CHECKS = {
    "coeffs": _check_coeffs,
    "bw": _check_bw,
    "bounds": _check_bounds,
    "table": _check_table,
    "ratio": _check_ratio,
    "estimate": _check_estimate,
    "rank": _check_rank,
    "unrank": _check_unrank,
    "verify-optimal": _check_verify,
    "label": _check_label,
}


def check(op: dict, out: str, ref: Reference, root: Path) -> str | None:
    """None when the op's output is right, else what is wrong with it."""
    try:
        if op["cmd"] == "export-matrix":
            return _check_export(op, out, ref, root)
        return _CHECKS[op["cmd"]](op, out, ref)
    except Exception as exc:  # output a check cannot digest is wrong output
        return f"unparseable output: {exc!r}"


def verdict(item: dict, ref: Reference, root: Path) -> dict:
    op = item["op"]
    data = Path(item["out"]).read_bytes()
    out = data.decode("utf-8", errors="replace")
    err = Path(item["err"]).read_text(encoding="utf-8", errors="replace")
    problem = check(op, out, ref, root) if item["returncode"] == 0 else err.strip()[-300:]
    klass = classify(item["returncode"], err, problem if item["returncode"] == 0 else None)
    nodes = None
    if klass == OK and op["cmd"] in ("verify-optimal", "bw") and "\nnodes " in out:
        nodes = int(out.split("\nnodes ", 1)[1].split()[0])
    return {"klass": klass, "problem": problem, "out_bytes": len(data), "nodes": nodes}


if __name__ == "__main__":
    ref = Reference()
    root = Path.cwd()
    with open(sys.argv[1], encoding="utf-8") as handle:
        items = json.load(handle)
    json.dump([verdict(item, ref, root) for item in items], sys.stdout)
