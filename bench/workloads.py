"""Seeded operation lists ("decks") for the benchmark workloads.

A deck is a list of JSON-ready dicts.  An op carries the `gridband` argv
plus the fields its output check needs.  The same seed gives a
byte-identical deck.

Each workload has fixed design points spread over its parameter ranges.
The seed moves every point by up to JITTER of itself, picks the vertices
and ranks queried, and shuffles the order.  The design points stay fixed,
so every seed's deck costs about the same.
"""

from __future__ import annotations

import random

# Cold rows of degree >= 495 overflow the recursion limit of the row
# builder at the seed commit (exit 3); closed-form stays below this.
ROW_DEPTH_CLIFF = 495
SMALL_D_MAX = 450
JITTER = 0.02


def _jitter(rng: random.Random, x: int, lo: int, hi: int) -> int:
    """x moved by up to JITTER of itself, kept inside [lo, hi]."""
    step = round(x * JITTER)
    return min(hi, max(lo, x + rng.randint(-step, step)))


def _points(rng: random.Random, k: int, n_lo: int, n_hi: int, d_lo: int,
            d_hi: int) -> list[tuple[int, int]]:
    """k (n, d) design points over a rectangle, jittered by the seed.

    Point i takes the i-th of k evenly spaced n and the centre of d-bin
    perm[i]; the fixed perm (even bins, then odd) spreads the points over
    the whole rectangle.
    """
    perm = [*range(0, k, 2), *range(1, k, 2)]
    points = []
    for i in range(k):
        n = n_lo + round(i * (n_hi - n_lo) / max(k - 1, 1))
        d = d_lo + round((perm[i] + 0.5) * (d_hi - d_lo) / k)
        points.append((_jitter(rng, n, n_lo, n_hi), _jitter(rng, d, d_lo, d_hi)))
    return points


def _op(cmd: str, n: int, d: int, *extra: str, **fields) -> dict:
    argv = [cmd, "--n", str(n), "--d", str(d), *extra]
    return {"cmd": cmd, "n": n, "d": d, "argv": argv, **fields}


def _estimate_d_max(n: int) -> int:
    """Largest d whose (n+1)^(d+1) still converts to a float."""
    d = 1
    while (n + 1) ** (d + 2) < 2**1024:
        d += 1
    return d


def _rank_op(rng: random.Random, n: int, d: int) -> dict:
    u = [rng.randint(0, n) for _ in range(d)]
    text = ",".join(map(str, u))
    return _op("rank", n, d, text, vertex=u)


def _unrank_op(rng: random.Random, n: int, d: int) -> dict:
    r = rng.randrange((n + 1) ** d)
    return _op("unrank", n, d, str(r), rank=r)


def _small_ops(rng: random.Random, d_lo: int, d_hi: int) -> list[dict]:
    """n <= 6 with d in the hundreds: the row-building commands."""
    ops = []
    for n, d in _points(rng, 8, 1, 6, d_lo, d_hi):
        ops.append(_op("bw", n, d, "--method", "formula", method="formula"))
    for cmd in ("bounds", "coeffs"):
        for n, d in _points(rng, 5, 1, 6, d_lo, d_hi):
            ops.append(_op(cmd, n, d))
    for n, d in _points(rng, 5, 1, 6, d_lo, d_hi):
        ops.append(_rank_op(rng, n, d))
    for n, d in _points(rng, 5, 1, 6, d_lo, d_hi):
        ops.append(_unrank_op(rng, n, d))
    for n, d in _points(rng, 4, 1, 6, 100, 300):
        ops.append(_op("ratio", n, d))
    for n, frac in ((1, 0.125), (3, 0.625), (4, 0.375), (6, 0.875)):
        hi = min(d_hi, _estimate_d_max(n))
        ops.append(_op("estimate", n, _jitter(rng, round(100 + frac * (hi - 100)), 100, hi)))
    for n, d in _points(rng, 4, 6, 12, 40, 120):
        ops.append(_op("table", n, d))
    return ops


def closed_form(seed: int) -> list[dict]:
    """Closed-form commands, each a fresh process paying for cold rows."""
    rng = random.Random(seed)
    ops = _small_ops(rng, 150, SMALL_D_MAX)
    # n up to about 1000 with d <= 60; the anchor is the budget-sized case
    ops.append(_op("bw", 1000, 60, "--method", "formula", method="formula"))
    for cmd, k, d_lo, d_hi in (
        ("bw", 5, 20, 59),
        ("bounds", 3, 20, 50),
        ("estimate", 3, 20, 50),
        ("ratio", 2, 10, 30),
        ("coeffs", 1, 10, 20),
    ):
        for n, d in _points(rng, k, 500, 1000, d_lo, d_hi):
            if cmd == "bw":
                ops.append(_op(cmd, n, d, "--method", "formula", method="formula"))
            else:
                ops.append(_op(cmd, n, d))
    rng.shuffle(ops)
    return ops


def cliffs(seed: int) -> list[dict]:
    """Closed-form commands on both sides of the known failure cliffs.

    Not a driver workload: at the seed commit the ops past the cliffs fail,
    so error_rate equals the share of ops that `expected_failure` flags.
    Degrees within a few steps of a cliff are not drawn, because the exact
    edge moves with the interpreter's stack use.
    """
    rng = random.Random(seed)
    ops = []
    for cmd in ("coeffs", "bounds", "rank", "unrank"):
        for n, d in _points(rng, 2, 1, 6, 300, 470) + _points(rng, 2, 1, 6, 520, 700):
            if cmd == "rank":
                ops.append(_rank_op(rng, n, d))
            elif cmd == "unrank":
                ops.append(_unrank_op(rng, n, d))
            else:
                ops.append(_op(cmd, n, d))
    for lo, hi in ((200, 470), (520, 1000), (1030, 1800)):
        ops.append(_op("estimate", 1, _jitter(rng, (lo + hi) // 2, lo, hi)))
    rng.shuffle(ops)
    return ops


def expected_failure(op: dict) -> str | None:
    """The failure class of an op past a cliff known at the seed commit.

    Cold rows of degree >= ROW_DEPTH_CLIFF exhaust the recursion limit,
    which the CLI reports as exit 3.  `estimate` first turns (n+1)^(d+1)
    into a float, which raises OverflowError past 2^1024 (a traceback).
    """
    n, d = op["n"], op["d"]
    if op["cmd"] == "estimate":
        if (n + 1) ** (d + 1) >= 2**1024:
            return "traceback"
        d += 1
    if op["cmd"] in ("coeffs", "bounds", "rank", "unrank", "estimate"):
        return "exit-3" if d >= ROW_DEPTH_CLIFF else None
    return None


# Groups of grids with equal vertex counts at 2^14, 2^15 and 2^16, plus two
# grids just above 2^14, because the witness tie-break cost depends on n at
# equal size.  Grids between 2^15 and 2^16 are left out to keep a deck near
# 20 s.
SCAN_GRIDS = ((1, 14), (3, 7), (127, 2), (2, 9), (26, 3), (1, 15), (7, 5), (31, 3),
              (1, 16), (3, 8), (15, 4), (255, 2))
LARGE_SCAN = (3, 9)  # 2^18 vertices; hales-scan only, its lex witness alone takes seconds
EXPORT_GRIDS = ((3, 7), (7, 5), (1, 15))
LABEL_GRIDS = ((1, 14), (127, 2), (1, 15), (31, 3), (1, 16), (3, 8))


def scan(seed: int) -> list[dict]:
    """Edge scans, label listings and matrix exports on 2^14..2^18 vertices.

    The seed only orders the ops.  Which kind and order goes with which grid
    is fixed, because single ops here differ in cost by up to a half between
    orders, and a seeded choice would move the tail percentile from seed to
    seed.
    """
    rng = random.Random(seed)
    ops = [_op("bw", n, d, "--method", method, method=method)
           for method in ("hales-scan", "lex") for n, d in SCAN_GRIDS]
    ops.append(_op("bw", *LARGE_SCAN, "--method", "hales-scan", method="hales-scan"))
    # anchor: the largest export, which sets the workload's memory peak
    exports = [("laplacian", "hales", (1, 16))]
    combos = [("adjacency", "hales"), ("laplacian", "lex"), ("adjacency", "lex")]
    exports += [(kind, order, grid) for (kind, order), grid in zip(combos, EXPORT_GRIDS)]
    for i, (kind, order, (n, d)) in enumerate(exports):
        path = f".benchrun/tmp/export-{i}.mtx"
        ops.append(
            _op("export-matrix", n, d, "--kind", kind, "--order", order,
                "--out", path, "--self-test", kind=kind, order=order, path=path)
        )
    # label grids come in pairs of equal size; each pair lists both orders
    for i, (n, d) in enumerate(LABEL_GRIDS):
        order = ("hales", "lex")[i % 2]
        ops.append(_op("label", n, d, "--order", order, order=order))
    rng.shuffle(ops)
    return ops


SEARCH_GRIDS = ((1, 3), (2, 2), (3, 2), (4, 2), (1, 4))


def search(seed: int) -> list[dict]:
    """Exhaustive search on every small grid, both commands, both bounds."""
    rng = random.Random(seed)
    ops = []
    for n, d in SEARCH_GRIDS:
        for accelerate in (True, False):
            flag = () if accelerate else ("--no-accelerate",)
            ops.append(_op("verify-optimal", n, d, *flag, accelerate=accelerate))
            ops.append(_op("bw", n, d, "--method", "brute", *flag,
                           method="brute", accelerate=accelerate))
    rng.shuffle(ops)
    return ops


# Op seconds of one deck on the nominal host (see run.CAL_NOMINAL_S), from
# which a run's deck count follows.
DECK_SECONDS = {
    "closed-form": 23.0,
    "scan": 22.0,
    "search": 29.0,
    "cliffs": 6.0,
}

DECKS = {
    "closed-form": closed_form,
    "scan": scan,
    "search": search,
    "cliffs": cliffs,
}
