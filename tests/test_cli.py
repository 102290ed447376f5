"""Command-line surface: rendering, determinism, exit codes, file export."""

import csv
import gc
import hashlib
import io
import itertools
import json
import re
import sys
import time
import tracemalloc
from collections import Counter

import pytest

import gridband.cli as cli
import gridband.coeffs as coeffs
import gridband.grid as grid
import gridband.hales as hales
from gridband.cli import main
from gridband.bandwidth import BoundsPair
from gridband.coeffs import trinomial_coeff
from gridband.grid import InternalInvariantError, format_vertex

from conftest import edges, limit_lifted
from test_process import spawn


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_on_deep_cold_rows(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "2", "--d", "600")
    assert code == 0
    values = [int(tok) for tok in out.split()]
    assert len(values) == 1201
    assert sum(values) == 3**600
    assert values[600] == trinomial_coeff(600, 600)


def test_coeffs_csv(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "2", "--d", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "coefficient"]
    assert rows[1:] == [["0", "1"], ["1", "2"], ["2", "3"], ["3", "2"], ["4", "1"]]


def test_bw_lex_scan(capsys):
    code, out, _ = run(capsys, "bw", "--n", "2", "--d", "3", "--method", "lex")
    assert code == 0
    assert "value 9" in out.splitlines()[0]


def test_bw_brute_budget_exhausted_exits_2(capsys):
    code, out, _ = run(
        capsys, "bw", "--n", "2", "--d", "2", "--method", "brute", "--budget", "5",
    )
    assert code == 2
    assert "status budget-exhausted" in out


def test_bounds_output(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "2", "--d", "3")
    assert code == 0
    assert out.splitlines() == ["lower 7", "bandwidth 8", "upper 19"]


def test_ratio_csv(capsys):
    code, out, _ = run(capsys, "ratio", "--n", "2", "--d", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["d", "bw_hales", "bw_lex", "ratio"]
    assert rows[3] == ["3", "8", "9", "0.888889"]


def test_estimate_plain(capsys):
    code, out, _ = run(capsys, "estimate", "--n", "2", "--d", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "estimate 7.61656"
    assert lines[1] == "exact 7"


def test_verify_optimal_inconclusive_exit(capsys):
    code, out, _ = run(
        capsys, "verify-optimal", "--n", "2", "--d", "2", "--budget", "5",
    )
    assert code == 2
    assert "inconclusive" in out


def test_bw_brute_writes_certificate(capsys, tmp_path):
    # --no-accelerate still parses and changes neither stdout nor the file
    runs = []
    for flags in ((), ("--no-accelerate",)):
        path = tmp_path / "cert.tsv"
        code, out, _ = run(
            capsys, "bw", "--n", "1", "--d", "2", "--method", "brute",
            *flags, "--out", str(path),
        )
        assert code == 0
        runs.append((out, path.read_bytes()))
    assert runs[0] == runs[1]
    out, cert = runs[0]
    assert out.splitlines()[0] == "value 2"
    assert cert.startswith(b"# bandwidth 2\n")


def test_search_vertex_cap_exits_2(capsys):
    # refused before the vertex list is built, as the fallback scan would be too
    for args in (("bw", "--method", "brute"), ("verify-optimal",)):
        code, out, err = run(capsys, *args, "--n", "1", "--d", "20")
        assert code == 2 and out == ""
        assert "1048576 vertices" in err and "budget" in err
    code, out, _ = run(
        capsys, "bw", "--n", "1", "--d", "16", "--method", "brute", "--budget", "10",
    )
    assert code == 2
    assert "status budget-exhausted" in out


def test_bw_internal_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "bw_hales", lambda n, d: 999)
    code, _, err = run(capsys, "bw", "--n", "2", "--d", "2", "--method", "hales-scan")
    assert code == 3
    assert "internal error" in err


def test_verify_optimal_mismatch_exits_3(capsys, monkeypatch):
    # a completed search that disagrees with the formula; the search starts
    # from the Hales labeling's scanned value and never reads the wrong 999
    monkeypatch.setattr(cli, "bw_hales", lambda n, d: 999)
    code, out, _ = run(capsys, "verify-optimal", "--n", "2", "--d", "2")
    assert code == 3
    assert out.startswith("verdict mismatch\nformula 999\nbrute_force 3\nstatus proved\n")


def test_invariant_failures_exit_3(capsys, monkeypatch):
    # weight classes too small to hold the rank leave unrank without a vertex
    monkeypatch.setattr(
        coeffs, "_step_down", lambda below, n, m: [0] * (n * (m - 1) // 2 + 2)
    )
    code, _, err = run(capsys, "unrank", "--n", "2", "--d", "2", "4")
    assert code == 3
    assert "internal error" in err


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (4, 1), (1, 10)])
def test_label_listing_matches_enumeration(capsys, n, d):
    orders = {
        "hales": hales.hales_enumerate(n, d),
        "lex": itertools.product(range(n + 1), repeat=d),
    }
    for order, vertices in orders.items():
        pairs = [(format_vertex(u), label) for label, u in enumerate(vertices, start=1)]
        expected_csv = io.StringIO()
        writer = csv.writer(expected_csv, lineterminator="\n")
        writer.writerows([("vertex", "label"), *pairs])
        expected = {
            "plain": "".join(f"{text}\t{label}\n" for text, label in pairs),
            "json": json.dumps(
                {"d": d, "labels": pairs, "n": n, "order": order}, sort_keys=True
            ) + "\n",
            "csv": expected_csv.getvalue(),
        }
        for fmt, text in expected.items():
            code, out, _ = run(capsys, "label", "--n", str(n), "--d", str(d),
                               "--order", order, "--format", fmt)
            assert code == 0
            # compared as lists of lines, which pytest explains at once when
            # they differ, where a diff of two long texts takes minutes
            assert out.splitlines(True) == text.splitlines(True), (order, fmt)


class CountingStdout(io.StringIO):
    """A stdout that counts its write calls."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_listing_goes_out_in_blocks(monkeypatch, fmt):
    # P_1^12 lists 4 096 lines; any block size gives the same bytes, so a
    # block boundary neither drops nor repeats a line
    n, d = 1, 12
    pairs = [(format_vertex(u), label)
             for label, u in enumerate(hales.hales_enumerate(n, d), start=1)]
    if fmt == "plain":
        lines = [f"{text}\t{label}\n" for text, label in pairs]
    else:
        lines = []
        for row in [("vertex", "label"), *pairs]:
            line = io.StringIO()
            csv.writer(line, lineterminator="\n").writerow(row)
            lines.append(line.getvalue())
    for block_lines in (cli.BLOCK_LINES, 1, 2, 3):
        monkeypatch.setattr(cli, "BLOCK_LINES", block_lines)  # csv
        monkeypatch.setattr(grid, "BLOCK_LINES", block_lines)  # plain
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["label", "--n", str(n), "--d", str(d), "--format", fmt]) == 0
        assert stdout.getvalue().splitlines(True) == lines, block_lines
        assert stdout.writes <= -(-len(lines) // block_lines) + 2, block_lines


@pytest.mark.parametrize("command", [["label"], ["export-matrix", "--out", "m.mtx"]])
def test_default_budget_is_the_scan_budget(capsys, tmp_path, monkeypatch, command):
    # 317^2 = 100 489 vertices fit the default budget of 10^6; 2^20 do not
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, *command, "--n", "316", "--d", "2")
    assert code == 0
    code, _, err = run(capsys, *command, "--n", "1", "--d", "20")
    assert code == 2
    assert "(1000000 vertices)" in err


@pytest.mark.parametrize("side,pair", [("lower", (9, 19)), ("upper", (7, 7))])
def test_bounds_out_of_order_exits_3(capsys, monkeypatch, side, pair):
    # max_coeff(n,d) <= bw <= max_coeff(n,d+1) is the paper's bracket; a
    # bracket that misses the bandwidth is two routes that disagree
    monkeypatch.setattr(cli, "bounds", lambda n, d: BoundsPair(*pair))
    code, out, err = run(capsys, "bounds", "--n", "2", "--d", "3")
    assert (code, out) == (3, "")
    assert err == (f"gridband: internal error: bandwidth 8 outside the bracket "
                   f"[{pair[0]}, {pair[1]}] of central coefficients\n"), side


def _unreached(*args):
    raise AssertionError("a term was computed before the refusal")


@pytest.mark.parametrize("argv", ["table --n 1000 --d 1000", "bounds --n 1000 --d 5000"])
def test_refused_before_any_term(capsys, monkeypatch, argv):
    # table starts every column's walk, and bounds the bandwidth's, before
    # it sums or counts a term; a walk past the row budget is refused when
    # it starts (column 45 of the table), so no term is reached
    monkeypatch.setattr(coeffs, "_top_window", _unreached)
    monkeypatch.setattr(coeffs, "_count_below", _unreached)
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert re.fullmatch(r"gridband: error: coefficient row \d+ for n = \d+ would hold about \d+ bits; "
                        r"the row budget is 268435456 bits\n", err), err


def test_outputs_are_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "table", "--n", "8", "--d", "11", "--format", "csv")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


# The child runs one command, then prints which of these modules the run
# imported: dataclasses (which brings inspect), json and csv each cost a
# fresh process time, and only the format that prints with json or csv needs it.
STARTUP_CHILD = """
import sys
before = set(sys.modules)
from gridband.cli import main
main(sys.argv[1:])
new = set(sys.modules) - before
print(" ".join(sorted(new & {"dataclasses", "inspect", "json", "csv"})))
"""


@pytest.mark.parametrize("fmt,imported", [("plain", ""), ("json", "json"), ("csv", "csv")])
def test_startup_imports_only_what_the_format_needs(fmt, imported, tmp_path):
    child = spawn(["-c", STARTUP_CHILD, "bw", "--n", "2", "--d", "3", "--format", fmt], tmp_path)
    assert child.code == 0, child.err
    assert child.out.decode().splitlines()[-1] == imported


def test_commands_do_not_import_argparse(tmp_path):
    # argparse, with the gettext it pulls in, cost a fresh process about
    # 5 ms before any work
    child = spawn(["-X", "importtime", "-m", "gridband", "verify-optimal", "--n", "2", "--d", "2"],
                  tmp_path)
    assert child.code == 0, child.err
    imported = {line.rsplit("|", 1)[-1].strip() for line in child.err.decode().splitlines()}
    assert not imported & {"argparse", "gettext"}


def test_export_laplacian_self_test(capsys, tmp_path):
    path = tmp_path / "lap.mtx"
    code, out, _ = run(
        capsys, "export-matrix", "--n", "2", "--d", "2", "--kind", "laplacian",
        "--out", str(path), "--self-test", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["half_bandwidth"] == 3
    assert doc["nnz"] == 9 + 12


def test_export_lex_laplacian(capsys, tmp_path):
    path = tmp_path / "lex.mtx"
    code, out, _ = run(
        capsys, "export-matrix", "--n", "2", "--d", "2", "--order", "lex",
        "--kind", "laplacian", "--out", str(path), "--self-test", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["half_bandwidth"] == 3


def test_self_test_catches_a_faulty_hales_label_array(capsys, tmp_path, monkeypatch):
    # the export's half-bandwidth is read apart from the labels it writes, so
    # a Hales label array that is really lex (bandwidth 9 at (2,3), not 8)
    # fails the self-test; a lex export builds no Hales array, and passes
    monkeypatch.setattr(grid, "_hales_labels", lambda n, d: grid.label_array("lex", n, d))
    export = ["export-matrix", "--n", "2", "--d", "3", "--self-test"]
    path = tmp_path / "p23.mtx"
    code, out, err = run(capsys, *export, "--order", "hales", "--out", str(path))
    assert (code, out) == (3, "")
    assert err == f"gridband: internal error: {path}: half-bandwidth 9, labeling bandwidth 8\n"
    code, out, _ = run(capsys, *export, "--order", "lex", "--out", str(path))
    assert code == 0 and "half_bandwidth 9\n" in out


MM_HEADER = "%%MatrixMarket matrix coordinate integer symmetric\n"


def _reference_export(n, d, kind, order):
    """An export's file text and half-bandwidth, from edges() and a tuple sort."""
    vertices = (
        hales.hales_enumerate(n, d)
        if order == "hales"
        else itertools.product(range(n + 1), repeat=d)
    )
    label = {u: i for i, u in enumerate(vertices, start=1)}
    value = -1 if kind == "laplacian" else 1
    entries = []
    degree = Counter()
    for u, v in edges(n, d):
        low, high = sorted((label[u], label[v]))
        entries.append((high, low, value))
        degree.update((low, high))
    half_bandwidth = max(high - low for high, low, _ in entries)
    if kind == "laplacian":
        entries += [(x, x, k) for x, k in degree.items()]
    entries.sort()
    size = len(label)
    lines = [f"{size} {size} {len(entries)}\n"]
    lines += [f"{i} {j} {v}\n" for i, j, v in entries]
    return MM_HEADER + "".join(lines), half_bandwidth


# labels pass typecode B at (1,8), with 256 vertices, and columns at (16,2);
# d = 1 has no trailing half in the neighbour tables, and (2,4) has an even d
@pytest.mark.parametrize(
    "n,d", [(2, 3), (1, 5), (3, 2), (1, 8), (16, 2), (1, 1), (5, 1), (2, 4)]
)
def test_export_matches_reference(capsys, tmp_path, n, d):
    _export_matches_reference(capsys, tmp_path, n, d)


def test_export_matches_reference_in_short_runs(capsys, tmp_path, monkeypatch):
    # runs cut to 4 positions: at (16,2) the Hales label array is built in
    # chunks of 4, and 67 lex runs tie the value so far, so a lex export's
    # half-bandwidth is read where the edge scan takes its least hit from
    # tied runs
    monkeypatch.setattr(grid, "RUN_CAP", 4)
    _export_matches_reference(capsys, tmp_path, 16, 2)


def _export_matches_reference(capsys, tmp_path, n, d):
    for kind, order in itertools.product(["adjacency", "laplacian"], ["hales", "lex"]):
        path = tmp_path / f"{kind}-{order}.mtx"
        code, out, _ = run(
            capsys, "export-matrix", "--n", str(n), "--d", str(d), "--kind", kind,
            "--order", order, "--out", str(path), "--self-test", "--format", "json",
        )
        assert code == 0
        text, half_bandwidth = _reference_export(n, d, kind, order)
        assert path.read_text(encoding="utf-8") == text, (kind, order)
        doc = json.loads(out)
        assert doc["nnz"] == text.count("\n") - 2
        assert doc["half_bandwidth"] == half_bandwidth


def test_export_peak_memory(capsys, tmp_path):
    # a sorted list of (row, col, value) tuples took the (1,11) Laplacian
    # export's traced peak to 1.06 MiB; with its self-test, each kind and
    # order must stay under a quarter of that.  A first, untraced export
    # pays the one-time costs of any export.
    run(capsys, "export-matrix", "--n", "1", "--d", "3", "--out", str(tmp_path / "a.mtx"),
        "--self-test")
    for kind, order in itertools.product(["adjacency", "laplacian"], ["hales", "lex"]):
        tracemalloc.start()
        try:
            code, _, _ = run(
                capsys, "export-matrix", "--n", "1", "--d", "11", "--kind", kind,
                "--order", order, "--out", str(tmp_path / "b.mtx"), "--self-test",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < (1 << 20) // 4, (kind, order, peak)


@pytest.mark.parametrize(
    "kind,body,error,message",
    [
        ("laplacian", "2 2 4\n1 1 1\n2 1 -1\n2 1 -1\n2 2 1\n",
         InternalInvariantError, "duplicate"),
        ("laplacian", "2 2 3\n1 1 1\n1 2 -1\n2 2 1\n",
         InternalInvariantError, "above the diagonal"),
        ("laplacian", "2 2 4\n1 1 1\n2 1 -1\n2 2 1\n", ValueError, "header says"),
        ("laplacian", "2 2 3\n1 1 1\n2 1 -1\n2 2 2\n", InternalInvariantError, "row sums"),
        ("laplacian", "2 2 3\n2 1 -1\n1 1 1\n2 2 1\n",
         InternalInvariantError, "out-of-order"),
        ("adjacency", "2 2 1\n1 0 1\n", InternalInvariantError, r"\(1,0\) outside 1\.\.2"),
        ("laplacian", "2 2 4\n1 1 1\n2 1 -1\n2 2 1\n3 2 -1\n",
         InternalInvariantError, r"\(3,2\) outside 1\.\.2"),
        ("laplacian", "2 2 3\n1 1 1\n2 1\n2 2 1\n", ValueError, r"bad\.mtx:4: expected three"),
        ("laplacian", "2 2 3\n1 1 1\n2 1 -1 0\n2 2 1\n", ValueError, r"bad\.mtx:4: expected three"),
        ("laplacian", "2 2 3\n1 1 1\n2 1 -1\n2 2 1.5\n", ValueError, r"bad\.mtx:5: expected three"),
        ("laplacian", "2 2\n1 1 1\n2 1 -1\n2 2 1\n", ValueError, r"bad\.mtx:2: expected 'rows"),
        ("laplacian", "", ValueError, r"bad\.mtx:2: expected 'rows.*got ''"),
        ("laplacian", "2 2 x\n1 1 1\n2 1 -1\n2 2 1\n", ValueError, r"bad\.mtx:2: expected 'rows"),
        ("laplacian", "%%MatrixMarket matrix array integer general\n2 2\n1\n-1\n-1\n1\n",
         ValueError, "not a coordinate MatrixMarket file"),
        ("laplacian", "2 3 3\n1 1 1\n2 1 -1\n2 2 1\n", ValueError, "expected a square matrix"),
        ("adjacency", "2 2 0\n", InternalInvariantError,
         "half-bandwidth 0, labeling bandwidth 1"),
        # a row's text is read once, but the row it names is what counts
        ("laplacian", "2 2 4\n1 1 1\n2 1 -1\n02 1 -1\n2 2 2\n",
         InternalInvariantError, r"duplicate entry \(2,1\)"),
        ("laplacian", "2 2 3\n1 1 1\n02 1 -1\n1 1 1\n",
         InternalInvariantError, r"out-of-order entry \(1,1\)"),
        # the file is read as bytes, and int() of bytes takes ASCII digits only
        ("laplacian", "2 2 3\n1 1 1\n\u0662 1 -1\n2 2 1\n",
         ValueError, r"bad\.mtx:4: expected three integers 'row col value', got '\u0662 1 -1'"),
        # the banner must be the one the export writes, and each value the
        # export's: 1 in an adjacency, -1 off a Laplacian's diagonal
        ("laplacian", "%%MatrixMarket matrix coordinate real general\n2 2 3\n"
         "1 1 1\n2 1 -1\n2 2 1\n", ValueError, "not a coordinate MatrixMarket file"),
        ("laplacian", "%%MatrixMarket matrix coordinate pattern skew-symmetric\n2 2 3\n"
         "1 1 1\n2 1 -1\n2 2 1\n", ValueError, "got '%%MatrixMarket matrix coordinate pat"),
        ("laplacian", "%%MatrixMarket matrix coordinate integer symmetriC\n2 2 3\n"
         "1 1 1\n2 1 -1\n2 2 1\n", ValueError, "with the banner"),
        ("adjacency", "2 2 1\n2 1 7\n", InternalInvariantError,
         r"bad\.mtx:3: off-diagonal value 7, not 1"),
        ("laplacian", "2 2 3\n1 1 2\n2 1 -2\n2 2 2\n", InternalInvariantError,
         r"bad\.mtx:4: off-diagonal value -2, not -1"),
        # a 4-vertex file whose rows sum to 0, where (2,1) repeats the text of
        # the diagonal before it
        ("laplacian", "4 4 7\n1 1 1\n2 1 1\n2 2 -1\n3 1 -1\n3 3 1\n4 1 -1\n4 4 1\n",
         InternalInvariantError, r"bad\.mtx:4: off-diagonal value 1, not -1"),
        # the writer puts no adjacency entry on the diagonal, whose value 1
        # would pass the value check
        ("adjacency", "2 2 2\n1 1 1\n2 1 1\n", InternalInvariantError,
         r"bad\.mtx: adjacency diagonal entry \(1,1\)$"),
        # a value is the off-diagonal one by its text, not by what int reads
        ("adjacency", "2 2 1\n2 1 01\n", InternalInvariantError,
         r"bad\.mtx:3: off-diagonal value 01, not 1"),
        # a row that goes back is refused where it starts, even when its
        # column would follow the previous one
        ("adjacency", "4 4 2\n4 1 1\n3 2 1\n", InternalInvariantError,
         r"out-of-order entry \(3,2\)"),
        # the writer writes no blank line and no comment line
        ("laplacian", "2 2 3\n1 1 1\n\n2 1 -1\n2 2 1\n",
         ValueError, r"bad\.mtx:4: expected three integers 'row col value', got ''$"),
        ("laplacian", "% a comment line\n2 2 3\n1 1 1\n2 1 -1\n2 2 1\n",
         ValueError, r"bad\.mtx:2: expected 'rows cols entries', got '% a comment line'$"),
    ],
    ids=["duplicate", "above-diagonal", "wrong-nnz", "row-sum", "out-of-order",
         "zero-based-column", "row-past-size", "two-fields", "four-fields",
         "fractional-value", "two-field-size", "no-size-line", "bad-size-token",
         "not-coordinate", "not-square", "half-bandwidth", "duplicate-row-text",
         "row-back-to-1", "non-ascii-digit", "real-general", "pattern-skew-symmetric",
         "banner-case", "adjacency-value", "laplacian-scaled", "value-after-diagonal",
         "adjacency-diagonal", "adjacency-value-text", "row-back-past-column", "blank-line",
         "comment-line"],
)
def test_self_test_rejects_bad_export(tmp_path, kind, body, error, message):
    # each file is the P_1^1 Laplacian or adjacency (half-bandwidth 1), or a
    # larger file where its comment says so, with one defect, and the check
    # that names that defect must be the one to fire; a body that holds its
    # own first line replaces MM_HEADER
    path = tmp_path / "bad.mtx"
    path.write_text(body if body.startswith("%%") else MM_HEADER + body, encoding="utf-8")
    with pytest.raises(error, match=message):
        cli._self_test_export(str(path), kind, 1)


@pytest.mark.parametrize(
    "kind,body,half_bandwidth",
    [
        ("laplacian", "2 2 3\n1 1 1\n2 1 -1\n02 2 1\n", 1),
        ("laplacian", "2 2 3\n1\t1\t1\n2 1 -1\n2 2 1\n", 1),
        ("adjacency", "2 2 1\n2 1 1\n", 1),
        # P_2^1 labeled 1, 3, 2: row 3 holds columns 1 and 2, and its first
        # one gives the half-bandwidth
        ("laplacian", "3 3 5\n1 1 1\n2 2 1\n3 1 -1\n3 2 -1\n3 3 2\n", 2),
        ("adjacency", "3 3 2\n3 1 1\n3 2 1\n", 2),
    ],
    ids=["same-row-new-text", "tabs", "empty-first-row",
         "longest-edge-first", "adjacency-longest-edge-first"],
)
def test_self_test_accepts_export(tmp_path, kind, body, half_bandwidth):
    path = tmp_path / "good.mtx"
    path.write_text(MM_HEADER + body, encoding="utf-8")
    cli._self_test_export(str(path), kind, half_bandwidth)


def test_verify_optimal_cli(capsys, tmp_path):
    cert_path = tmp_path / "cert.tsv"
    code, out, _ = run(
        capsys, "verify-optimal", "--n", "1", "--d", "3",
        "--format", "json", "--out", str(cert_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "verified"
    assert doc["formula"] == doc["brute_force"] == 4
    body = cert_path.read_text(encoding="utf-8")
    assert body.startswith("# bandwidth 4\n# status proved\n")


def test_usage_errors_exit_1(capsys):
    assert main(["bw", "--n", "2", "--d", "2", "--method", "bogus"]) == 1
    capsys.readouterr()
    assert main(["rank", "--n", "2", "--d", "2", "not-a-vertex"]) == 1
    capsys.readouterr()
    assert main(["coeffs", "--n", "0", "--d", "2"]) == 1
    capsys.readouterr()
    assert main(["ratio", "--n", "2", "--d", "0"]) == 1
    capsys.readouterr()
    assert main(["table", "--n", "2", "--d", "0"]) == 1
    capsys.readouterr()
    assert main(["table", "--n", "0", "--d", "2"]) == 1
    capsys.readouterr()
    # (n+1)^(d+1) past float range: a message, not an OverflowError
    for n, d in ((1, 2000), (10**200, 1), (1, 10**400)):
        assert main(["estimate", "--n", str(n), "--d", str(d)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gridband: error: (n+1)^(d+1)"), err
        assert "Traceback" not in err
    # a budget below 1 is refused by the parser on every command, before
    # any file is written
    for command in [
        "bw --method brute", "bw --method hales-scan", "bw --method lex",
        "verify-optimal", "label", "export-matrix --out unused.mtx",
    ]:
        for budget in ("0", "-3"):
            argv = [*command.split(), "--n", "2", "--d", "2", "--budget", budget]
            assert main(argv) == 1, argv
            assert "argument --budget: must be >= 1" in capsys.readouterr().err
    # a time limit that is not positive, NaN included, would never expire
    for limit in ("0", "-1", "nan"):
        argv = ["bw", "--n", "2", "--d", "2", "--method", "brute", "--time-limit", limit]
        assert main(argv) == 1, argv
        assert "time_limit must be positive" in capsys.readouterr().err
    assert main([]) == 1
    capsys.readouterr()


def _squeezed(text: str) -> str:
    """text without whitespace, so that a wrapped help line still matches."""
    return "".join(text.split())


SEARCH_HELP = [
    ("--time-limit", (), "wall-clock limit in seconds for the search"),
    ("--no-accelerate", (),
     "ignored; the search always starts from the Hales labeling's bandwidth"),
    ("--out", (), "write the search certificate to this file"),
]
ORDER_HELP = ("--order", ("hales", "lex"), "")
SCAN_BUDGET_HELP = ("--budget", (), "max vertices (default 1000000)")
# command -> (summary, [(option, choices, help)]) besides --n, --d and
# --format; an empty help is not checked
HELP = {
    "coeffs": ("coefficient row of (1+x+...+x^n)^d", []),
    "bw": ("bandwidth by formula, edge scan, or search", [
        ("--method", ("formula", "hales-scan", "lex", "brute"), ""),
        ("--budget", (),
         "scan budget in vertices, or search budget in nodes for --method brute"),
        *SEARCH_HELP,
    ]),
    "table": ("bandwidth table for n=1..N, d=1..D", []),
    "label": ("full labeling listing in label order", [ORDER_HELP, SCAN_BUDGET_HELP]),
    "rank": ("1-based label of a vertex", [
        ORDER_HELP, ("vertex", (), "comma-separated coordinates, e.g. 1,0,2"),
    ]),
    "unrank": ("vertex at a 0-based rank", [
        ORDER_HELP, ("rank", (), "0-based rank (label minus one)"),
    ]),
    "bounds": ("central-coefficient bracket", []),
    "ratio": ("bw_hales/bw_lex for d = 1..D", []),
    "estimate": ("normal-peak estimate of the upper bound", []),
    "export-matrix": (
        "write adjacency or Laplacian in MatrixMarket coordinate format", [
            ORDER_HELP,
            ("--kind", ("adjacency", "laplacian"), ""),
            ("--out", (), "output path"),
            SCAN_BUDGET_HELP,
            ("--self-test", (),
             "re-read the file and verify row sums, symmetry, half-bandwidth"),
        ]),
    "verify-optimal": ("prove the formula optimal by exhaustive search", [
        ("--budget", (), "search budget in nodes (default 100000000)"),
        *SEARCH_HELP,
    ]),
}
COMMON_HELP = [
    ("--n", (), "edges per path factor"),
    ("--d", (), "number of factors"),
    ("--format", ("plain", "json", "csv"), "output format (default plain)"),
]


def test_help_exits_0(capsys):
    for flag in ("--help", "-h"):
        code, out, err = run(capsys, flag)
        assert (code, err) == (0, "")
        for name, (summary, _) in HELP.items():
            assert name in out
            assert _squeezed(summary) in _squeezed(out)


def test_main_runs_the_command_set_on_the_module(capsys, monkeypatch):
    # bench/tracer.py wraps cli.cmd_* after import, then calls main
    seen = []
    monkeypatch.setattr(cli, "cmd_export_matrix", lambda args: seen.append(args) or 7)
    assert run(capsys, "export-matrix", "--n", "1", "--d", "2", "--out", "m.mtx") == (7, "", "")
    assert (seen[0].out, seen[0].kind, seen[0].self_test) == ("m.mtx", "laplacian", False)


def test_no_command_prints_help_and_exits_1(capsys):
    code, out, err = run(capsys)
    assert (code, err) == (1, "")
    assert out.startswith("usage: gridband")
    for name in HELP:
        assert name in out


@pytest.mark.parametrize("command", list(HELP))
def test_command_help_names_every_option(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    for option, choices, text in COMMON_HELP + HELP[command][1]:
        assert option in out
        for choice in choices:
            assert choice in out
        assert _squeezed(text) in _squeezed(out)


ROW_REFUSAL = ("gridband: error: coefficient row 2 for n = 100000000 would hold about "
               "10800000054 bits; the row budget is 268435456 bits")
# (argv, exit code, sha256 of stdout or "" when there is none, last stderr
# line); the usage line printed above an error is not pinned, and no run
# leaves a file
PARSE_CASES = [
    ("bw --n", 1, "", "gridband bw: error: argument --n: expected one argument"),
    ("bw --n 1 --d 1 --method", 1, "",
     "gridband bw: error: argument --method: expected one argument"),
    ("bw --n 1 --d 1 --method bogus", 1, "",
     "gridband bw: error: argument --method: invalid choice: 'bogus' "
     "(choose from 'formula', 'hales-scan', 'lex', 'brute')"),
    ("bw --n 1 --d 1 --budget 0", 1, "",
     "gridband bw: error: argument --budget: must be >= 1, got 0"),
    ("bw --n 1 --d 1 --method brute --budget -3", 1, "",
     "gridband bw: error: argument --budget: must be >= 1, got -3"),
    ("bw --n 1 --d 1 --budget 1.5", 1, "",
     "gridband bw: error: argument --budget: invalid int value: '1.5'"),
    ("bw --n 1 --d 1 --time-limit x", 1, "",
     "gridband bw: error: argument --time-limit: invalid float value: 'x'"),
    ("bw --n 1 --d 1 --method brute --time-limit nan", 1, "",
     "gridband: error: time_limit must be positive"),
    # the search's limits are checked before its vertex budget, and only by a search
    ("bw --n 5 --d 1000000000 --method brute --time-limit nan", 1, "",
     "gridband: error: time_limit must be positive"),
    ("verify-optimal --n 5 --d 1000000000 --time-limit -0.0", 1, "",
     "gridband: error: time_limit must be positive"),
    ("bw --n 2 --d 2 --method formula --time-limit nan", 0,
     "a313b37d9c359baad0fbe9f9dab4c72cb5d062d403aaf4fd906f172f4f480701", ""),
    ("unrank --n 1 --d 1", 1, "",
     "gridband unrank: error: the following arguments are required: rank"),
    ("unrank --n 1 --d 1 x", 1, "",
     "gridband unrank: error: argument rank: invalid int value: 'x'"),
    ("unrank --n 1 --d 1 -1", 1, "", "gridband: error: rank -1 outside [0, 1]"),
    ("rank --n 1 --d 1", 1, "",
     "gridband rank: error: the following arguments are required: vertex"),
    ("rank --n 1 --d 1 0 0", 1, "", "gridband: error: unrecognized arguments: 0"),
    ("bw --n=2 --d=2", 0,
     "a313b37d9c359baad0fbe9f9dab4c72cb5d062d403aaf4fd906f172f4f480701", ""),
    ("bw --n 2 --d 2 --meth lex", 0,
     "c839e1a5e78b92d4a91805fafa39532f55fb9dee4f606ca1685a98f803bf0a38", ""),
    ("export-matrix --n 1 --d 1 --o x.mtx", 1, "",
     "gridband export-matrix: error: ambiguous option: --o could match --order, --out"),
    ("bw --n 1 --d 1 --no-accelerate=1", 1, "",
     "gridband bw: error: argument --no-accelerate: ignored explicit argument '1'"),
    ("bw --d -1 --n 1", 1, "", "gridband: error: need n >= 1 and d >= 1, got n=1, d=-1"),
    ("export-matrix --n 1 --d 1", 1, "",
     "gridband export-matrix: error: the following arguments are required: --out"),
    ("bw", 1, "", "gridband bw: error: the following arguments are required: --n, --d"),
    ("-x", 1, "", "gridband: error: unrecognized arguments: -x"),
    ("bogus", 1, "",
     "gridband: error: argument command: invalid choice: 'bogus' (choose from "
     "'coeffs', 'bw', 'table', 'label', 'rank', 'unrank', 'bounds', 'ratio', "
     "'estimate', 'export-matrix', 'verify-optimal')"),
    ("bw --n 1 --d 1 extra", 1, "", "gridband: error: unrecognized arguments: extra"),
    ("bw --n x --d 1", 1, "", "gridband bw: error: argument --n: invalid int value: 'x'"),
    ("rank 1,1 --n 2 --d 2", 0,
     "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06", ""),
    ("export-matrix --n 1 --d 1 --o=x.mtx", 1, "",
     "gridband export-matrix: error: ambiguous option: --o=x.mtx could match --order, --out"),
    ("bw --n 1 --d 1 --time-limit -1e3", 1, "",
     "gridband bw: error: argument --time-limit: expected one argument"),
    ("rank --n 2 --d 2 --bogus 1,1 extra", 1, "",
     "gridband: error: unrecognized arguments: --bogus extra"),
    ("bw --n 1 --d 1 --", 1, "", "gridband: error: unrecognized arguments: --"),
    # refusals past a budget, and of a path that cannot be written
    ("label --n 2 --d 8 --budget 100", 2, "",
     "gridband: error: P_2^8 has 6561 vertices; over the output budget (100 vertices)"),
    ("export-matrix --n 2 --d 2 --out x.mtx --budget 4", 2, "",
     "gridband: error: P_2^2 has 9 vertices; over the export budget (4 vertices)"),
    ("export-matrix --n 1 --d 1 --out missing/x.mtx", 1, "",
     "gridband: error: [Errno 2] No such file or directory: 'missing/x.mtx'"),
    ("rank --n 100000000 --d 2 0,0", 2, "", ROW_REFUSAL),
    ("unrank --n 100000000 --d 2 0", 2, "", ROW_REFUSAL),
    ("coeffs --n 100000000 --d 2", 2, "", ROW_REFUSAL),
]


@pytest.mark.parametrize(
    "argv,exit_code,digest,last_err", PARSE_CASES, ids=[case[0] for case in PARSE_CASES]
)
def test_command_line_parsing(capsys, tmp_path, monkeypatch, argv, exit_code, digest,
                              last_err):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv.split())
    assert code == exit_code
    assert (hashlib.sha256(out.encode()).hexdigest() if out else "") == digest
    assert (err.splitlines() or [""])[-1] == last_err
    assert list(tmp_path.iterdir()) == []


# argv shapes whose usage error quotes one item's text, here 50 000 characters
LONG_ITEM_CASES = [
    "bw --n {} --d 1",
    "bw --n 1 --d 1 --method {}",
    "bw --n 1 --d 1 --time-limit {}",
    "export-matrix --n 1 --d 1 --out m.mtx --self-test={}",
    "bw --n 1 --d 1 {}",
    "{}",
    "--{}",
    "export-matrix --n 1 --d 1 --o={}",
]


@pytest.mark.parametrize("argv", LONG_ITEM_CASES)
def test_usage_errors_cut_a_long_item(capsys, tmp_path, monkeypatch, argv):
    # the quote keeps the item's first TEXT_CAP characters and its length
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv.format("x" * 50_000).split())
    assert (code, out) == (1, "")
    assert len(err) < 300, err
    assert "x" * (grid.TEXT_CAP + 1) not in err
    assert re.search(r"x'?\.\.\. \(5000\d characters\)", err), err


NOTE = (
    "n=1 column: computed from the hypercube central-binomial sum (1, 2, 4, 7, "
    "13, ...); tabulations listing 3, 6, 12, ... from d=3 on run one below this "
    "formula; exhaustive search confirms the formula values 2 at (n=1, d=2) and "
    "4 at (n=1, d=3)."
)
CERT = "# bandwidth 2\n# status proved\n# nodes 2\n0,0\t1\n0,1\t2\n1,0\t3\n1,1\t4\n"
NO_OUTPUT = {"plain": "", "json": "", "csv": ""}

# (arguments, exit code, stdout for each format the row pins), run with
# --format added; every run starts in an empty directory, and the files a
# run leaves there are pinned in GOLDEN_FILES
GOLDEN = [
    ("coeffs --n 2 --d 2", 0, {
        "plain": "1 2 3 2 1\n",
        "json": '{"d": 2, "n": 2, "values": [1, 2, 3, 2, 1]}\n',
        "csv": "k,coefficient\n0,1\n1,2\n2,3\n3,2\n4,1\n",
    }),
    ("bw --n 2 --d 2", 0, {
        "plain": "value 3\nmethod formula\n",
        "json": '{"d": 2, "method": "formula", "n": 2, "value": 3}\n',
        "csv": "n,d,value,method,witness,status,nodes\n2,2,3,formula,,,\n",
    }),
    ("bw --n 2 --d 2 --method hales-scan", 0, {
        "plain": "value 3\nmethod edge-scan\nwitness 0,1 1,1\n",
        "json": '{"d": 2, "method": "edge-scan", "n": 2, "value": 3, '
                '"witness": ["0,1", "1,1"]}\n',
        "csv": 'n,d,value,method,witness,status,nodes\n2,2,3,edge-scan,"0,1 1,1",,\n',
    }),
    ("bw --n 2 --d 3 --method lex", 0, {
        "plain": "value 9\nmethod edge-scan\nwitness 0,0,0 1,0,0\n",
        "json": '{"d": 3, "method": "edge-scan", "n": 2, "value": 9, '
                '"witness": ["0,0,0", "1,0,0"]}\n',
        "csv": 'n,d,value,method,witness,status,nodes\n2,3,9,edge-scan,"0,0,0 1,0,0",,\n',
    }),
    ("bw --n 1 --d 2 --method brute --out c.tsv", 0, {
        "plain": "value 2\nmethod brute-force\nstatus proved\nnodes 2\n",
        "json": '{"d": 2, "method": "brute-force", "n": 1, "nodes": 2, '
                '"status": "proved", "value": 2}\n',
        "csv": "n,d,value,method,witness,status,nodes\n1,2,2,brute-force,,proved,2\n",
    }),
    ("bw --n 2 --d 2 --method brute --budget 5", 2, {
        "plain": "value 3\nmethod brute-force\nstatus budget-exhausted\nnodes 6\n",
        "json": '{"d": 2, "method": "brute-force", "n": 2, "nodes": 6, '
                '"status": "budget-exhausted", "value": 3}\n',
        "csv": "n,d,value,method,witness,status,nodes\n"
               "2,2,3,brute-force,,budget-exhausted,6\n",
    }),
    ("table --n 2 --d 3", 0, {
        "plain": f"d\tn=1\tn=2\n1\t1\t1\n2\t2\t3\n3\t4\t8\nnote: {NOTE}\n",
        "json": '{"d_max": 3, "n_max": 2, "note": "' + NOTE
                + '", "rows": [[1, 1], [2, 3], [4, 8]]}\n',
        "csv": f"d,n=1,n=2\n1,1,1\n2,2,3\n3,4,8\n# note: {NOTE}\n",
    }),
    ("label --n 1 --d 2", 0, {
        "plain": "0,0\t1\n0,1\t2\n1,0\t3\n1,1\t4\n",
        "json": '{"d": 2, "labels": [["0,0", 1], ["0,1", 2], ["1,0", 3], ["1,1", 4]], '
                '"n": 1, "order": "hales"}\n',
        "csv": 'vertex,label\n"0,0",1\n"0,1",2\n"1,0",3\n"1,1",4\n',
    }),
    ("label --n 1 --d 2 --order lex", 0, {
        "plain": "0,0\t1\n0,1\t2\n1,0\t3\n1,1\t4\n",
        "json": '{"d": 2, "labels": [["0,0", 1], ["0,1", 2], ["1,0", 3], ["1,1", 4]], '
                '"n": 1, "order": "lex"}\n',
        "csv": 'vertex,label\n"0,0",1\n"0,1",2\n"1,0",3\n"1,1",4\n',
    }),
    ("label --n 1 --d 2 --budget 3", 2, NO_OUTPUT),
    ("rank --n 2 --d 2 1,1", 0, {
        "plain": "5\n",
        "json": '{"d": 2, "label": 5, "n": 2, "order": "hales", "vertex": "1,1"}\n',
        "csv": 'vertex,label\n"1,1",5\n',
    }),
    ("rank --n 2 --d 2 --order lex 1,2", 0, {
        "plain": "6\n",
        "json": '{"d": 2, "label": 6, "n": 2, "order": "lex", "vertex": "1,2"}\n',
        "csv": 'vertex,label\n"1,2",6\n',
    }),
    ("unrank --n 2 --d 2 1", 0, {
        "plain": "0,1\n",
        "json": '{"d": 2, "n": 2, "order": "hales", "rank": 1, "vertex": "0,1"}\n',
        "csv": 'rank,vertex\n1,"0,1"\n',
    }),
    ("unrank --n 2 --d 2 --order lex 5", 0, {
        "plain": "1,2\n",
        "json": '{"d": 2, "n": 2, "order": "lex", "rank": 5, "vertex": "1,2"}\n',
        "csv": 'rank,vertex\n5,"1,2"\n',
    }),
    ("bounds --n 2 --d 3", 0, {
        "plain": "lower 7\nbandwidth 8\nupper 19\n",
        "json": '{"bandwidth": 8, "d": 3, "lower": 7, "n": 2, "upper": 19}\n',
        "csv": "lower,bandwidth,upper\n7,8,19\n",
    }),
    ("ratio --n 2 --d 3", 0, {
        "plain": "1\t1\t1\t1\n2\t3\t3\t1\n3\t8\t9\t0.888889\n",
        "json": '{"n": 2, "rows": [[1, 1, 1, 1.0], [2, 3, 3, 1.0], '
                '[3, 8, 9, 0.888888888888889]]}\n',
        "csv": "d,bw_hales,bw_lex,ratio\n1,1,1,1\n2,3,3,1\n3,8,9,0.888889\n",
    }),
    ("estimate --n 2 --d 2", 0, {
        "plain": "estimate 7.61656\nexact 7\nratio 1.08808\n",
        "json": '{"d": 2, "estimate": 7.61655937789471, "exact": 7, "n": 2, '
                '"ratio": 1.08807991112782, "sqrt_factor": 0.282094791773878}\n',
        "csv": "estimate,exact,ratio\n7.61656,7,1.08808\n",
    }),
    ("export-matrix --n 1 --d 2 --out m.mtx --self-test", 0, {
        "plain": "path m.mtx\nkind laplacian\norder hales\nsize 4\nnnz 8\n"
                 "half_bandwidth 2\n",
        "json": '{"half_bandwidth": 2, "kind": "laplacian", "nnz": 8, '
                '"order": "hales", "path": "m.mtx", "size": 4}\n',
        "csv": "path,kind,order,size,nnz,half_bandwidth\nm.mtx,laplacian,hales,4,8,2\n",
    }),
    ("verify-optimal --n 1 --d 2 --out c.tsv", 0, {
        "plain": "verdict verified\nformula 2\nbrute_force 2\nstatus proved\nnodes 2\n",
        "json": '{"brute_force": 2, "d": 2, "formula": 2, "n": 1, "nodes": 2, '
                '"status": "proved", "verdict": "verified"}\n',
        "csv": "n,d,verdict,formula,brute_force,status,nodes\n1,2,verified,2,2,proved,2\n",
    }),
    ("verify-optimal --n 2 --d 2 --budget 5", 2, {
        "plain": "verdict inconclusive\nformula 3\nbrute_force 3\n"
                 "status budget-exhausted\nnodes 6\n",
        "json": '{"brute_force": 3, "d": 2, "formula": 3, "n": 2, "nodes": 6, '
                '"status": "budget-exhausted", "verdict": "inconclusive"}\n',
        "csv": "n,d,verdict,formula,brute_force,status,nodes\n"
               "2,2,inconclusive,3,3,budget-exhausted,6\n",
    }),
    ("table --n 2 --d 0", 1, NO_OUTPUT),
    ("coeffs --n 2 --d 3", 0, {"plain": "1 3 6 7 6 3 1\n"}),
    ("bw --n 2 --d 3 --method formula", 0, {"plain": "value 8\nmethod formula\n"}),
    ("bw --n 3 --d 3 --method hales-scan", 0,
     {"plain": "value 14\nmethod edge-scan\nwitness 0,2,2 1,2,2\n"}),
    ("bw --n 2 --d 2 --method brute", 0,
     {"plain": "value 3\nmethod brute-force\nstatus proved\nnodes 9\n"}),
    ("table --n 2 --d 5", 0,
     {"plain": f"d\tn=1\tn=2\n1\t1\t1\n2\t2\t3\n3\t4\t8\n4\t7\t21\n5\t13\t56\nnote: {NOTE}\n"}),
    ("table --n 3 --d 4", 0, {"json": '{"d_max": 4, "n_max": 3, "note": "' + NOTE
                              + '", "rows": [[1, 1, 1], [2, 3, 4], [4, 8, 14], [7, 21, 48]]}\n'}),
    ("label --n 2 --d 2 --order hales", 0,
     {"plain": "0,0\t1\n0,1\t2\n1,0\t3\n0,2\t4\n1,1\t5\n2,0\t6\n1,2\t7\n2,1\t8\n2,2\t9\n"}),
    ("label --n 2 --d 2 --order lex", 0,
     {"plain": "0,0\t1\n0,1\t2\n0,2\t3\n1,0\t4\n1,1\t5\n1,2\t6\n2,0\t7\n2,1\t8\n2,2\t9\n"}),
    # rank prints a 1-based label, and unrank reads a 0-based rank
    ("rank --n 2 --d 2 --order hales 1,1", 0, {"plain": "5\n"}),
    ("rank --n 2 --d 2 --order hales 0,0", 0, {"plain": "1\n"}),
    ("rank --n 2 --d 2 --order lex 1,1", 0, {"plain": "5\n"}),
    ("unrank --n 2 --d 2 --order hales 1", 0, {"plain": "0,1\n"}),
    ("unrank --n 2 --d 2 --order hales 0", 0, {"plain": "0,0\n"}),
    ("unrank --n 2 --d 3 --order lex 26", 0, {"plain": "2,2,2\n"}),
    # one dimension needs no coefficient row, even at a huge n
    ("rank --n 20000000 --d 1 5", 0, {"plain": "6\n"}),
    ("unrank --n 20000000 --d 1 5", 0, {"plain": "5\n"}),
    ("bounds --n 1000000000 --d 12", 0, {"json": (
        '{"bandwidth": 39392556955861062289154081912004844987369036428636033742241'
        '4696782399138904830031809569814175000001, "d": 12, '
        '"lower": 39392556950874641434956716625023462460506332997160374385161'
        '7522908766320311948084481861479700000001, "n": 1000000000, '
        '"upper": 3788440890908590312286093477177287180924376266454385488159799860'
        '26608291873950043036609661905558269675000001}\n')}),
    ("estimate --n 1 --d 9", 0, {"json": '{"d": 9, "estimate": 258.368770254864, "exact": 252, '
                                         '"n": 1, "ratio": 1.02527289783676, '
                                         '"sqrt_factor": 0.252313252202016}\n'}),
    ("export-matrix --n 1 --d 1 --order hales --kind adjacency --out p11.mtx --self-test", 0,
     {"plain": "path p11.mtx\nkind adjacency\norder hales\nsize 2\nnnz 1\nhalf_bandwidth 1\n"}),
]
GOLDEN_FILES = {
    "bw --n 1 --d 2 --method brute --out c.tsv": {"c.tsv": CERT},
    "verify-optimal --n 1 --d 2 --out c.tsv": {"c.tsv": CERT},
    "export-matrix --n 1 --d 2 --out m.mtx --self-test": {"m.mtx": (
        "%%MatrixMarket matrix coordinate integer symmetric\n4 4 8\n"
        "1 1 2\n2 1 -1\n2 2 2\n3 1 -1\n3 3 2\n4 2 -1\n4 3 -1\n4 4 2\n"
    )},
    "export-matrix --n 1 --d 1 --order hales --kind adjacency --out p11.mtx --self-test": {
        "p11.mtx": "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 1\n"},
}


GOLDEN_RUNS = [(args, exit_code, fmt, out)
               for args, exit_code, stdout in GOLDEN for fmt, out in stdout.items()]


@pytest.mark.parametrize("args,exit_code,fmt,stdout", GOLDEN_RUNS,
                         ids=[f"{args}-{fmt}" for args, _, fmt, _ in GOLDEN_RUNS])
def test_golden_output(capsys, tmp_path, monkeypatch, args, exit_code, fmt, stdout):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *args.split(), "--format", fmt)
    assert (code, out) == (exit_code, stdout)
    assert not (out and err)  # a run that prints its answer writes no stderr
    written = {path.name: path.read_text(encoding="utf-8") for path in tmp_path.iterdir()}
    assert written == GOLDEN_FILES.get(args, {})


# argv whose grid has (n+1)^d far past any budget or float: each is refused
# from the bit length of n+1 alone, and names the count as (n+1)^d
E18 = 10**18
HUGE_CASES = [
    (f"label --n 1 --d {E18}", 2,
     f"P_1^{E18} has 2^{E18} vertices; over the output budget (1000000 vertices)"),
    ("export-matrix --n 2 --d 1000000000 --out x.mtx", 2,
     "P_2^1000000000 has 3^1000000000 vertices; over the export budget (1000000 vertices)"),
    ("bw --n 5 --d 1000000000 --method brute --time-limit 3", 2,
     "P_5^1000000000 has 6^1000000000 vertices; "
     "over the exhaustive-search budget (1000000 vertices)"),
    (f"unrank --n 3 --d {E18} -1", 1, f"rank -1 outside [0, 4^{E18} - 1]"),
    (f"unrank --n 3 --d {E18} --order lex -1", 1, f"rank -1 outside [0, 4^{E18} - 1]"),
    (f"unrank --n 3 --d {E18} --order lex 0", 2,
     f"a vertex of P_3^{E18} has {E18} coordinates; over the unrank budget "
     "(1000000 coordinates)"),
    ("estimate --n 1000000000 --d 1000000000", 1,
     "(n+1)^(d+1) = 1000000001^1000000001 is beyond float range; no float estimate exists"),
    ("bw --n 1 --d 100000 --method lex --budget 5", 2,
     "P_1^100000 has 2^100000 vertices; over the edge-scan budget (5 vertices)"),
    ("bw --n 1 --d 20000 --method hales-scan", 2,
     "P_1^20000 has 2^20000 vertices; over the edge-scan budget (1000000 vertices)"),
]


@pytest.mark.parametrize("argv,exit_code,message", HUGE_CASES,
                         ids=[case[0] for case in HUGE_CASES])
def test_huge_grids_are_refused_before_their_count_is_built(
        capsys, tmp_path, monkeypatch, argv, exit_code, message):
    monkeypatch.chdir(tmp_path)
    start = time.process_time()
    code, out, err = run(capsys, *argv.split())
    assert time.process_time() - start < 1
    assert (code, out, err) == (exit_code, "", f"gridband: error: {message}\n")
    assert not (tmp_path / "x.mtx").exists()


# argv that each hold an integer of about 4 200 digits, which the refusal echoes
# cut by coeffs.shown: its first TEXT_CAP characters and its length
HUGE_INTEGER_CASES = [
    ("bw --n 1 --d 1 --budget -{}", 1),
    ("bw --n -{} --d 1", 1),
    ("label --n 1 --d {}", 2),
    ("bw --n {} --d 1 --method lex", 2),
    ("estimate --n {} --d 1", 1),
    ("bw --n 1 --d {}", 2),
    ("unrank --n 3 --d {} -1", 1),
    ("unrank --n 3 --d {} --order lex 0", 2),
    ("rank --n 5{0} --d 1 9{0}", 1),
    ("rank --n {0} --d 1 1{0}", 1),
]


@pytest.mark.parametrize("argv,exit_code", HUGE_INTEGER_CASES,
                         ids=[case[0] for case in HUGE_INTEGER_CASES])
def test_refusals_cut_a_huge_integer(capsys, argv, exit_code):
    code, out, err = run(capsys, *argv.format("9" * 4200).split())
    assert (code, out) == (exit_code, "")
    assert len(err.encode()) < 300, err
    assert "9" * (coeffs.TEXT_CAP + 1) not in err
    assert re.search(r"\.\.\. \(420[01] characters\)", err), err


def test_verify_optimal_refuses_past_the_search_budget_before_the_formula(
        capsys, monkeypatch):
    # the search's vertex budget is read first, so the closed form, which
    # would count for hours at this size, is never called
    def no_formula(n, d):
        raise AssertionError("bw_hales ran before the budget refusal")

    monkeypatch.setattr(cli, "bw_hales", no_formula)
    start = time.process_time()
    code, out, err = run(capsys, "verify-optimal", "--n", str(E18), "--d", str(E18))
    assert time.process_time() - start < 1
    message = (f"P_{E18}^{E18} has {E18 + 1}^{E18} vertices; "
               "over the exhaustive-search budget (1000000 vertices)")
    assert (code, out, err) == (2, "", f"gridband: error: {message}\n")


def test_rank_range_builds_the_count_only_for_long_ranks():
    # a rank of at most half the grid's bits is in range; a longer one is
    # compared with (n+1)^d, which is named by its digits up to SIZE_BITS
    assert cli.lex_unrank(5, 1, 3) == (1, 0, 1)
    for r, n, d, top in [(8, 1, 3, "7"), (2**40, 1, 40, "1099511627775"),
                         (-1, 1, coeffs.SIZE_BITS, f"2^{coeffs.SIZE_BITS} - 1")]:
        with pytest.raises(ValueError, match=rf"rank {r} outside \[0, {re.escape(top)}\]"):
            cli.lex_unrank(r, n, d)
    assert cli.lex_unrank(2**40 - 1, 1, 40) == (1,) * 40


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_lex_rank_and_unrank_past_the_digit_limit(capsys, fmt):
    # 2^15000 has 4 516 digits, past the 4 300 that Python converts by default
    d = 15000
    ones = ",".join(["1"] * d)
    label, top = limit_lifted(lambda: (str(2**d), str(2**d - 1)))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    lex = ("--n", "1", "--d", str(d), "--order", "lex", "--format", fmt)
    code, out, err = run(capsys, "rank", *lex, ones)
    assert (code, err) == (0, "")
    assert out == {
        "plain": f"{label}\n",
        "csv": f"vertex,label\n\"{ones}\",{label}\n",
        "json": f'{{"d": {d}, "label": {label}, "n": 1, "order": "lex", "vertex": "{ones}"}}\n',
    }[fmt]
    code, out, err = run(capsys, "unrank", *lex, top)
    assert (code, err) == (0, "")
    assert out == {
        "plain": f"{ones}\n",
        "csv": f"rank,vertex\n{top},\"{ones}\"\n",
        "json": f'{{"d": {d}, "n": 1, "order": "lex", "rank": {top}, "vertex": "{ones}"}}\n',
    }[fmt]
    # the call restores the limit it lifted
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_a_rank_longer_than_the_grid_is_refused_unread(capsys, monkeypatch):
    # reading 100 000 digits would cost 0.1 s, and a few MB of them minutes;
    # a rank with more digits than 8^(k-1) >= (n+1)^d allows is never read
    def no_int(text):
        raise AssertionError("the rank's text was converted")

    monkeypatch.setattr(coeffs, "int", no_int, raising=False)
    start = time.process_time()
    code, out, err = run(capsys, "unrank", "--n", "1", "--d", "10", "1" * 100_000)
    assert time.process_time() - start < 1
    assert (code, out, err) == (1, "", "gridband: error: rank of 100000 digits outside [0, 1023]\n")
    code, out, err = run(capsys, "unrank", "--n", "1", "--d", "10", "-" + "0" * 99 + "9" * 8)
    assert (code, out, err) == (1, "", "gridband: error: rank of 8 digits outside [0, 1023]\n")
    monkeypatch.undo()
    # a shorter one is read and compared, and leading zeros are no digits
    code, out, err = run(capsys, "unrank", "--n", "1", "--d", "10", "9999999")
    assert (code, out, err) == (1, "", "gridband: error: rank 9999999 outside [0, 1023]\n")
    code, out, err = run(capsys, "unrank", "--n", "1", "--d", "10", "--order", "lex",
                         "0" * 100_000 + "1_023")
    assert (code, out, err) == (0, "1,1,1,1,1,1,1,1,1,1\n", "")


def test_a_coordinate_longer_than_n_is_refused_unread(capsys, monkeypatch):
    # the message names the coordinate's digits, not its text, and is said once
    def no_int(text):
        raise AssertionError("the coordinate's text was converted")

    monkeypatch.setattr(grid, "int", no_int, raising=False)
    ones = "1" * 100_000
    code, out, err = run(capsys, "rank", "--n", "1", "--d", "2", f"{ones},0")
    assert (code, out, err) == (1, "", "gridband: error: coordinate of 100000 digits outside [0, 1]\n")
    code, out, err = run(capsys, "rank", "--n", "99", "--d", "2", "0,+0_100")
    assert (code, out, err) == (1, "", "gridband: error: coordinate of 3 digits outside [0, 99]\n")
    monkeypatch.undo()
    # as many digits as n is read and judged as before, and leading zeros are no digits
    code, out, err = run(capsys, "rank", "--n", "10", "--d", "2", "11,0")
    assert (code, out, err) == (1, "", "gridband: error: coordinate 0 is 11, outside [0, 10]\n")
    # and is named by its position, not by the whole vertex
    vertex = ",".join(["2"] + ["1"] * 14_999)
    code, out, err = run(capsys, "rank", "--n", "1", "--d", "15000", vertex)
    assert (code, out, err) == (1, "", "gridband: error: coordinate 0 is 2, outside [0, 1]\n")
    code, out, err = run(capsys, "rank", "--n", "10", "--d", "2", "--order", "lex", "0010,0")
    assert (code, out, err) == (0, "111\n", "")


def test_a_coordinate_that_is_no_integer_is_named(capsys, monkeypatch):
    # refused by its position before any coordinate is read, never with
    # Python's own message for int(), and without the rest of the vertex
    def no_int(text):
        raise AssertionError("a coordinate was converted")

    monkeypatch.setattr(grid, "int", no_int, raising=False)
    for vertex, p, part in [("1,x", 1, "x"), ("1,,0", 1, ""), ("1.5,0", 0, "1.5")]:
        code, out, err = run(capsys, "rank", "--n", "2", "--d", "2", vertex)
        message = f"bad vertex: coordinate {p} is {part!r}, not an integer"
        assert (code, out, err) == (1, "", f"gridband: error: {message}\n"), vertex


@pytest.mark.parametrize("text", ["5", "-0", " +1_0 ", "٣", "0_0", "031"])
def test_a_rank_is_any_text_that_int_reads(text):
    assert cli.integer_text(text) == text
    assert coeffs.read_rank(text, 1, 5) == int(text)


@pytest.mark.parametrize("text", ["x", "", "1.5", "1__0", "_1", "1_", "+-1", "+ 1", "²"])
def test_a_rank_is_no_other_text(text):
    with pytest.raises(ValueError):
        int(text)
    with pytest.raises(ValueError):
        cli.integer_text(text)


# argv run both in process and as `python -m gridband`: one per command, a
# usage error (exit 1), a refusal (exit 1) and a budget exit (exit 2)
PROGRAM_CASES = [
    "coeffs --n 2 --d 3",
    "bw --n 2 --d 3 --method hales-scan --format json",
    "table --n 3 --d 4 --format csv",
    "label --n 1 --d 3",
    "rank --n 2 --d 3 1,0,2",
    "unrank --n 2 --d 3 --order lex 17 --format json",
    "bounds --n 3 --d 5",
    "ratio --n 2 --d 4 --format csv",
    "estimate --n 1 --d 9",
    "export-matrix --n 1 --d 2 --out m.mtx --self-test",
    "verify-optimal --n 1 --d 2 --out c.tsv",
    "bw --n x --d 1",
    "unrank --n 1 --d 1 -1",
    "label --n 2 --d 8 --budget 100",
]


def test_a_program_run_prints_what_main_returns(capsys, tmp_path, monkeypatch):
    codes = set()
    for i, argv in enumerate(PROGRAM_CASES):
        here, there = tmp_path / f"main{i}", tmp_path / f"child{i}"
        here.mkdir()
        there.mkdir()
        monkeypatch.chdir(here)
        code, out, err = run(capsys, *argv.split())
        child = spawn(["-m", "gridband", *argv.split()], there, wall=60)
        assert (child.code, child.out, child.err.decode()) == (code, out.encode(), err), argv
        files = {p.name: p.read_bytes() for p in here.iterdir()}
        assert {p.name: p.read_bytes() for p in there.iterdir()} == files, argv
        codes.add(code)
    assert codes == {0, 1, 2}


FREEZE_CHILD = """
import gc, sys
from gridband.cli import main
sys.argv = ["gridband", "bw", "--n", "2", "--d", "2"]
before = gc.get_freeze_count()
main(sys.argv[1:])
listed = gc.get_freeze_count()
code = main()
print(code, listed == before, gc.get_freeze_count() > before)
"""


def test_only_a_program_run_freezes_the_heap(capsys, tmp_path):
    # a program run leaves its objects to a teardown that no longer walks
    # them; a call with argv, in this process, freezes nothing.  Counts are
    # read against the child's own at start, which is not 0 on every Python
    child = spawn(["-c", FREEZE_CHILD], tmp_path)
    assert child.code == 0, child.err
    assert child.out.decode().splitlines()[-1] == "0 True True"
    frozen = gc.get_freeze_count()
    assert run(capsys, "bw", "--n", "2", "--d", "2")[0] == 0
    assert gc.get_freeze_count() == frozen
