"""Command-line interface.

    gridband <command> --n N --d D [options]

One table, COMMANDS, declares each command and its options: parse_args
reads argv by it, and --help prints it.  The table is plain data, so a
command starts without argparse and its gettext.  Output formats: plain
(default), json, csv.  Labels are 1-based everywhere; the `unrank` command
takes a 0-based rank (stated in its help).  Exit codes: 0 success, 1 usage
error, 2 budget exceeded, 3 internal invariant violation.
"""

from __future__ import annotations

import gc
import sys
from itertools import accumulate, chain, islice
from types import SimpleNamespace

from .bandwidth import (
    asymptotic_estimate,
    bounds,
    bw_hales,
    bw_lex,
    ratio_table,
)
from .coeffs import check_grid, coeff_row, max_coeff, read_rank, shown, significant_digits, top_sums
from .grid import (
    BLOCK_LINES,
    DEFAULT_SCAN_BUDGET,
    BudgetExceededError,
    InternalInvariantError,
    check_budget,
    format_vertex,
    label_array,
    label_lines,
    label_listing,
    labeling_bandwidth,
    lex_rank,
    lex_unrank,
    lower_neighbours,
    parse_vertex,
)
from .hales import hales_rank, hales_unrank
from .oracle import DEFAULT_NODE_BUDGET, PROVED, brute_force_bw, certificate_lines

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3

# the first line of an exported matrix, and of any file its self-test passes
MM_BANNER = "%%MatrixMarket matrix coordinate integer symmetric\n"

TABLE_NOTE = (
    "n=1 column: computed from the hypercube central-binomial sum "
    "(1, 2, 4, 7, 13, ...); tabulations listing 3, 6, 12, ... from d=3 on "
    "run one below this formula; exhaustive search confirms the formula "
    "values 2 at (n=1, d=2) and 4 at (n=1, d=3)."
)


# ---------------------------------------------------------------- output


def _text(value) -> str:
    """A value as plain and csv print it: floats to 6 digits, lists space-joined."""
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def _json(value):
    """A value as json prints it: floats rounded to 15 digits, tuples as lists.

    A generator, such as label's streamed rows (which hold no floats), is
    not walked but listed by json.dumps.
    """
    if isinstance(value, float):
        return float(format(value, ".15g"))
    if isinstance(value, (list, tuple)):
        return [_json(v) for v in value]
    return value


def _render(args, doc: dict, columns: list[str], rows=None, plain=None) -> None:
    """Print one command's result in args.format.

    json prints the doc.  csv prints the columns as a header, then the rows;
    a record command has no rows, and prints the doc's values in column
    order as one row, with an empty cell for a missing key.  plain prints
    the command's own plain lines if it has any, else the rows tab-separated,
    else a `key value` line for each column in the doc, n and d aside.  A
    doc's note closes plain and csv output.

    Every plain and csv cell prints as _text prints it.  Plain and csv
    lines go to stdout BLOCK_LINES to a write, so a listing costs a few
    dozen writes whether or not stdout is buffered (python -u).  json and
    csv are imported by their own format only, so a plain run starts
    without them.
    """
    if args.format == "json":
        import json
        doc = {key: _json(value) for key, value in doc.items()}
        print(json.dumps(doc, sort_keys=True, default=list))
        return
    prefix = ""
    if args.format == "csv":
        import csv
        if rows is None:  # a record
            rows = [[doc.get(key, "") for key in columns]]
        rows = ([_text(v) for v in row] for row in rows)
        # writerow returns what write returns, here the row's csv line
        echo = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
        lines = map(echo.writerow, chain([columns], rows))
        prefix = "# "
    elif plain is not None:
        lines = (f"{_text(v)}\n" for v in plain)
    elif rows is None:
        lines = (
            f"{key} {_text(doc[key])}\n"
            for key in columns
            if key in doc and key not in ("n", "d")
        )
    else:
        lines = ("\t".join(map(_text, row)) + "\n" for row in rows)
    while block := "".join(islice(lines, BLOCK_LINES)):
        sys.stdout.write(block)
    if "note" in doc:
        print(f"{prefix}note: {doc['note']}")


# ---------------------------------------------------------------- commands


def cmd_coeffs(args) -> int:
    values = list(coeff_row(args.n, args.d))
    _render(
        args, {"n": args.n, "d": args.d, "values": values}, ["k", "coefficient"],
        enumerate(values), plain=[values],
    )
    return EXIT_OK


def _search(args):
    """Run the search that args asks for, write its certificate to --out if
    given, and return the certificate."""
    cert = brute_force_bw(args.n, args.d, args.budget or DEFAULT_NODE_BUDGET, args.time_limit)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(certificate_lines(cert))
    return cert


def cmd_bw(args) -> int:
    n, d = args.n, args.d
    doc: dict = {"n": n, "d": d}
    exit_code = EXIT_OK
    if args.method == "formula":
        doc.update(value=bw_hales(n, d), method="formula")
    elif args.method in ("hales-scan", "lex"):
        budget = args.budget or DEFAULT_SCAN_BUDGET
        spec = "hales" if args.method == "hales-scan" else "lex"
        report = labeling_bandwidth(spec, n, d, max_vertices=budget)
        expected = bw_hales(n, d) if spec == "hales" else bw_lex(n, d)
        if report.value != expected:
            raise InternalInvariantError(
                f"{spec} edge scan gave {report.value}, formula gives {expected}"
            )
        doc.update(value=report.value, method="edge-scan")
        doc["witness"] = list(map(format_vertex, report.witness))
    else:
        cert = _search(args)
        doc.update(
            value=cert.optimal_value,
            method="brute-force",
            status=cert.status,
            nodes=cert.nodes_explored,
        )
        if cert.status != PROVED:
            exit_code = EXIT_BUDGET
    _render(args, doc, ["n", "d", "value", "method", "witness", "status", "nodes"])
    return exit_code


def cmd_table(args) -> int:
    n_max, d_max = args.n, args.d
    check_grid(n_max, d_max)  # no grid at all would make an empty table
    # every column's stream starts, and a walk past the row budget is
    # refused, before any column is summed
    series = [accumulate(top_sums(n, d_max)) for n in range(1, n_max + 1)]
    rows = [list(row) for row in zip(*series)]
    header = ["d"] + [f"n={n}" for n in range(1, n_max + 1)]
    numbered = [[d, *row] for d, row in enumerate(rows, start=1)]
    doc = {"n_max": n_max, "d_max": d_max, "rows": rows, "note": TABLE_NOTE}
    plain = ("\t".join(map(str, row)) for row in [header, *numbered])
    _render(args, doc, header, numbered, plain)
    return EXIT_OK


def cmd_label(args) -> int:
    n, d = args.n, args.d
    check_budget(n, d, args.budget, "output")
    labels = label_array(args.order, n, d)
    if args.format == "plain":
        sys.stdout.writelines(label_lines(n, d, labels))
        return EXIT_OK
    pairs = label_listing(n, d, labels)
    doc = {"order": args.order, "n": n, "d": d, "labels": pairs}
    _render(args, doc, ["vertex", "label"], pairs)
    return EXIT_OK


def cmd_rank(args) -> int:
    u = parse_vertex(args.vertex, args.n)
    rank = hales_rank if args.order == "hales" else lex_rank
    label = rank(u, args.n, args.d) + 1
    doc = {
        "order": args.order,
        "n": args.n,
        "d": args.d,
        "vertex": args.vertex,
        "label": label,
    }
    _render(args, doc, ["vertex", "label"], plain=[label])
    return EXIT_OK


def cmd_unrank(args) -> int:
    unrank = hales_unrank if args.order == "hales" else lex_unrank
    rank = read_rank(args.rank, args.n, args.d)
    text = format_vertex(unrank(rank, args.n, args.d))
    doc = {
        "order": args.order,
        "n": args.n,
        "d": args.d,
        "rank": rank,
        "vertex": text,
    }
    _render(args, doc, ["rank", "vertex"], plain=[text])
    return EXIT_OK


def cmd_bounds(args) -> int:
    # the bandwidth first: its walk refuses a row past the budget at once,
    # where the bracket's counts would run before any refusal
    bandwidth = bw_hales(args.n, args.d)
    pair = bounds(args.n, args.d)
    if not pair.lower <= bandwidth <= pair.upper:
        raise InternalInvariantError(
            f"bandwidth {shown(bandwidth)} outside the bracket "
            f"[{shown(pair.lower)}, {shown(pair.upper)}] of central coefficients"
        )
    doc = {"n": args.n, "d": args.d, "lower": pair.lower, "bandwidth": bandwidth, "upper": pair.upper}
    _render(args, doc, ["lower", "bandwidth", "upper"])
    return EXIT_OK


def cmd_ratio(args) -> int:
    rows = ratio_table(args.n, args.d)
    _render(args, {"n": args.n, "rows": rows}, ["d", "bw_hales", "bw_lex", "ratio"], rows)
    return EXIT_OK


def cmd_estimate(args) -> int:
    est = asymptotic_estimate(args.n, args.d)
    exact = max_coeff(args.n, args.d + 1)
    doc = {
        "n": args.n,
        "d": args.d,
        "estimate": est.estimate,
        "sqrt_factor": est.sqrt_factor,
        "exact": exact,
        "ratio": est.estimate / exact,
    }
    _render(args, doc, ["estimate", "exact", "ratio"])
    return EXIT_OK


# ------------------------------------------------------- matrix export


def _write_matrix_market(path: str, n: int, d: int, labels, kind: str) -> int:
    """Write the lower triangle of the Hales or lex labels' matrix; return nnz.

    Rows go out in label order, one write each: the labels of the vertex's
    lighter neighbours, then a Laplacian's diagonal.  `lower_neighbours`
    gives a row's labels as text, built by one list comprehension, and one
    str.join makes its entry lines.  Both orders rank a vertex's lighter
    neighbours below it, and u - e_p below u - e_p' for p < p', the order
    `lower_neighbours` gives them in, so each row is sorted.  Off the
    diagonal a Laplacian has -1, adjacency 1.  nnz counts the
    d*n*(n+1)^(d-1) edges, plus the diagonal.
    """
    size = (n + 1) ** d
    laplacian = kind == "laplacian"
    nnz = d * n * (n + 1) ** (d - 1) + (size if laplacian else 0)
    tail = " -1\n" if laplacian else " 1\n"
    rows = lower_neighbours(n, d, labels)
    with open(path, "w", encoding="utf-8") as handle:
        write = handle.write
        write(MM_BANNER)
        write(f"{size} {size} {nnz}\n")
        for label, (lower, degree) in enumerate(rows, 1):
            head = f"{label} "
            text = f"{tail}{head}".join(lower)
            if text:
                text = f"{head}{text}{tail}"
            write(f"{text}{head}{head}{degree}\n" if laplacian else text)
    return nnz


def _misplaced(path: str, i: int, j: int, size: int, pi: int, pj: int) -> None:
    """Raise the error of entry (i, j) after entry (pi, pj), checked in this
    order: on or below the diagonal, inside 1..size, after (pi, pj).  An
    entry with none of these defects, which here is an adjacency entry on
    the diagonal, returns."""
    if j > i:
        raise InternalInvariantError(f"{path}: entry ({i},{j}) above the diagonal")
    if j < 1 or i > size:
        raise InternalInvariantError(f"{path}: entry ({i},{j}) outside 1..{size}")
    # strictly increasing pairs also rule out duplicates
    if (i, j) <= (pi, pj):
        problem = "duplicate" if i == pi and j == pj else "out-of-order"
        raise InternalInvariantError(f"{path}: {problem} entry ({i},{j})")


def _quoted(line: bytes) -> str:
    """A line of a file as a refusal quotes it."""
    return shown(line.decode("utf-8", "replace").strip(), repr)


def _self_test_export(path: str, kind: str, expected_half_bandwidth: int) -> None:
    """Re-read an exported file as ASCII bytes and check it against the export.

    Line 1 must equal MM_BANNER byte for byte, line 2 is the size line and
    every later line one `row col value` entry, so a comment line or a blank
    line is refused.  Those lines are split at ASCII whitespace into three
    fields, and sizes and indices are read by int, so a line need not be the
    one _write_matrix_market writes: tabs, CRLF line ends, spaces around the
    fields and an index written +2, 0_2 or 002 all pass.  Only a value is
    compared as text.  Each entry line costs
    one split, one int of its column, one compare of its value's text and
    one test, pj < j <= last: its column follows the row's previous one and
    lies below the diagonal, or on it in a Laplacian, whose row i may end at
    column i, where an adjacency's ends at i - 1.  The row is read, and
    checked to follow the previous row and lie inside 1..size, only when its
    text changes; a new row's first column, 1 at least, is its longest edge,
    as columns increase along a row.  A value whose bytes equal the export's
    off-diagonal text, b"1" for adjacency and b"-1" for a Laplacian, is that
    value; any other text is read by int, and must be a Laplacian's
    diagonal.  Values are summed into the row totals only for a Laplacian.
    An entry that fails the test goes to _misplaced, which names its defect
    from the integers already read; an adjacency entry on the diagonal,
    which _misplaced passes, is named here.
    """
    with open(path, "rb") as handle:
        header = handle.readline()
        if header != MM_BANNER.encode():
            raise ValueError(
                f"{path}: not a coordinate MatrixMarket file with the banner "
                f"{MM_BANNER.strip()!r}, got {_quoted(header)}"
            )
        line = handle.readline()
        try:
            size, cols, nnz = map(int, line.split())
        except ValueError:
            raise ValueError(f"{path}:2: expected 'rows cols entries', got {_quoted(line)}") from None
        if size != cols:
            raise ValueError(f"{path}: expected a square matrix")
        laplacian = kind == "laplacian"
        # the value of every off-diagonal entry, and its text
        off, off_text = (-1, b"-1") if laplacian else (1, b"1")
        totals = [0] * (size + 1) if laplacian else None
        lineno, pi, pj = 2, 0, 0  # the last line read, and the last entry
        row_text = b""  # this entry's row i, as written: none before the first
        half_bandwidth = 0
        try:  # only the unpacking of a line and int raise ValueError
            for lineno, line in enumerate(handle, start=3):
                text, col, value = line.split()
                j = int(col)
                if value == off_text:
                    v = off
                else:  # only a Laplacian's diagonal has other text
                    v = int(value)
                    if not laplacian or text != col and int(text) != j:
                        raise InternalInvariantError(
                            f"{path}:{lineno}: off-diagonal value "
                            f"{shown(value.decode())}, not {off}"
                        )
                if text != row_text:
                    i = int(text)
                    # the last column that row i may hold: only a Laplacian
                    # has a diagonal
                    row_text, last = text, i if laplacian else i - 1
                    if pi < i <= size:  # a new row
                        pi, pj = i, 0
                        if i - j > half_bandwidth:
                            half_bandwidth = i - j
                    elif i != pi:
                        _misplaced(path, i, j, size, pi, pj)
                if not pj < j <= last:
                    _misplaced(path, i, j, size, pi, pj)
                    raise InternalInvariantError(f"{path}: adjacency diagonal entry ({i},{j})")
                pj = j
                if laplacian:
                    totals[i] += v
                    if i != j:
                        totals[j] += v  # symmetric storage: mirror into the upper half
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: expected three integers 'row col value', got {_quoted(line)}"
            ) from None
    if lineno - 2 != nnz:
        raise ValueError(f"{path}: header says {nnz} entries, found {lineno - 2}")
    if laplacian and any(totals):
        raise InternalInvariantError(f"{path}: laplacian row sums are not all zero")
    if half_bandwidth != expected_half_bandwidth:
        raise InternalInvariantError(
            f"{path}: half-bandwidth {half_bandwidth}, "
            f"labeling bandwidth {expected_half_bandwidth}"
        )


def cmd_export_matrix(args) -> int:
    n, d = args.n, args.d
    check_budget(n, d, args.budget, "export")
    # read apart from the labels written, so the self-test checks the file
    # against a route that a fault of the label array does not reach
    half_bandwidth = labeling_bandwidth(args.order, n, d, args.budget).value
    nnz = _write_matrix_market(args.out, n, d, label_array(args.order, n, d), args.kind)
    if args.self_test:
        _self_test_export(args.out, args.kind, half_bandwidth)
    doc = {
        "path": args.out,
        "kind": args.kind,
        "order": args.order,
        "size": (n + 1) ** d,
        "nnz": nnz,
        "half_bandwidth": half_bandwidth,
    }
    _render(args, doc, list(doc))
    return EXIT_OK


def cmd_verify_optimal(args) -> int:
    # the closed form is read after the search, whose refusal of a grid past
    # its vertex budget thus comes before any closed-form work
    cert = _search(args)
    formula = bw_hales(args.n, args.d)
    if cert.status != PROVED:
        verdict, exit_code = "inconclusive", EXIT_BUDGET
    elif cert.optimal_value == formula:
        verdict, exit_code = "verified", EXIT_OK
    else:
        verdict, exit_code = "mismatch", EXIT_INTERNAL
    doc = {
        "n": args.n,
        "d": args.d,
        "verdict": verdict,
        "formula": formula,
        "brute_force": cert.optimal_value,
        "status": cert.status,
        "nodes": cert.nodes_explored,
    }
    _render(args, doc, list(doc))
    return exit_code


# ------------------------------------------------------------- parser


class UsageError(ValueError):
    """A value that an option's type refuses, with the reason to print."""


def positive_int(text: str) -> int:
    """A --budget value: an integer of at least 1, else a usage error."""
    value = int(text)
    if value < 1:
        raise UsageError(f"must be >= 1, got {shown(value)}")
    return value


def integer_text(text: str) -> str:
    """An unrank rank: text that int() reads, checked but left unread, as
    its digits are weighed against the grid first (coeffs.read_rank)."""
    if significant_digits(text) is None:
        raise ValueError(text)
    return text


REQUIRED = ...  # the default of an option that has none
# An option is (flag, type or choices, default, help).  A flag without
# dashes is a positional argument, and the type bool makes a switch.
COMMON = (
    ("--n", int, REQUIRED, "edges per path factor"),
    ("--d", int, REQUIRED, "number of factors"),
    ("--format", ("plain", "json", "csv"), "plain", "output format (default plain)"),
)
ORDER = ("--order", ("hales", "lex"), "hales", "labeling order (default hales)")
SCAN_BUDGET = ("--budget", positive_int, DEFAULT_SCAN_BUDGET,
               f"max vertices (default {DEFAULT_SCAN_BUDGET})")
SEARCH = (
    ("--time-limit", float, None, "wall-clock limit in seconds for the search"),
    ("--no-accelerate", bool, False,
     "ignored; the search always starts from the Hales labeling's bandwidth"),
    ("--out", str, None, "write the search certificate to this file"),
)
# command -> (summary, its options besides COMMON); main runs cmd_<command>
COMMANDS = {
    "coeffs": ("coefficient row of (1+x+...+x^n)^d", ()),
    "bw": ("bandwidth by formula, edge scan, or search", (
        ("--method", ("formula", "hales-scan", "lex", "brute"), "formula",
         "how to compute it (default formula)"),
        ("--budget", positive_int, None,
         "scan budget in vertices, or search budget in nodes for --method brute"), *SEARCH)),
    "table": ("bandwidth table for n=1..N, d=1..D", ()),
    "label": ("full labeling listing in label order", (ORDER, SCAN_BUDGET)),
    "rank": ("1-based label of a vertex", (
        ORDER, ("vertex", str, REQUIRED, "comma-separated coordinates, e.g. 1,0,2"))),
    "unrank": ("vertex at a 0-based rank", (
        ORDER, ("rank", integer_text, REQUIRED, "0-based rank (label minus one)"))),
    "bounds": ("central-coefficient bracket", ()),
    "ratio": ("bw_hales/bw_lex for d = 1..D", ()),
    "estimate": ("normal-peak estimate of the upper bound", ()),
    "export-matrix": ("write adjacency or Laplacian in MatrixMarket coordinate format", (
        ORDER, ("--kind", ("adjacency", "laplacian"), "laplacian", "(default laplacian)"),
        ("--out", str, REQUIRED, "output path"), SCAN_BUDGET, ("--self-test", bool, False,
         "re-read the file and verify row sums, symmetry, half-bandwidth"))),
    "verify-optimal": ("prove the formula optimal by exhaustive search", (
        ("--budget", positive_int, None,
         f"search budget in nodes (default {DEFAULT_NODE_BUDGET})"), *SEARCH)),
}
HELP_FLAGS = ("-h", "--help")


def _spelling(flag: str, kind) -> str:
    """An option as usage and help show it: `--n N`, `--order {hales,lex}`."""
    metavar = f"{{{','.join(kind)}}}" if isinstance(kind, tuple) else flag[2:].upper()
    return flag if kind is bool or flag[0] != "-" else f"{flag} {metavar}"


def _help(name) -> str:
    """The --help text of a command, or of gridband for name None; its first
    line is the usage line, which spells out the required options."""
    options = COMMON + (COMMANDS[name][1] if name else ())
    required = " ".join(
        _spelling(flag, kind) for flag, kind, default, _ in options if default is REQUIRED)
    rows = [(_spelling(flag, kind), text) for flag, kind, _, text in options] if name else [
        (command, summary) for command, (summary, _) in COMMANDS.items()]
    lines = (f"  {left:<28} {text}" for left, text in [*rows, ("-h, --help", "this help")])
    heading = COMMANDS[name][0] if name else "exact bandwidth of P_n^d; commands:"
    return "\n".join([f"usage: gridband {name or '<command>'} {required} [options]", "",
                      heading, "", *lines, ""])


def _fail(name, message: str):
    """Report a usage error of a command (or of gridband, for name None): the
    usage line, then `gridband [command]: error: message`; exit 1."""
    print(_help(name).partition("\n")[0], file=sys.stderr)
    print(f"gridband{name and ' ' + name or ''}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _convert(name, flag: str, kind, text: str):
    """An option's text as its value, or a usage error of command name."""
    try:
        if isinstance(kind, tuple) and text not in kind:
            choices = ", ".join(map(repr, kind))
            raise UsageError(f"invalid choice: {shown(text, repr)} (choose from {choices})")
        return text if isinstance(kind, tuple) else kind(text)
    except UsageError as exc:
        reason = str(exc)
    except ValueError:
        reason = f"invalid {'float' if kind is float else 'int'} value: {shown(text, repr)}"
    _fail(name, f"argument {flag}: {reason}")


def _is_value(arg: str) -> bool:
    """Whether an argv item is a value, not a flag: as for argparse, a
    negative number such as -3 or -.5 is a value, and so are "-" and any
    item that holds a space."""
    return arg[:1] != "-" or arg == "-" or " " in arg or arg[1:].replace(".", "", 1).isdigit()


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read argv by COMMANDS into the namespace that cmd_<command> reads.

    The command comes first; its options and positional arguments follow in
    any order.  A flag's value is the next item or follows `=`, and a
    unique prefix stands for a flag.  Help (-h or --help) exits 0; no command
    prints gridband's help and exits 1, and so does a usage error.  Both exit
    by SystemExit, as argparse did.
    """
    if not argv or argv[0] == "-h" or len(argv[0]) > 2 and "--help".startswith(argv[0]):
        print(_help(None), end="")
        raise SystemExit(EXIT_OK if argv else EXIT_USAGE)
    name, *rest = argv
    if not _is_value(name):
        _fail(None, f"unrecognized arguments: {shown(name)}")
    _convert(None, "command", tuple(COMMANDS), name)
    options = COMMON + COMMANDS[name][1]
    kinds = {flag: kind for flag, kind, _, _ in options}
    values = {flag: default for flag, _, default, _ in options}
    flags = [flag for flag in kinds if flag[0] == "-"] + list(HELP_FLAGS)
    positional = [flag for flag in kinds if flag[0] != "-"]
    extras = []
    while rest:
        arg = rest.pop(0)
        if _is_value(arg):
            flag, eq, text = positional.pop(0) if positional else None, "=", arg
        else:
            flag, eq, text = arg.partition("=")
            matches = [flag] if flag in flags else [
                known for known in flags if len(flag) > 2 and known.startswith(flag)]
            if len(matches) > 1:
                _fail(name, f"ambiguous option: {shown(arg)} could match {', '.join(matches)}")
            flag = matches[0] if matches else None
        if flag is None:
            extras.append(arg)
        elif flag in HELP_FLAGS:
            print(_help(name), end="")
            raise SystemExit(EXIT_OK)
        elif kinds[flag] is bool:
            if eq:
                _fail(name, f"argument {flag}: ignored explicit argument {shown(text, repr)}")
            values[flag] = True
        else:
            if not eq:
                if not rest or not _is_value(rest[0]):
                    _fail(name, f"argument {flag}: expected one argument")
                text = rest.pop(0)
            values[flag] = _convert(name, flag, kinds[flag], text)
    missing = [flag for flag, value in values.items() if value is REQUIRED]
    if missing:
        _fail(name, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(None, f"unrecognized arguments: {shown(' '.join(extras))}")
    return SimpleNamespace(
        command=name, **{flag.lstrip("-").replace("-", "_"): v for flag, v in values.items()})


def main(argv=None) -> int:
    """Run the command that argv, or for None sys.argv[1:], names; return
    its exit code.

    None means a program run (python -m gridband, the gridband script):
    the heap is frozen before the code is returned, as the process exits
    next.  Frozen objects sit in the permanent generation, which the
    collections of interpreter teardown skip.  atexit handlers and the
    last flush of stdout still run.  A call with a list freezes nothing,
    as a frozen cycle is never collected.
    """
    code = _run(sys.argv[1:] if argv is None else argv)
    if argv is None:
        gc.freeze()
    return code


def _run(argv: list[str]) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return exc.code
    # looked up at each call, so that a wrapper set on the module runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    # an answer or a rank may pass Python's limit (4 300 digits by default,
    # 3.10.7 on) on turning an int into text or back; lifted for the command
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return command(args)
    except BudgetExceededError as exc:
        print(f"gridband: error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInvariantError as exc:
        print(f"gridband: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"gridband: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
