"""Command-line interface.

    gridband <command> --n N --d D [flags]

Commands: coeffs, bw, table, label, rank, unrank, bounds, ratio, estimate,
export-matrix, verify-optimal.  Output formats: plain (default), json, csv.
Labels are 1-based everywhere; the `unrank` command takes a 0-based rank
(stated in its help).  Exit codes: 0 success, 1 usage error, 2 budget
exceeded, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from itertools import product, repeat
from operator import sub

from .bandwidth import (
    asymptotic_estimate,
    bounds,
    bw_hales,
    bw_hales_series,
    bw_lex,
)
from .coeffs import coeff_row, max_coeff
from .grid import (
    DEFAULT_SCAN_BUDGET,
    BudgetExceededError,
    GridParams,
    InternalInvariantError,
    LabelingSpec,
    edge_labels,
    edge_ranges,
    format_vertex,
    label_array,
    labeling_bandwidth,
    lex_rank,
    lex_unrank,
    parse_vertex,
)
from .hales import hales_enumerate, hales_rank, hales_unrank
from .oracle import (
    PROVED,
    SearchBudget,
    brute_force_bw,
    certificate_to_text,
    verify_optimal,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_INTERNAL = 3

DEFAULT_LABEL_BUDGET = 100_000
DEFAULT_EXPORT_BUDGET = 100_000
DEFAULT_NODE_BUDGET = 100_000_000

TABLE_NOTE = (
    "n=1 column: computed from the hypercube central-binomial sum "
    "(1, 2, 4, 7, 13, ...); tabulations listing 3, 6, 12, ... from d=3 on "
    "run one below this formula; exhaustive search confirms the formula "
    "values 2 at (n=1, d=2) and 4 at (n=1, d=3)."
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _plain_real(x: float) -> str:
    return format(x, ".6g")


def _json_real(x: float) -> float:
    return float(format(x, ".15g"))


def _emit_json(doc) -> None:
    print(json.dumps(doc, sort_keys=True))


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _params(args) -> GridParams:
    return GridParams(args.n, args.d)


# ---------------------------------------------------------------- commands


def cmd_coeffs(args) -> int:
    row = coeff_row(args.n, args.d)
    if args.format == "json":
        _emit_json({"n": row.n, "d": row.d, "values": list(row.values)})
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["k", "coefficient"])
        for k, v in enumerate(row.values):
            writer.writerow([k, v])
    else:
        print(" ".join(str(v) for v in row.values))
    return EXIT_OK


def _bw_report(args) -> tuple[dict, int]:
    params = _params(args)
    method = args.method
    doc: dict = {"n": params.n, "d": params.d}
    exit_code = EXIT_OK
    if method == "formula":
        doc.update(value=bw_hales(params.n, params.d), method="formula")
    elif method in ("hales-scan", "lex"):
        budget = args.budget if args.budget is not None else DEFAULT_SCAN_BUDGET
        spec = "hales" if method == "hales-scan" else "lex"
        report = labeling_bandwidth(spec, params, max_vertices=budget)
        expected = (
            bw_hales(params.n, params.d)
            if spec == "hales"
            else bw_lex(params.n, params.d)
        )
        if report.value != expected:
            raise InternalInvariantError(
                f"{spec} edge scan gave {report.value}, formula gives {expected}"
            )
        u, v = report.witness
        doc.update(
            value=report.value,
            method=report.method,
            witness=[format_vertex(u), format_vertex(v)],
        )
    elif method == "brute":
        budget = SearchBudget(
            max_nodes=args.budget if args.budget is not None else DEFAULT_NODE_BUDGET,
            time_limit=args.time_limit,
        )
        cert = brute_force_bw(
            params, budget, use_formula_bound=not args.no_accelerate
        )
        doc.update(
            value=cert.optimal_value,
            method="brute-force",
            status=cert.status,
            nodes=cert.nodes_explored,
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(certificate_to_text(cert))
        if cert.status != PROVED:
            exit_code = EXIT_BUDGET
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown method {method!r}")
    return doc, exit_code


def cmd_bw(args) -> int:
    doc, exit_code = _bw_report(args)
    if args.format == "json":
        _emit_json(doc)
    elif args.format == "csv":
        writer = _csv_writer()
        keys = ["n", "d", "value", "method", "witness", "status", "nodes"]
        writer.writerow(keys)
        row = []
        for key in keys:
            val = doc.get(key, "")
            if key == "witness" and val:
                val = " ".join(val)
            row.append(val)
        writer.writerow(row)
    else:
        print(f"value {doc['value']}")
        print(f"method {doc['method']}")
        if "witness" in doc:
            print(f"witness {doc['witness'][0]} {doc['witness'][1]}")
        if "status" in doc:
            print(f"status {doc['status']}")
            print(f"nodes {doc['nodes']}")
    return exit_code


def cmd_table(args) -> int:
    n_max, d_max = args.n, args.d
    if n_max < 1 or d_max < 1:
        raise ValueError("table needs --n >= 1 and --d >= 1")
    columns = [bw_hales_series(n, d_max) for n in range(1, n_max + 1)]
    rows = [list(row) for row in zip(*columns)]
    if args.format == "json":
        _emit_json({"n_max": n_max, "d_max": d_max, "rows": rows, "note": TABLE_NOTE})
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["d"] + [f"n={n}" for n in range(1, n_max + 1)])
        for d, row in enumerate(rows, start=1):
            writer.writerow([d] + row)
        print(f"# note: {TABLE_NOTE}")
    else:
        print("\t".join(["d"] + [f"n={n}" for n in range(1, n_max + 1)]))
        for d, row in enumerate(rows, start=1):
            print("\t".join([str(d)] + [str(v) for v in row]))
        print(f"note: {TABLE_NOTE}")
    return EXIT_OK


def _labeled_vertices(order: str, params: GridParams):
    if order == "hales":
        return hales_enumerate(params.n, params.d)
    return product(range(params.n + 1), repeat=params.d)


def cmd_label(args) -> int:
    params = _params(args)
    budget = args.budget if args.budget is not None else DEFAULT_LABEL_BUDGET
    total = params.vertex_count
    if total > budget:
        raise BudgetExceededError(
            f"P_{params.n}^{params.d} needs {total} lines; "
            f"over the output budget ({budget} lines)",
            budget=budget,
            required=total,
        )
    pairs = (
        (format_vertex(u), label)
        for label, u in enumerate(_labeled_vertices(args.order, params), start=1)
    )
    if args.format == "json":
        _emit_json(
            {
                "order": args.order,
                "n": params.n,
                "d": params.d,
                "labels": [[text, label] for text, label in pairs],
            }
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["vertex", "label"])
        for text, label in pairs:
            writer.writerow([text, label])
    else:
        for text, label in pairs:
            print(f"{text}\t{label}")
    return EXIT_OK


def cmd_rank(args) -> int:
    params = _params(args)
    u = parse_vertex(args.vertex)
    if args.order == "hales":
        label = hales_rank(u, params.n, params.d) + 1
    else:
        label = lex_rank(u, params) + 1
    if args.format == "json":
        _emit_json(
            {
                "order": args.order,
                "n": params.n,
                "d": params.d,
                "vertex": args.vertex,
                "label": label,
            }
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["vertex", "label"])
        writer.writerow([args.vertex, label])
    else:
        print(label)
    return EXIT_OK


def cmd_unrank(args) -> int:
    params = _params(args)
    if args.order == "hales":
        u = hales_unrank(args.rank, params.n, params.d)
    else:
        u = lex_unrank(args.rank, params)
    text = format_vertex(u)
    if args.format == "json":
        _emit_json(
            {
                "order": args.order,
                "n": params.n,
                "d": params.d,
                "rank": args.rank,
                "vertex": text,
            }
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["rank", "vertex"])
        writer.writerow([args.rank, text])
    else:
        print(text)
    return EXIT_OK


def cmd_bounds(args) -> int:
    pair = bounds(args.n, args.d)
    value = bw_hales(args.n, args.d)
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "d": args.d,
                "lower": pair.lower,
                "bandwidth": value,
                "upper": pair.upper,
            }
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["lower", "bandwidth", "upper"])
        writer.writerow([pair.lower, value, pair.upper])
    else:
        print(f"lower {pair.lower}")
        print(f"bandwidth {value}")
        print(f"upper {pair.upper}")
    return EXIT_OK


def cmd_ratio(args) -> int:
    rows = []
    for d, h in enumerate(bw_hales_series(args.n, args.d), start=1):
        lex = bw_lex(args.n, d)
        rows.append((d, h, lex, h / lex))
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "rows": [[d, h, l, _json_real(r)] for d, h, l, r in rows],
            }
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["d", "bw_hales", "bw_lex", "ratio"])
        for d, h, l, r in rows:
            writer.writerow([d, h, l, _plain_real(r)])
    else:
        for d, h, l, r in rows:
            print(f"{d}\t{h}\t{l}\t{_plain_real(r)}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    est = asymptotic_estimate(args.n, args.d)
    exact = max_coeff(args.n, args.d + 1)
    ratio = est.estimate / exact
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "d": args.d,
                "estimate": _json_real(est.estimate),
                "sqrt_factor": _json_real(est.sqrt_factor),
                "exact": exact,
                "ratio": _json_real(ratio),
            }
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["estimate", "exact", "ratio"])
        writer.writerow([_plain_real(est.estimate), exact, _plain_real(ratio)])
    else:
        print(f"estimate {_plain_real(est.estimate)}")
        print(f"exact {exact}")
        print(f"ratio {_plain_real(ratio)}")
    return EXIT_OK


# ------------------------------------------------------- matrix export


def _matrix_entries(
    params: GridParams, order: str, kind: str
) -> tuple[list[tuple[int, int, int]], int]:
    """Lower-triangle (row, col, value) triplets, sorted, and their half-bandwidth."""
    labels = label_array(LabelingSpec(order), params)
    value = -1 if kind == "laplacian" else 1
    entries: list[tuple[int, int, int]] = []
    degree: Counter[int] = Counter()
    half_bandwidth = 0
    for r, s in edge_ranges(params):
        lower, upper = edge_labels(labels, r, s)
        # both orders give the lighter endpoint the smaller label, so every
        # (upper, lower) entry lies below the diagonal
        entries.extend(zip(upper, lower, repeat(value)))
        half_bandwidth = max(half_bandwidth, max(map(sub, upper, lower)))
        if kind == "laplacian":
            degree.update(lower)
            degree.update(upper)
    if kind == "laplacian":
        entries.extend((label, label, k) for label, k in degree.items())
    entries.sort()
    return entries, half_bandwidth


def _write_matrix_market(path: str, size: int, entries) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("%%MatrixMarket matrix coordinate integer symmetric\n")
        handle.write(f"{size} {size} {len(entries)}\n")
        for i, j, v in entries:
            handle.write(f"{i} {j} {v}\n")


def _self_test_export(path: str, kind: str, expected_half_bandwidth: int) -> None:
    """Re-read an exported file line by line and check it against the export."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        if not header.startswith("%%MatrixMarket matrix coordinate"):
            raise ValueError(f"{path}: not a coordinate MatrixMarket file")
        line = handle.readline()
        while line.startswith("%"):
            line = handle.readline()
        size, cols, nnz = (int(tok) for tok in line.split())
        if size != cols:
            raise ValueError(f"{path}: expected a square matrix")
        totals = [0] * (size + 1)
        found = 0
        previous = (0, 0)
        half_bandwidth = 0
        for raw in handle:
            raw = raw.strip()
            if not raw:
                continue
            i, j, v = (int(tok) for tok in raw.split())
            if j > i:
                raise InternalInvariantError(f"{path}: entry ({i},{j}) above the diagonal")
            # entries are written sorted, so strictly increasing pairs also
            # rule out duplicates
            if (i, j) <= previous:
                problem = "duplicate" if (i, j) == previous else "out-of-order"
                raise InternalInvariantError(f"{path}: {problem} entry ({i},{j})")
            previous = (i, j)
            found += 1
            totals[i] += v
            if i != j:
                totals[j] += v  # symmetric storage: mirror into the upper half
                half_bandwidth = max(half_bandwidth, i - j)
    if found != nnz:
        raise ValueError(f"{path}: header says {nnz} entries, found {found}")
    if kind == "laplacian" and any(t != 0 for t in totals[1:]):
        raise InternalInvariantError(f"{path}: laplacian row sums are not all zero")
    if half_bandwidth != expected_half_bandwidth:
        raise InternalInvariantError(
            f"{path}: half-bandwidth {half_bandwidth}, "
            f"labeling bandwidth {expected_half_bandwidth}"
        )


def cmd_export_matrix(args) -> int:
    params = _params(args)
    budget = args.budget if args.budget is not None else DEFAULT_EXPORT_BUDGET
    total = params.vertex_count
    if total > budget:
        raise BudgetExceededError(
            f"P_{params.n}^{params.d} has {total} vertices; "
            f"over the export budget ({budget} vertices)",
            budget=budget,
            required=total,
        )
    entries, half_bandwidth = _matrix_entries(params, args.order, args.kind)
    nnz = len(entries)
    _write_matrix_market(args.out, total, entries)
    del entries  # the self-test reads the file back; do not hold both copies
    if args.self_test:
        _self_test_export(args.out, args.kind, half_bandwidth)
    doc = {
        "path": args.out,
        "kind": args.kind,
        "order": args.order,
        "size": total,
        "nnz": nnz,
        "half_bandwidth": half_bandwidth,
    }
    if args.format == "json":
        _emit_json(doc)
    elif args.format == "csv":
        writer = _csv_writer()
        keys = ["path", "kind", "order", "size", "nnz", "half_bandwidth"]
        writer.writerow(keys)
        writer.writerow([doc[key] for key in keys])
    else:
        for key in ("path", "kind", "order", "size", "nnz", "half_bandwidth"):
            print(f"{key} {doc[key]}")
    return EXIT_OK


def cmd_verify_optimal(args) -> int:
    params = _params(args)
    budget = SearchBudget(
        max_nodes=args.budget if args.budget is not None else DEFAULT_NODE_BUDGET,
        time_limit=args.time_limit,
    )
    check = verify_optimal(params, budget, use_formula_bound=not args.no_accelerate)
    cert = check.certificate
    if check.result is None:
        verdict = "inconclusive"
        exit_code = EXIT_BUDGET
    elif check.result:
        verdict = "verified"
        exit_code = EXIT_OK
    else:
        verdict = "mismatch"
        exit_code = EXIT_INTERNAL
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(certificate_to_text(cert))
    doc = {
        "n": params.n,
        "d": params.d,
        "verdict": verdict,
        "formula": check.formula_value,
        "brute_force": cert.optimal_value,
        "status": cert.status,
        "nodes": cert.nodes_explored,
    }
    if args.format == "json":
        _emit_json(doc)
    elif args.format == "csv":
        writer = _csv_writer()
        keys = ["n", "d", "verdict", "formula", "brute_force", "status", "nodes"]
        writer.writerow(keys)
        writer.writerow([doc[key] for key in keys])
    else:
        for key in ("verdict", "formula", "brute_force", "status", "nodes"):
            print(f"{key} {doc[key]}")
    return exit_code


# ------------------------------------------------------------- parser


def _add_common(sub, n_required=True, d_required=True):
    sub.add_argument("--n", type=int, required=n_required, help="edges per path factor")
    sub.add_argument("--d", type=int, required=d_required, help="number of factors")
    sub.add_argument(
        "--format", choices=["plain", "json", "csv"], default="plain",
        help="output format (default plain)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridband",
        description="Bandwidth of d-fold products of paths: exact values, "
        "labelings, bounds, asymptotics, and brute-force certification.",
    )
    subparsers = parser.add_subparsers(dest="command", parser_class=_Parser)

    sub = subparsers.add_parser("coeffs", help="coefficient row of (1+x+...+x^n)^d")
    _add_common(sub)
    sub.set_defaults(func=cmd_coeffs)

    sub = subparsers.add_parser("bw", help="bandwidth by formula, edge scan, or search")
    _add_common(sub)
    sub.add_argument(
        "--method",
        choices=["formula", "hales-scan", "lex", "brute"],
        default="formula",
    )
    sub.add_argument(
        "--budget", type=int, default=None,
        help="scan budget in vertices, or search budget in nodes for --method brute",
    )
    sub.add_argument("--time-limit", type=float, default=None,
                     help="wall-clock limit in seconds for --method brute")
    sub.add_argument("--no-accelerate", action="store_true",
                     help="start the search from the trivial bound, not the formula")
    sub.add_argument("--out", default=None,
                     help="write the brute-force certificate to this file")
    sub.set_defaults(func=cmd_bw)

    sub = subparsers.add_parser("table", help="bandwidth table for n=1..N, d=1..D")
    _add_common(sub)
    sub.set_defaults(func=cmd_table)

    sub = subparsers.add_parser("label", help="full labeling listing in label order")
    _add_common(sub)
    sub.add_argument("--order", choices=["hales", "lex"], default="hales")
    sub.add_argument("--budget", type=int, default=None,
                     help=f"max output lines (default {DEFAULT_LABEL_BUDGET})")
    sub.set_defaults(func=cmd_label)

    sub = subparsers.add_parser("rank", help="1-based label of a vertex")
    _add_common(sub)
    sub.add_argument("--order", choices=["hales", "lex"], default="hales")
    sub.add_argument("vertex", help="comma-separated coordinates, e.g. 1,0,2")
    sub.set_defaults(func=cmd_rank)

    sub = subparsers.add_parser("unrank", help="vertex at a 0-based rank")
    _add_common(sub)
    sub.add_argument("--order", choices=["hales", "lex"], default="hales")
    sub.add_argument("rank", type=int, help="0-based rank (label minus one)")
    sub.set_defaults(func=cmd_unrank)

    sub = subparsers.add_parser("bounds", help="central-coefficient bracket")
    _add_common(sub)
    sub.set_defaults(func=cmd_bounds)

    sub = subparsers.add_parser("ratio", help="bw_hales/bw_lex for d = 1..D")
    _add_common(sub)
    sub.set_defaults(func=cmd_ratio)

    sub = subparsers.add_parser("estimate", help="normal-peak estimate of the upper bound")
    _add_common(sub)
    sub.set_defaults(func=cmd_estimate)

    sub = subparsers.add_parser("export-matrix", help="write adjacency or Laplacian "
                                "in MatrixMarket coordinate format")
    _add_common(sub)
    sub.add_argument("--order", choices=["hales", "lex"], default="hales")
    sub.add_argument("--kind", choices=["adjacency", "laplacian"], default="laplacian")
    sub.add_argument("--out", required=True, help="output path")
    sub.add_argument("--budget", type=int, default=None,
                     help=f"max vertices (default {DEFAULT_EXPORT_BUDGET})")
    sub.add_argument("--self-test", action="store_true",
                     help="re-read the file and verify row sums, symmetry, half-bandwidth")
    sub.set_defaults(func=cmd_export_matrix)

    sub = subparsers.add_parser("verify-optimal",
                                help="prove the formula optimal by exhaustive search")
    _add_common(sub)
    sub.add_argument("--budget", type=int, default=None,
                     help=f"search budget in nodes (default {DEFAULT_NODE_BUDGET})")
    sub.add_argument("--time-limit", type=float, default=None)
    sub.add_argument("--no-accelerate", action="store_true")
    sub.add_argument("--out", default=None,
                     help="write the certificate to this file")
    sub.set_defaults(func=cmd_verify_optimal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"gridband: error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalInvariantError as exc:
        print(f"gridband: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError) as exc:
        print(f"gridband: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
