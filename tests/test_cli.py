"""Command-line surface: rendering, determinism, exit codes, file export."""

import csv
import io
import json

import pytest

import gridband.cli as cli
import gridband.hales as hales
import gridband.oracle as oracle
from gridband.cli import main
from gridband.coeffs import trinomial_coeff
from gridband.grid import InternalInvariantError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_plain(capsys):
    code, out, _ = run(capsys, "coeffs", "--n", "2", "--d", "3")
    assert code == 0
    assert out == "1 3 6 7 6 3 1\n"


def test_coeffs_on_deep_cold_rows(capsys, cold_rows):
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


def test_bw_formula(capsys):
    code, out, _ = run(capsys, "bw", "--n", "2", "--d", "3", "--method", "formula")
    assert code == 0
    assert out.splitlines() == ["value 8", "method formula"]


def test_bw_lex_scan(capsys):
    code, out, _ = run(capsys, "bw", "--n", "2", "--d", "3", "--method", "lex")
    assert code == 0
    assert "value 9" in out.splitlines()[0]


def test_bw_hales_scan_agrees_with_formula(capsys):
    code, out, _ = run(capsys, "bw", "--n", "3", "--d", "3", "--method", "hales-scan")
    assert code == 0
    assert out.splitlines()[0] == "value 14"


def test_bw_brute(capsys):
    code, out, _ = run(capsys, "bw", "--n", "2", "--d", "2", "--method", "brute")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value 3"
    assert "status proved" in lines


def test_bw_brute_writes_certificate(capsys, tmp_path):
    path = tmp_path / "cert.tsv"
    code, out, _ = run(
        capsys, "bw", "--n", "1", "--d", "2", "--method", "brute",
        "--no-accelerate", "--out", str(path),
    )
    assert code == 0
    assert out.splitlines()[0] == "value 2"
    assert path.read_text(encoding="utf-8").startswith("# bandwidth 2\n")


def test_bw_brute_budget_exhausted_exits_2(capsys):
    code, out, _ = run(
        capsys, "bw", "--n", "2", "--d", "2", "--method", "brute", "--budget", "5",
    )
    assert code == 2
    assert "status budget-exhausted" in out


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


def test_invariant_failures_exit_3(capsys, monkeypatch):
    # a starting incumbent below the optimum leaves the search with no labeling
    monkeypatch.setattr(oracle, "bw_hales", lambda n, d: 0)
    code, _, err = run(capsys, "bw", "--n", "2", "--d", "2", "--method", "brute")
    assert code == 3
    assert "internal error" in err
    # weight classes too small to hold the rank leave unrank without a vertex
    monkeypatch.setattr(hales, "coeff", lambda n, d, k: 0)
    code, _, err = run(capsys, "unrank", "--n", "2", "--d", "2", "4")
    assert code == 3
    assert "internal error" in err


def test_table_plain_and_note(capsys):
    code, out, _ = run(capsys, "table", "--n", "2", "--d", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d\tn=1\tn=2"
    assert lines[3] == "3\t4\t8"
    column_n2 = [line.split("\t")[2] for line in lines[1:6]]
    assert column_n2 == ["1", "3", "8", "21", "56"]
    assert lines[-1].startswith("note: n=1 column")


def test_table_json_round_trip(capsys):
    code, out, _ = run(capsys, "table", "--n", "3", "--d", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][2] == [4, 8, 14]
    assert json.dumps(doc, sort_keys=True) + "\n" == out


def test_label_hales(capsys):
    code, out, _ = run(capsys, "label", "--n", "2", "--d", "2", "--order", "hales")
    assert code == 0
    assert out.splitlines() == [
        "0,0\t1", "0,1\t2", "1,0\t3", "0,2\t4", "1,1\t5",
        "2,0\t6", "1,2\t7", "2,1\t8", "2,2\t9",
    ]


def test_label_lex(capsys):
    code, out, _ = run(capsys, "label", "--n", "2", "--d", "2", "--order", "lex")
    assert code == 0
    assert out.splitlines()[:4] == ["0,0\t1", "0,1\t2", "0,2\t3", "1,0\t4"]


def test_label_budget_exit(capsys):
    code, _, err = run(capsys, "label", "--n", "2", "--d", "8", "--budget", "100")
    assert code == 2
    assert "budget" in err


def test_rank_examples(capsys):
    code, out, _ = run(capsys, "rank", "--n", "2", "--d", "2", "--order", "hales", "1,1")
    assert (code, out) == (0, "5\n")
    code, out, _ = run(capsys, "rank", "--n", "2", "--d", "2", "--order", "hales", "0,0")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "rank", "--n", "2", "--d", "2", "--order", "lex", "1,1")
    assert (code, out) == (0, "5\n")


def test_unrank_takes_zero_based_rank(capsys):
    code, out, _ = run(capsys, "unrank", "--n", "2", "--d", "2", "--order", "hales", "1")
    assert (code, out) == (0, "0,1\n")
    code, out, _ = run(capsys, "unrank", "--n", "2", "--d", "2", "--order", "hales", "0")
    assert (code, out) == (0, "0,0\n")
    code, out, _ = run(capsys, "unrank", "--n", "2", "--d", "3", "--order", "lex", "26")
    assert (code, out) == (0, "2,2,2\n")


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


def test_estimate_json_round_trip(capsys):
    code, out, _ = run(capsys, "estimate", "--n", "1", "--d", "9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == 252
    assert round(doc["estimate"], 2) == 258.37
    assert json.dumps(doc, sort_keys=True) + "\n" == out


def test_outputs_are_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "table", "--n", "8", "--d", "11", "--format", "csv")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_export_adjacency_tiny(capsys, tmp_path):
    path = tmp_path / "p11.mtx"
    code, out, _ = run(
        capsys, "export-matrix", "--n", "1", "--d", "1", "--order", "hales",
        "--kind", "adjacency", "--out", str(path), "--self-test",
    )
    assert code == 0
    assert path.read_text(encoding="utf-8") == (
        "%%MatrixMarket matrix coordinate integer symmetric\n"
        "2 2 1\n"
        "2 1 1\n"
    )


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


MM_HEADER = "%%MatrixMarket matrix coordinate integer symmetric\n"


@pytest.mark.parametrize(
    "body,error",
    [
        ("2 2 4\n1 1 1\n2 1 -1\n2 1 -1\n2 2 1\n", InternalInvariantError),
        ("2 2 3\n1 1 1\n1 2 -1\n2 2 1\n", InternalInvariantError),
        ("2 2 4\n1 1 1\n2 1 -1\n2 2 1\n", ValueError),
        ("2 2 3\n1 1 1\n2 1 -1\n2 2 2\n", InternalInvariantError),
        ("2 2 3\n2 1 -1\n1 1 1\n2 2 1\n", InternalInvariantError),
    ],
    ids=["duplicate", "above-diagonal", "wrong-nnz", "row-sum", "out-of-order"],
)
def test_self_test_rejects_bad_export(tmp_path, body, error):
    # each file is the P_1^1 Laplacian (half-bandwidth 1) with one defect
    path = tmp_path / "bad.mtx"
    path.write_text(MM_HEADER + body, encoding="utf-8")
    with pytest.raises(error):
        cli._self_test_export(str(path), "laplacian", 1)


def test_export_budget_exit(capsys, tmp_path):
    code, _, err = run(
        capsys, "export-matrix", "--n", "2", "--d", "2",
        "--out", str(tmp_path / "x.mtx"), "--budget", "4",
    )
    assert code == 2
    assert "budget" in err


def test_export_unwritable_path(capsys, tmp_path):
    code, _, err = run(
        capsys, "export-matrix", "--n", "1", "--d", "1",
        "--out", str(tmp_path / "missing" / "x.mtx"),
    )
    assert code == 1
    assert "error" in err


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


def test_verify_optimal_inconclusive_exit(capsys):
    code, out, _ = run(
        capsys, "verify-optimal", "--n", "2", "--d", "2", "--budget", "5",
    )
    assert code == 2
    assert "inconclusive" in out


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
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
