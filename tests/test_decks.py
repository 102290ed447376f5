"""The benchmark decks' argv parse as the CLI reads them: an op whose flag
the parser no longer knows would count as a failed op in the benchmark."""

import importlib.util
from pathlib import Path

import gridband.cli as cli

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_deck_op_parses_to_its_command():
    decks = _workloads().DECKS
    ops = [op for workload in ("closed-form", "scan", "search") for seed in (1, 2)
           for op in decks[workload](seed)]
    assert ops
    for op in ops:
        assert cli.parse_args(op["argv"]).command == op["cmd"], op["argv"]
