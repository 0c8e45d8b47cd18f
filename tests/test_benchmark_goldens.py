"""Every operation the benchmark pins in perfbench/goldens.json, run in process.

perfbench runs each operation in a fresh interpreter and checks its exit
status, error code and stdout digest against the goldens; a mismatch makes
the benchmark run fail.  This runs the same operations through
`bhmirror.cli.main` and `child.run_pair`, with each operation's environment,
and judges them with the benchmark's own `Outcome.matches`.  perfbench is
only read: its modules are loaded from their files, without writing
bytecode, and nothing under it is changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(monkeypatch, name):
    """perfbench/<name>.py as module `name` until the test ends: run.py
    imports `spans` by that name, and its dataclasses look their module up."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_operations_match_their_goldens(monkeypatch, capsys):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    _load(monkeypatch, "spans")
    run, child = _load(monkeypatch, "run"), _load(monkeypatch, "child")
    from bhmirror.cli import main

    ops = [op for workload in run.WORKLOADS.values() for op in workload] + [run.QUINTIC_PAIR]
    goldens = json.loads((PERFBENCH / "goldens.json").read_text())["ops"]
    assert len(ops) == 21 and {op.name for op in ops} == goldens.keys()

    monkeypatch.chdir(ROOT)  # the verify operation names its catalog relative to the root
    mismatches = []
    for op in ops:
        with monkeypatch.context() as env:
            env.delenv("BHMIRROR_MAX_GROUP", raising=False)
            for name, value in op.env:
                env.setenv(name, value)
            status = main(list(op.argv)) if op.kind == "cli" else child.run_pair(*op.argv)
        out, err = capsys.readouterr()
        outcome = run.Outcome(op, status, out.encode(), err.encode(), 0.0, 0)
        if not outcome.matches(goldens[op.name]):
            mismatches.append((op.name, outcome.record(), err[-500:]))
    assert not mismatches


def test_benchmark_command_lines_are_read_without_argparse(monkeypatch):
    # every command line the benchmark times is well formed, so `main` reads
    # it off the grammar and never imports argparse for it
    _load(monkeypatch, "spans")
    run = _load(monkeypatch, "run")
    from bhmirror import cli

    for op in (*run.ACCEPTED, *run.REJECTS, *run.VERIFY):
        read = cli._read_argv(list(op.argv))
        assert read is not None, op.name
        assert vars(read) == vars(cli.build_parser().parse_args(list(op.argv))), op.name
