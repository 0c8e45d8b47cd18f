"""Self-check of the benchmark (about two minutes on two CPUs).

    python3 -m pytest -q perfbench/test_selfcheck.py

Traced runs of one commit must give identical exact counters, the quintic
pair must keep its known sizes, and the benchmark must refuse to run where
there are no sources.
"""

import json
import shutil
import subprocess
import sys
import time

import run
import spans

QUINTIC_PAIR = run.QUINTIC_PAIR
TIMES = ("self_s", "overhead_s")


def counters(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items()
            if not name.endswith(TIMES)}


def traced_pair(runner: run.Runner) -> tuple[dict, dict]:
    trace_file = run.WORK / "selfcheck-spans.json"
    outcome = runner.run(QUINTIC_PAIR, trace_file)
    golden = json.loads(run.GOLDENS.read_text())["ops"][QUINTIC_PAIR.name]
    assert outcome.matches(golden), outcome.stderr.decode()
    layer = spans.summarize([json.loads(trace_file.read_text())["spans"]])
    trace_file.unlink()
    return json.loads(outcome.stdout), layer


def test_quintic_anchors_and_repeatable_counters():
    runner = run.Runner(time.monotonic() + 600)
    summary, first = traced_pair(runner)
    _, second = traced_pair(runner)
    assert counters(first) == counters(second)

    assert summary["source_sectors"] == 25
    assert summary["mirror_sectors"] == 3125
    assert summary["source_entries"] == summary["mirror_entries"] == 2080
    assert summary["pair_duality"]["passed"] and summary["lg_mirror"]["passed"]
    assert first["milnor.equivariant_hilbert.calls"] == 3150
    assert first["milnor.equivariant_hilbert.distinct_fixed_sets"] == 32
    assert first["milnor.equivariant_hilbert.series_terms"] == 34848
    assert first["statespace.build_state_space.entries"] == 2 * 2080
    assert first["statespace.build_state_space.sectors"] == 25 + 3125


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_benchmark_counters_repeat():
    first = bench("cli-oneshot", 1, trace=1)
    second = bench("cli-oneshot", 2, trace=1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.per_layer_units())
    assert counters({k: v["value"] for k, v in first["metrics"].items()}) == \
        counters({k: v["value"] for k, v in second["metrics"].items()})


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "octic-pair",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
