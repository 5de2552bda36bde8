"""Self-check of the benchmark at tiny size (about two minutes in all).

    python3 -m pytest -q bench/test_bench.py

Every workload runs for one second (ladder and third-party run one whole
pass).  The checks: the last line is the result object, every end-to-end
metric named in BENCHMARK.json is printed with its unit, sweep and ladder
fail nothing, two third-party runs of one seed attempt and fail the same
operations, the traced run prints every per-layer metric, and the benchmark
refuses to run without the package sources.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "7", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def result_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1
    return lines[:-1], result


def assert_printed(lines, result, declared):
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), f"{name} not printed with {unit}"
    assert set(result["metrics"]) == {m["name"] for m in declared}


# cli is run by hand, not by BENCHMARK.json; its metrics are checked too
@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]] + ["cli"])
def test_end_to_end_metrics(workload):
    lines, result = result_of(run(workload, 0))
    assert_printed(lines, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload in ("sweep", "ladder"):
        assert result["failed"] == 0  # fail_ratio == 0


def test_third_party_failures_depend_only_on_the_seed():
    first, second = (result_of(run("third-party", 0))[1] for _ in range(2))
    assert (first["attempted"], first["failed"]) == (
        second["attempted"], second["failed"])


def test_traced_run_prints_per_layer_metrics():
    lines, result = result_of(run("sweep", 1))
    assert_printed(lines, result, SPEC["per_layer"])
    assert result["metrics"]["classify.calls"]["value"] == 17589


def test_refuses_to_run_without_sources():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run("sweep", 0, root=bare)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(bare)
