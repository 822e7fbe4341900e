"""Smoke test of the benchmark: every workload at tiny size, plain and traced.

Each run must verify its outputs and print, as its last line, exactly the
metrics ``BENCHMARK.json`` names, each with its unit, and count attempted and
failed requests the same way however long it runs.  A copy of the
benchmark without the program's sources must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, group):
    done = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
        "--trace", str(trace), "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_counts_depend_on_the_seed_alone():
    """A longer run visits the corpus more often but counts it once."""
    counts = []
    for seconds in ("0.2", "1.5"):
        done = _run(
            ROOT, "--workload", "arithmetic", "--seed", "3", "--seconds", seconds,
            "--trace", "0", "--smoke",
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
    assert counts[0] == counts[1]


def test_without_sources_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "arithmetic", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
