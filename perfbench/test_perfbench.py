"""Smoke runs of every workload at reduced size, traced and untraced.

Run with:  python3 -m pytest -q perfbench
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_traced_and_untraced(workload, tmp_path):
    common = ("--workload", workload, "--seed", "3", "--seconds", "0",
              "--size", "smoke", "--work-dir", str(tmp_path))
    # the traced run compares its counters with those the untraced run cached
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        result = result_of(bench(ROOT, *common, "--trace", trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, result
        assert result["failed"] == 0
        assert result["attempted"] >= 3
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = result["metrics"]
    assert metrics["oracle.agrees"]["value"] == 1.0
    assert metrics["oracle.check_ratio"]["value"] <= 1.0
    assert len(list((tmp_path / "traces").iterdir())) >= 2


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOAD_NAMES[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_children():
    tracer = Tracer("t")
    with tracer.span("bench.query"):
        with tracer.span("miner.mine"):
            with tracer.span("miner.extend"):
                pass
            with tracer.span("nodeinfo.admit"):
                pass
    by_layer = tracer.self_times("bench.query")
    mine, = tracer.durations("miner.mine")
    admit, = tracer.durations("nodeinfo.admit")
    assert by_layer["nodeinfo"] == pytest.approx(admit)
    assert by_layer["miner"] == pytest.approx(mine - admit)
