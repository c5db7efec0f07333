"""Smoke runs of the demos, each in a fresh interpreter."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_encode_demo_prints_derived_labels():
    # the node labels are read from the columns on each call, never stored
    result = run_demo("01_encode_database.py")
    assert result.returncode == 0, result.stderr
    assert "{1: (1, 5), 2: (3, 3)}" in result.stdout


def test_mining_demo_runs():
    result = run_demo("02_constrained_mining.py")
    assert result.returncode == 0, result.stderr


def test_clickstream_benchmark_agrees_with_raw_projection():
    # the demo asserts that mine and mine_ppcc agree on each scenario
    result = run_demo("03_clickstream_benchmark.py")
    assert result.returncode == 0, result.stderr
    assert [line.split(":")[0] for line in result.stdout.splitlines()
            if line.startswith("scenario")] == ["scenario 1", "scenario 2", "scenario 3"]
