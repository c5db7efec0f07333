"""The package surface the benchmark's worker calls, run in-process.

``perfbench/worker.py`` loads, indexes and mines through the package's
public names.  A change under ``src/`` that breaks those calls fails here,
at test time, rather than only when the benchmark runs.
"""
import sys
from dataclasses import fields
from pathlib import Path

from mddmine import MiningCounters, mine_ppcc

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
from workloads import WORKLOADS, ensure_inputs, family_at, sha256_text  # noqa: E402


def test_query_job_on_smoke_inputs(tmp_path):
    workload = WORKLOADS["clicks-s3"]
    inputs = ensure_inputs(tmp_path, family_at(workload.family, "smoke"), 1, "smoke")
    args = {"workload": workload.name, "spmf": str(inputs.spmf), "tsv": str(inputs.tsv)}
    out = worker.query_job(args)
    assert {"setup_s", "index_s", "mine_s", "query_s", "peak_rss_mb"} <= set(out)
    assert set(out["counters"]) == {f.name for f in fields(MiningCounters)}
    assert out["patterns"] > 0
    db = worker.load_db(args)
    specs, theta = worker._setting(args, db)
    assert out["sha256"] == sha256_text(mine_ppcc(db, specs, theta).render())
