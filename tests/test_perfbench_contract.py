"""The package surface the benchmark's worker calls, run in-process.

``perfbench/worker.py`` loads, indexes and mines through the package's
public names.  A change under ``src/`` that breaks those calls fails here,
at test time, rather than only when the benchmark runs.
"""
import sys
from dataclasses import fields
from pathlib import Path

from mddmine import MiningCounters, build_mdd, mine_ppcc

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
from workloads import WORKLOADS, ensure_inputs, family_at, sha256_text  # noqa: E402


def _smoke_args(tmp_path, workload):
    inputs = ensure_inputs(tmp_path, family_at(workload.family, "smoke"), 1, "smoke")
    return {"workload": workload.name, "spmf": str(inputs.spmf), "tsv": str(inputs.tsv)}


def test_query_job_on_smoke_inputs(tmp_path):
    args = _smoke_args(tmp_path, WORKLOADS["clicks-s3"])
    out = worker.query_job(args)
    assert {"setup_s", "index_s", "mine_s", "query_s", "peak_rss_mb"} <= set(out)
    assert set(out["counters"]) == {f.name for f in fields(MiningCounters)}
    assert out["patterns"] > 0
    db = worker.load_db(args)
    specs, theta = worker._setting(args, db)
    assert out["sha256"] == sha256_text(mine_ppcc(db, specs, theta).render())


def test_traced_job_counts_what_the_query_job_counts(tmp_path):
    # the traced run mines through perfbench's MppMiner subclass, which
    # must count and emit exactly what the package's mine does
    for name, workload in WORKLOADS.items():
        args = _smoke_args(tmp_path, workload)
        query = worker.query_job(args)
        traced = worker.traced_job({**args, "oracle": True, "run_id": name,
                                    "trace_path": str(tmp_path / f"{name}.jsonl")})
        assert traced["counters"] == query["counters"], name
        assert traced["sha256"] == query["sha256"] == traced["oracle"]["sha256"], name
        assert query["patterns"] > 0, name


def test_workload_diagrams_store_windows(tmp_path):
    # every benchmark workload imposes gap bounds on the ordering attribute
    # only, so each successor row must stay a window and never be copied
    for name, workload in WORKLOADS.items():
        args = _smoke_args(tmp_path, workload)
        db = worker.load_db(args)
        specs, _ = worker._setting(args, db)
        mdd = build_mdd(db, specs)
        windows = [row for rows in mdd.succ for row in rows]
        assert all(type(row) is range for row in windows), name
        # one object per distinct window, however many events share it
        ends = {(row.start, row.stop) for row in windows}
        assert len({id(row) for row in windows}) == len(ends) < len(windows), name
        assert all(starts == range(len(seq))
                   for starts, seq in zip(mdd.starts, db.sequences)), name
