"""One benchmark job, run in a fresh single-threaded process.

Usage: ``python3 worker.py <query|traced|reference> '<json arguments>'``
with the package sources on ``PYTHONPATH``.  The job prints one JSON object
on its last line of output.  An exception ends the process with a traceback
and a non-zero status, which the harness counts as a failed job.

* ``query``: load the database, then build, propagate and mine, untraced.
  These are the end-to-end times.
* ``traced``: the same calls inside spans, plus ``propagate`` on each
  information kind's subset of the spec list and, when asked, the ``ppcc``
  oracle on the same input.
* ``reference``: the reference output for a seed, from ``mine_ppcc`` on
  the full input, and whether the diagram miner agrees with
  ``mine_bruteforce`` on a reduced copy.  Query jobs then check the
  diagram miner against that output.
"""
from __future__ import annotations

import json
import resource
import sys
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

from mddmine import (
    GE,
    Kind,
    MiningCounters,
    attach_attributes,
    build_mdd,
    mine,
    mine_bruteforce,
    mine_mpp,
    mine_ppcc,
    parse_attribute_tsv,
    parse_constraint,
    parse_spmf,
    propagate,
)

from tracing import TracedMppMiner, Tracer
from workloads import REDUCED_THETA, WORKLOADS, reduced_copy, sha256_text

#: information kinds, by the constraint kinds whose information they are
INFO_KINDS = {
    "span": lambda s: s.kind in (Kind.SPAN, Kind.MAX, Kind.MIN),
    "sum": lambda s: s.kind is Kind.SUM,
    "avg": lambda s: s.kind is Kind.AVG,
    "med": lambda s: s.kind is Kind.MED,
    "maxlen": lambda s: s.kind is Kind.LENGTH and s.direction == GE,
}


def peak_rss_bytes() -> int:
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def load_db(args):
    """What ``mddmine mine`` does before mining: read, parse and attach."""
    base = parse_spmf(Path(args["spmf"]).read_text())
    table = parse_attribute_tsv(Path(args["tsv"]).read_text())
    return attach_attributes(base, table, ordering_attribute="time")


def _setting(args, db):
    workload = WORKLOADS[args["workload"]]
    specs = tuple(parse_constraint(t) for t in workload.constraints)
    return specs, workload.theta(len(db))


def query_job(args) -> dict:
    t0 = perf_counter()
    db = load_db(args)
    t1 = perf_counter()
    specs, theta = _setting(args, db)
    counters = MiningCounters()
    t2 = perf_counter()
    mdd = build_mdd(db, specs)
    store = propagate(mdd, db, specs)
    t3 = perf_counter()
    patterns = mine(mdd, store, db, specs, theta, counters=counters, threads=1)
    t4 = perf_counter()
    rss = peak_rss_bytes()
    return {
        "setup_s": t1 - t0,
        "index_s": t3 - t2,
        "mine_s": t4 - t3,
        "query_s": t4 - t2,
        "peak_rss_mb": rss / 2**20,
        "sha256": sha256_text(patterns.render()),
        "patterns": len(patterns),
        "counters": asdict(counters),
    }


def traced_load(span, args):
    """``load_db`` with each call in a span; the texts die on return, as there."""
    spmf_text = Path(args["spmf"]).read_text()
    with span("seqdb.parse_spmf"):
        base = parse_spmf(spmf_text)
    tsv_text = Path(args["tsv"]).read_text()
    with span("seqdb.parse_attribute_tsv"):
        table = parse_attribute_tsv(tsv_text)
    with span("seqdb.attach_attributes"):
        return attach_attributes(base, table, ordering_attribute="time")


def traced_job(args) -> dict:
    tracer = Tracer(args["run_id"])
    span = tracer.span
    with span("bench.load"):
        rss0 = peak_rss_bytes()
        db = traced_load(span, args)
        rss1 = peak_rss_bytes()
    specs, theta = _setting(args, db)
    counters = MiningCounters()
    with span("bench.query"):
        with span("mdd.build_mdd"):
            mdd = build_mdd(db, specs)
        with span("nodeinfo.propagate"):
            store = propagate(mdd, db, specs)
        with span("miner.mine"):
            miner = TracedMppMiner(tracer, mdd, store, db, specs, theta,
                                   counters=counters)
            patterns = miner.mine_patterns()
    for kind, selects in INFO_KINDS.items():
        subset = [s for s in specs if selects(s)]
        with span(f"nodeinfo.propagate.{kind}"):
            propagate(mdd, db, subset)
    events = sum(len(seq) for seq in db.sequences)
    arcs = sum(len(nexts) for rows in mdd.succ for nexts in rows)
    times = tracer.totals()
    out = {
        "mine_s": times["miner.mine"],
        "theta": theta,
        "sha256": sha256_text(patterns.render()),
        "counters": asdict(counters),
        "events": events,
        "arcs": arcs,
        "rss_growth_bytes": rss1 - rss0,
        "times": times,
        "extend_calls": len(tracer.durations("miner.extend")),
        "self_s": tracer.self_times("bench.load", "bench.query"),
    }
    if args.get("oracle"):
        ppcc_counters = MiningCounters()
        with span("oracle.mine_ppcc"):
            ppcc = mine_ppcc(db, specs, theta, counters=ppcc_counters)
        out["oracle"] = {
            "mine_ppcc_s": tracer.totals()["oracle.mine_ppcc"],
            "sha256": sha256_text(ppcc.render()),
            "counters": asdict(ppcc_counters),
        }
    out["spans"] = len(tracer.spans)
    out["span_cost_s"] = out["spans"] * _empty_span_seconds()
    tracer.write(Path(args["trace_path"]))
    return out


def _empty_span_seconds(n: int = 10_000) -> float:
    """Cost of recording one span, from spans that wrap nothing."""
    probe = Tracer("probe")
    t0 = perf_counter()
    for _ in range(n):
        with probe.span("probe"):
            pass
    return (perf_counter() - t0) / n


def reference_job(args) -> dict:
    db = load_db(args)
    specs, theta = _setting(args, db)
    ppcc = mine_ppcc(db, specs, theta)
    reduced = reduced_copy(db)
    brute = mine_bruteforce(reduced, specs, REDUCED_THETA)
    return {
        "sha256": sha256_text(ppcc.render()),
        "patterns": len(ppcc),
        "brute_agrees": mine_mpp(reduced, specs, REDUCED_THETA) == brute,
        "brute_patterns": len(brute),
    }


JOBS = {"query": query_job, "traced": traced_job, "reference": reference_job}

if __name__ == "__main__":
    mode, raw = sys.argv[1], sys.argv[2]
    print(json.dumps(JOBS[mode](json.loads(raw))))
