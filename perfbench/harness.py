"""Run one workload: prepare inputs and references, spawn jobs, check, report.

Every job is a fresh ``worker.py`` process, so each measures a cold start as
``mddmine mine`` pays it and reports its own peak RSS.  Jobs repeat until
``--seconds`` have passed (at least ``MIN_REPS`` times); each timing is the
median over the jobs of the run.

Correctness checks, each failing the job it concerns:

* the rendered output hashes to the reference for the workload and seed,
  taken from ``references.json`` or established by a ``reference`` job
  (``mine_ppcc`` on the full input, and the diagram miner against
  ``mine_bruteforce`` on a reduced copy) and cached in the work directory;
* the counters equal those of every earlier job of the same program
  sources on the same seed in this work directory, traced or not;
* in the traced run, ``mddmine mine --report`` on the same files writes the
  reference output and reports the library's counters.
"""
from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, digest, ensure_inputs, family_at, sha256_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
REFERENCES = HERE / "references.json"

MIN_REPS = 3
MIN_TRACED_PAIRS = 2
#: a run starts no job after this long, and no job outlives it by more than
#: JOB_GRACE_S, so that a run ends within 180 s
DEADLINE_S = 140.0
JOB_GRACE_S = 20.0
#: the counters ``mddmine mine --report`` writes, named as in MiningCounters
REPORT_COUNTERS = (
    "nodes_visited", "entries_created", "scanned_sequences", "constraint_checks",
    "info_probes", "patterns_emitted", "peak_entries",
)


def source_digest() -> str:
    """Identifies the package sources, so counters compare within one version."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mddmine").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Run:
    """Job bookkeeping for one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.family = family_at(self.workload.family, args.size)
        self.work_dir = args.work_dir.resolve()
        self.tag = f"{args.size}-{args.workload}-seed{args.seed}"
        self.started = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def remaining(self) -> float:
        return DEADLINE_S - (perf_counter() - self.started)

    def spawn(self, label: str, command: list[str]):
        """Run one job process; None (counted as failed) if it fails or hangs."""
        self.attempted += 1
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(self.remaining(), 0.0) + JOB_GRACE_S,
            )
        except subprocess.TimeoutExpired:
            self.fail(f"{label}: timed out")
            return None
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            self.fail(f"{label}: exit {proc.returncode}: {last}")
            return None
        return proc

    def job(self, mode: str, **extra) -> dict | None:
        args = {"workload": self.args.workload, **extra}
        proc = self.spawn(mode, [sys.executable, str(WORKER), mode, json.dumps(args)])
        return None if proc is None else json.loads(proc.stdout.splitlines()[-1])

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


# --- references -----------------------------------------------------------------

class Reference:
    """The expected output hash, and the counters seen so far per source version.

    Cached in the work directory under a name that changes with the workload
    definition; ``path`` is None for a reference that must be established
    again next time.
    """

    def __init__(self, sha256: str, counters: dict, path: Path | None):
        self.sha256 = sha256
        self.counters = counters
        self.path = path

    def save(self) -> None:
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + f".tmp{os.getpid()}")
        tmp.write_text(json.dumps({"sha256": self.sha256, "counters": self.counters},
                                  indent=1, sort_keys=True) + "\n")
        tmp.replace(self.path)


def _committed(run: Run) -> str | None:
    if run.args.size != "full":
        return None
    table = json.loads(REFERENCES.read_text())
    return table.get(run.args.workload, {}).get(str(run.args.seed))


def reference(run: Run, files: dict) -> Reference | None:
    """The reference for this workload and seed; None if none could be set."""
    name = f"{run.tag}-{digest(run.workload, run.family)}.json"
    path = run.work_dir / "refs" / name
    if path.exists():
        cached = json.loads(path.read_text())
        return Reference(cached["sha256"], cached["counters"], path)
    committed = _committed(run)
    if committed is not None:
        ref = Reference(committed, {}, path)
    else:
        res = run.job("reference", **files)
        if res is None:
            return None
        ref = Reference(res["sha256"], {}, path)
        if not res["brute_agrees"]:
            run.fail("reference: mpp and brute force disagree on the reduced copy")
            ref.path = None
    ref.save()
    return ref


def verify(run: Run, result: dict, ref: Reference | None, version: str,
           what: str) -> None:
    """Check one job's output and counters; fail the job on any mismatch."""
    problems = []
    if ref is None:
        problems.append("no reference output")
    elif result["sha256"] != ref.sha256:
        problems.append("output hash differs from the reference")
    elif version not in ref.counters:
        ref.counters[version] = result["counters"]
        ref.save()
    elif result["counters"] != ref.counters[version]:
        problems.append("counters differ from an earlier job on this seed")
    if problems:
        run.fail(f"{what}: " + "; ".join(problems))


# --- runs -------------------------------------------------------------------------

def _summary(name: str, values, unit: str) -> str:
    return (f"  {name:<34} median {statistics.median(values):12.6g} {unit:<10} "
            f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")


def _attempts(run: Run, minimum: int):
    """Attempt numbers until the run's seconds are spent and ``minimum`` made."""
    t0 = perf_counter()
    n = 0
    while (n < minimum or perf_counter() - t0 < run.args.seconds) and run.remaining() > 0:
        yield n
        n += 1


Metrics = dict[str, tuple[list[float], str]]


def measure(run: Run, files: dict, ref: Reference | None, version: str) -> Metrics:
    """Untraced jobs, repeated for the run's seconds: the end-to-end metrics."""
    reps = []
    for n in _attempts(run, MIN_REPS):
        res = run.job("query", **files)
        if res is not None:
            verify(run, res, ref, version, f"query job {n + 1}")
            reps.append(res)
    if not reps:
        return {}
    units = {"setup_s": "s", "index_s": "s", "mine_s": "s", "query_s": "s",
             "peak_rss_mb": "MB"}
    return {name: ([r[name] for r in reps], unit) for name, unit in units.items()}


def trace(run: Run, files: dict, ref: Reference | None, version: str) -> Metrics:
    """Traced jobs paired with untraced ones, one oracle run and one CLI run."""
    # attempt number -> job result, so that a failed job leaves a gap in the
    # pairs instead of shifting them
    untraced_by_n: dict[int, dict] = {}
    traced_by_n: dict[int, dict] = {}
    for n in _attempts(run, MIN_TRACED_PAIRS):
        # alternate which of the pair runs first, against drift in host speed
        for mode in ("query", "traced") if n % 2 == 0 else ("traced", "query"):
            if mode == "query":
                res = run.job("query", **files)
                if res is not None:
                    verify(run, res, ref, version, "untraced job")
                    untraced_by_n[n] = res
                continue
            res = run.job(
                "traced", **files, oracle=(n == 0), run_id=f"{run.tag}-{n}",
                trace_path=str(run.work_dir / "traces" / f"{run.tag}-{n}.jsonl"),
            )
            if res is not None:
                verify(run, res, ref, version, "traced job")
                traced_by_n[n] = res
    pairs = [(traced_by_n[n], untraced_by_n[n])
             for n in traced_by_n if n in untraced_by_n]
    if not pairs:
        return {}
    traced = list(traced_by_n.values())
    first = traced[0]
    counters = first["counters"]
    out: Metrics = {}

    def put(name, values, unit):
        out[name] = (values if isinstance(values, list) else [values], unit)

    for span in ("seqdb.parse_spmf", "seqdb.parse_attribute_tsv",
                 "seqdb.attach_attributes", "mdd.build_mdd", "nodeinfo.propagate",
                 "nodeinfo.propagate.span", "nodeinfo.propagate.sum",
                 "nodeinfo.propagate.avg", "nodeinfo.propagate.med",
                 "nodeinfo.propagate.maxlen", "miner.root_scan", "miner.extend",
                 "miner.emission"):
        put(f"{span}_s", [t["times"][span] for t in traced], "s")
    put("seqdb.events", first["events"], "count")
    put("seqdb.rss_bytes_per_event",
        [t["rss_growth_bytes"] / t["events"] for t in traced], "B/event")
    put("mdd.arcs", first["arcs"], "count")
    put("mdd.arcs_per_event", first["arcs"] / first["events"], "arcs/event")
    put("nodeinfo.info_probes", counters["info_probes"], "count")
    put("nodeinfo.constraint_checks", counters["constraint_checks"], "count")
    for name in ("nodes_visited", "entries_created", "scanned_sequences",
                 "peak_entries", "patterns_emitted"):
        put(f"miner.{name}", counters[name], "count")
    put("miner.extend_calls", first["extend_calls"], "count")
    put("miner.admit_ratio",
        counters["entries_created"] / max(counters["nodes_visited"], 1), "ratio")
    put("miner.emit_ratio",
        counters["patterns_emitted"] / max(first["extend_calls"], 1), "ratio")
    for layer in ("seqdb", "mdd", "nodeinfo", "miner"):
        put(f"{layer}.self_s", [t["self_s"].get(layer, 0.0) for t in traced], "s")

    oracle = first.get("oracle")
    if oracle is not None:
        agrees = oracle["sha256"] == first["sha256"]
        if not agrees:
            run.fail("oracle: mine_ppcc output differs from the diagram miner's")
        checks = oracle["counters"]["constraint_checks"]
        check_ratio = counters["constraint_checks"] / max(checks, 1)
        if check_ratio > 1:
            run.fail(f"oracle: the diagram miner made {check_ratio:.3f} times "
                     "the constraint checks of mine_ppcc")
        put("oracle.mine_ppcc_s", oracle["mine_ppcc_s"], "s")
        put("oracle.ppcc_constraint_checks", checks, "count")
        put("oracle.check_ratio", check_ratio, "ratio")
        put("oracle.agrees", float(agrees), "bool")

    cli_s = cli_cross_check(run, files, ref, first["theta"], counters)
    if cli_s is not None:
        put("cli.mine_s", cli_s, "s")

    # jobs of a pair ran back to back, so their ratio cancels slow drift
    put("trace.overhead", [t["mine_s"] / u["mine_s"] for t, u in pairs], "ratio")
    put("trace.span_overhead", [t["span_cost_s"] / t["mine_s"] for t in traced], "ratio")
    put("trace.spans", first["spans"], "count")
    return out


def cli_cross_check(run: Run, files: dict, ref: Reference | None, theta: int,
                    counters: dict) -> float | None:
    """``mddmine mine --report`` on the same files: same output, same counters."""
    out_dir = run.work_dir / "cli"
    out_dir.mkdir(parents=True, exist_ok=True)
    patterns_path = out_dir / f"{run.tag}.patterns"
    report_path = out_dir / f"{run.tag}.report.tsv"
    command = [sys.executable, "-m", "mddmine.cli", "mine",
               "--db", files["spmf"], "--attrs", files["tsv"], "--min-sup", str(theta),
               "--output", str(patterns_path), "--report", str(report_path)]
    for text in run.workload.constraints:
        command += ["--constraint", text]
    t0 = perf_counter()
    if run.spawn("cli", command) is None:
        return None
    seconds = perf_counter() - t0
    rows = dict(line.split("\t") for line in report_path.read_text().splitlines())
    problems = []
    if ref is None or sha256_text(patterns_path.read_text()) != ref.sha256:
        problems.append("patterns file differs from the reference")
    if any(int(rows[name]) != counters[name] for name in REPORT_COUNTERS):
        problems.append("--report counters differ from the library run's")
    if problems:
        run.fail("cli: " + "; ".join(problems))
    return seconds


def run(args) -> int:
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    bench = Run(args)
    inputs = ensure_inputs(bench.work_dir, bench.family, args.seed, args.size)
    files = {"spmf": str(inputs.spmf), "tsv": str(inputs.tsv)}
    ref = reference(bench, files)
    collected = (trace if args.trace else measure)(bench, files, ref, source_digest())
    if not collected:
        print(f"perfbench: no job of {bench.tag} completed", file=sys.stderr)
        for problem in bench.problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"{bench.tag} trace={args.trace}: {bench.attempted} jobs, "
          f"{bench.failed} failed, {perf_counter() - bench.started:.1f} s")
    for problem in bench.problems:
        print(f"  FAILED {problem}")
    metrics = {}
    for name, (values, unit) in collected.items():
        print(_summary(name, values, unit))
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0
