"""Compute reference output hashes for seeds and merge them into references.json.

Usage (from the repository root)::

    python3 perfbench/make_references.py --seeds 0-47

For each workload and seed a ``reference`` job hashes ``mine_ppcc``'s output
on the full input and checks the diagram miner against brute force on the
reduced copy; a ``query`` job then checks the diagram miner on the full
input against that hash.  A seed is recorded only if all three agree.  As
many jobs run at once as the process may use CPUs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from argparse import Namespace
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import REFERENCES, Run  # noqa: E402
from workloads import WORKLOADS, ensure_inputs  # noqa: E402


def checked_reference(workload: str, seed: int, work_dir: Path) -> str | None:
    run = Run(Namespace(workload=workload, seed=seed, size="full", trace=0,
                        seconds=0.0, work_dir=work_dir))
    inputs = ensure_inputs(run.work_dir, run.family, seed, "full")
    files = {"spmf": str(inputs.spmf), "tsv": str(inputs.tsv)}
    ref = run.job("reference", **files)
    mpp = run.job("query", **files)
    if ref is None or mpp is None or not ref["brute_agrees"] \
            or mpp["sha256"] != ref["sha256"]:
        print(f"{workload} seed {seed}: no reference ({ref}, {run.problems})",
              file=sys.stderr)
        return None
    print(f"{workload} seed {seed}: {ref['patterns']} patterns, "
          f"{ref['brute_patterns']} on the reduced copy", file=sys.stderr)
    return ref["sha256"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/make_references.py")
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".perfbench")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    # write every family's inputs before jobs share them
    for seed in seeds:
        for workload in WORKLOADS.values():
            ensure_inputs(args.work_dir.resolve(), workload.family, seed, "full")
    tasks = [(w, s) for s in seeds for w in WORKLOADS]
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        hashes = list(pool.map(
            lambda task: checked_reference(*task, args.work_dir), tasks))
    table = json.loads(REFERENCES.read_text())
    for (workload, seed), sha in zip(tasks, hashes):
        if sha is not None:
            table.setdefault(workload, {})[str(seed)] = sha
    table = {
        workload: dict(sorted(by_seed.items(), key=lambda kv: int(kv[0])))
        for workload, by_seed in table.items()
    }
    REFERENCES.write_text(json.dumps(table, indent=1) + "\n")
    return 0 if all(hashes) else 1


if __name__ == "__main__":
    sys.exit(main())
