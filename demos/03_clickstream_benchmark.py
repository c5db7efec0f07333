"""Walkthrough: a synthetic click-stream benchmark with layered constraints.

Builds a few thousand sessions with a skewed item distribution, generates
time/price/quality attributes, and mines under one, two, and three attribute
constraint groups, comparing the diagram miner against raw prefix projection
with checks.  A scaled-down version of the acceptance smoke test; expect
a few seconds.

Run with:  python3 demos/03_clickstream_benchmark.py
"""
import time

from mddmine import (
    MiningCounters,
    attach_attributes,
    build_mdd,
    generate_attributes,
    generate_sessions,
    mine,
    mine_ppcc,
    parse_constraint,
    propagate,
)
from mddmine.cli import SCENARIOS

N_SEQUENCES = 5000
N_ITEMS = 1000

# Zipf-like item popularity: a handful of products dominate the clicks
base = generate_sessions(N_SEQUENCES, N_ITEMS, seed=7)
# time accumulates per-click delays (5% of them hour-scale session breaks);
# price and quality are uniform in [1, 100]
table = generate_attributes(base, seed=7)
db = attach_attributes(base, table, ordering_attribute="time")
theta = N_SEQUENCES // 100
print(f"{N_SEQUENCES} sessions over {N_ITEMS} items, threshold {theta}\n")

for scenario in (1, 2, 3):
    specs = tuple(parse_constraint(t) for t in SCENARIOS[scenario])
    t0 = time.perf_counter()
    mdd = build_mdd(db, specs)
    store = propagate(mdd, db, specs)
    t_build = time.perf_counter() - t0

    fast = MiningCounters()
    t0 = time.perf_counter()
    patterns = mine(mdd, store, db, specs, theta, counters=fast)
    t_mine = time.perf_counter() - t0

    raw = MiningCounters()
    t0 = time.perf_counter()
    baseline = mine_ppcc(db, specs, theta, counters=raw)
    t_raw = time.perf_counter() - t0
    assert patterns == baseline

    print(f"scenario {scenario}: {len(specs)} constraints, "
          f"{len(patterns)} patterns")
    print(f"  diagram:  build+info {t_build:5.2f} s  mine {t_mine:5.2f} s  "
          f"checks {fast.constraint_checks:>9}")
    print(f"  raw scan:                    mine {t_raw:5.2f} s  "
          f"checks {raw.constraint_checks:>9}")
