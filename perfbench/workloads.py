"""Workload definitions and the seeded click-stream input generator.

Sessions follow the construction of acceptance criterion 6 and
``demos/03_clickstream_benchmark.py``: each session draws its length
uniformly from a range and each click from a Zipf-like popularity over a
fixed item universe.  Attributes (time, price, quality) come from the
package's own ``generate_attributes``.  Inputs are written once per seed as
an SPMF file and an attribute TSV; timed processes receive only those files.

Workloads sharing a session family (``clicks``) share the generated files.
"""
from __future__ import annotations

import hashlib
import math
import os
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

from mddmine import (
    format_attribute_tsv,
    generate_attributes,
    make_database,
    to_spmf,
)

SCENARIO_TIME = (
    "gap(time)>=30", "gap(time)<=900", "span(time)>=900", "span(time)<=3600",
)
SCENARIO_PRICE_QUALITY = (
    "avg(price)>=30", "avg(price)<=70", "med(price)>=40", "med(price)<=60",
    "avg(quality)>=40", "avg(quality)<=60", "med(quality)>=30", "med(quality)<=70",
)


@dataclass(frozen=True)
class Family:
    """Parameters of one generated session set."""

    name: str
    n_sessions: int
    n_items: int
    zipf: float
    min_len: int
    max_len: int


@dataclass(frozen=True)
class Workload:
    name: str
    family: Family
    constraints: tuple[str, ...]
    #: minimum support as a fraction of the session count, rounded up
    min_support: float

    def theta(self, n_sessions: int) -> int:
        return max(1, math.ceil(self.min_support * n_sessions))


CLICKS = Family("clicks", n_sessions=5000, n_items=1000, zipf=1.2, min_len=5, max_len=15)
# A flatter popularity than the clicks family: under Zipf 1.2 these session
# lengths make mining explode (minutes, 600 MB); under 1.0 the frequent
# items are few and clearly above or below the threshold.
DENSE = Family("dense", n_sessions=2000, n_items=1000, zipf=1.0, min_len=30, max_len=60)

WORKLOADS = {
    w.name: w
    for w in (
        # Mining dominates, and admission dominates mining: twelve
        # constraints, about a million information probes at 5k sessions.
        Workload("clicks-s3", CLICKS, SCENARIO_TIME + SCENARIO_PRICE_QUALITY, 0.01),
        # Same sessions, time constraints only: a deep search with many
        # emitted patterns, few information probes and a cheap propagate.
        Workload("clicks-s1", CLICKS, SCENARIO_TIME, 0.01),
        # Long sessions under a near-unbounded gap bound, about 18 arcs per
        # event: the diagram and every information kind (span, sum, avg,
        # med, maxlen) are large, while the high threshold keeps the search
        # to a few frequent items.
        Workload(
            "dense-index",
            DENSE,
            ("gap(time)<=36000", "span(time)<=100000", "sum(price)<=150",
             "avg(quality)>=40", "med(price)<=60", "length>=2"),
            0.82,
        ),
    )
}

#: reduced size for the benchmark's own smoke tests
SMOKE_SESSIONS = {"clicks": 300, "dense": 120}

#: the reduced copy checked against brute-force enumeration
REDUCED_SESSIONS = 100
REDUCED_LENGTH = 8
REDUCED_THETA = 2


def family_at(family: Family, size: str) -> Family:
    if size == "full":
        return family
    return Family(family.name, SMOKE_SESSIONS[family.name], family.n_items,
                  family.zipf, family.min_len, family.max_len)


def zipf_sessions(rng: random.Random, family: Family) -> list[list[int]]:
    weights = [1.0 / (rank ** family.zipf) for rank in range(1, family.n_items + 1)]
    cumulative = list(accumulate(weights))
    total = cumulative[-1]
    return [
        [bisect(cumulative, rng.random() * total) + 1
         for _ in range(rng.randint(family.min_len, family.max_len))]
        for _ in range(family.n_sessions)
    ]


@dataclass(frozen=True)
class Inputs:
    spmf: Path
    tsv: Path


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    tmp.replace(path)


def ensure_inputs(work_dir: Path, family: Family, seed: int, size: str) -> Inputs:
    """Write the family's SPMF and attribute files for ``seed`` unless present."""
    folder = work_dir / "inputs" / f"{size}-{family.name}-seed{seed}-{digest(family)}"
    inputs = Inputs(folder / "sessions.spmf", folder / "attrs.tsv")
    if inputs.spmf.exists() and inputs.tsv.exists():
        return inputs
    folder.mkdir(parents=True, exist_ok=True)
    base = make_database(zipf_sessions(random.Random(seed), family))
    table = generate_attributes(base, seed=seed)
    _write_atomic(inputs.tsv, format_attribute_tsv(table))
    _write_atomic(inputs.spmf, to_spmf(base))
    return inputs


def reduced_copy(db):
    """The first sessions, truncated, keeping their attribute values."""
    sequences = db.sequences[:REDUCED_SESSIONS]
    items = [seq.items[:REDUCED_LENGTH] for seq in sequences]
    attrs = {
        name: [seq.attr_values(name)[:REDUCED_LENGTH] for seq in sequences]
        for name in db.attribute_names
    }
    return make_database(items, attrs, ordering_attribute=db.ordering_attribute)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(*definitions) -> str:
    """Short name for definitions, so that files made under others are not reused."""
    return sha256_text(repr(definitions))[:12]
