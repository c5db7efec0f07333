"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 2 through 5 share one corpus of 500 randomized instances
(5-40 sequences, lengths 1-8, 2-6 items, 1-3 integer attributes in [0, 20],
random constraint sets over all nine kinds and both directions, thresholds
within [1, N]); the corpus is generated once per session.
"""
import time
from dataclasses import dataclass, field

import pytest

from mddmine import (
    Kind,
    MiningCounters,
    StatPlan,
    attach_attributes,
    build_mdd,
    generate_attributes,
    generate_sessions,
    make_database,
    mine,
    mine_bruteforce,
    mine_mpp,
    mine_ppcc,
    parse_constraint,
    propagate,
    validate,
)
from mddmine.cli import SCENARIOS

from conftest import A, B, C, build_click_db
from dbgen import random_instance
from oracles import extension_exists, iter_arc_consistent_occurrences, scan_verdict

N_INSTANCES = 500


def _ok(name: str) -> None:
    print(f"[ACCEPTANCE] {name}: PASS")


# --- criterion 1: golden patterns on the worked example -------------------------

def test_criterion_1_golden_patterns():
    started = time.perf_counter()
    db = build_click_db()

    out = mine_mpp(db, (), 2)
    assert sorted((p.items, p.support) for p in out) == [
        ((A,), 2), ((B,), 2), ((B, B), 2),
    ]

    gapped = mine_mpp(db, (parse_constraint("gap(time)>=3"),), 2)
    assert sorted((p.items, p.support) for p in gapped) == [((A,), 2), ((B,), 2)]

    loose = mine_mpp(db, (parse_constraint("gap(time)<=3"),), 1)
    assert (C, A) in loose

    assert time.perf_counter() - started < 1.0
    _ok("golden patterns (exact, < 1 s)")


# --- shared randomized corpus ----------------------------------------------------

@dataclass
class CorpusResults:
    instances: int = 0
    miner_mismatches: list = field(default_factory=list)
    prop5_output_diffs: list = field(default_factory=list)
    prop5_counter_violations: list = field(default_factory=list)
    beta_value_errors: list = field(default_factory=list)
    med_occurrences_checked: int = 0
    med_verdict_errors: list = field(default_factory=list)
    structural_errors: list = field(default_factory=list)
    elapsed: float = 0.0


def _check_beta_values(db, mdd, store, results, seed):
    from oracles import iter_ut_paths, store_arrays

    span, sums, avg = (store_arrays(store, kind) for kind in ("span", "sum", "avg"))
    for si in range(len(db)):
        cols = {a: db.columns(a)[si] for a in db.attribute_names}
        for pos in range(len(db.sequences[si])):
            paths = list(iter_ut_paths(mdd, si, pos))
            for attr, arrays in span.items():
                values = [cols[attr][q] for p in paths for q in p]
                if arrays[si][pos] != (min(values), max(values)):
                    results.beta_value_errors.append((seed, "span", si, pos))
            # the largest path sum or excess under >=, the least under <=
            for (attr, sign), arrays in sums.items():
                best = (max if sign > 0 else min)(sum(cols[attr][q] for q in p) for p in paths)
                if arrays[si][pos] != best:
                    results.beta_value_errors.append((seed, "sum", si, pos))
            for (attr, sign, bound), arrays in avg.items():
                best = (max if sign > 0 else min)(
                    sum(cols[attr][q] for q in p) - bound * len(p)
                    for p in paths
                )
                if arrays[si][pos] != best:
                    results.beta_value_errors.append((seed, "avg", si, pos))


def _check_med_verdicts(db, specs, mdd, store, results, seed):
    """Every median spec's admission verdict on every arc-consistent
    occurrence, against path enumeration."""
    for spec in specs:
        if spec.kind is not Kind.MED:
            continue
        plan = StatPlan(db, (spec,), store)
        for si in range(len(db)):
            for occ in iter_arc_consistent_occurrences(mdd, si):
                results.med_occurrences_checked += 1
                verdict = scan_verdict(plan, db, si, occ) == 1
                if verdict != extension_exists(db, mdd, si, occ, spec):
                    results.med_verdict_errors.append((seed, spec, si, occ, verdict))


def _check_structure(db, results, seed):
    free = build_mdd(db)
    report = validate(free, db)
    if not report.ok:
        results.structural_errors.append((seed, report.problems[:2]))
        return
    max_len = max(len(s) for s in db.sequences)
    for layer in range(1, max_len + 1):
        distinct = {s.items[layer - 1] for s in db.sequences if len(s) >= layer}
        if len(free.layer_items(layer)) != len(distinct):
            results.structural_errors.append((seed, f"layer {layer} size"))


@pytest.fixture(scope="session")
def corpus() -> CorpusResults:
    started = time.perf_counter()
    results = CorpusResults()
    for seed in range(N_INSTANCES):
        db, specs, theta = random_instance(seed)
        results.instances += 1

        mdd = build_mdd(db, specs)
        store = propagate(mdd, db, specs)

        with_counters = MiningCounters()
        mpp = mine(mdd, store, db, specs, theta, counters=with_counters)
        ppcc = mine_ppcc(db, specs, theta)
        brute = mine_bruteforce(db, specs, theta)

        if mpp != brute:
            results.miner_mismatches.append((seed, "mpp vs brute"))
        if ppcc != brute:
            results.miner_mismatches.append((seed, "ppcc vs brute"))

        without_counters = MiningCounters()
        mpp_off = mine(mdd, store, db, specs, theta,
                       use_prop5=False, counters=without_counters)
        if mpp_off.render() != mpp.render():
            results.prop5_output_diffs.append(seed)
        if with_counters.scanned_sequences > without_counters.scanned_sequences:
            results.prop5_counter_violations.append(seed)

        _check_beta_values(db, mdd, store, results, seed)

        _check_med_verdicts(db, specs, mdd, store, results, seed)

        _check_structure(db, results, seed)

    results.elapsed = time.perf_counter() - started
    return results


# --- criterion 2: triple-oracle equivalence --------------------------------------

def test_criterion_2_triple_oracle_equivalence(corpus):
    assert corpus.instances >= 500
    assert corpus.miner_mismatches == []
    assert corpus.elapsed < 300, f"corpus took {corpus.elapsed:.0f}s"
    _ok(
        f"triple-oracle equivalence on {corpus.instances} instances "
        f"({corpus.elapsed:.0f} s)"
    )


# --- criterion 3: beta information equals enumeration ground truth ---------------

def test_criterion_3_beta_oracle_equivalence(corpus):
    assert corpus.beta_value_errors == []
    assert corpus.med_verdict_errors == []
    _ok(
        f"beta-oracle equivalence (median verdicts on all "
        f"{corpus.med_occurrences_checked} arc-consistent occurrences, "
        "each equal to brute force)"
    )


# --- criterion 4: structural checks ----------------------------------------------

def test_criterion_4_mdd_structure(corpus):
    db = build_click_db()
    mdd = build_mdd(db)
    assert mdd.layer_sizes() == [2, 3, 2]
    assert mdd.layer_items(1) == [B, C]
    assert corpus.structural_errors == []
    _ok("structural checks (layer counts, validated free diagrams)")


# --- criterion 5: early candidate abandonment is output-neutral ------------------

def test_criterion_5_prop5_neutrality(corpus):
    assert corpus.prop5_output_diffs == []
    assert corpus.prop5_counter_violations == []
    _ok("candidate abandonment neutrality (byte-identical, fewer scans)")


# --- criterion 6: relative performance at scale -----------------------------------

def test_criterion_6_relative_performance_smoke():
    started = time.perf_counter()
    n = 50_000
    base = generate_sessions(n, 1000, seed=2024)
    table = generate_attributes(base, seed=99)
    db = attach_attributes(base, table, ordering_attribute="time")
    lengths = [len(s) for s in db.sequences]
    assert 9.5 <= sum(lengths) / len(lengths) <= 10.5

    specs = tuple(parse_constraint(t) for t in SCENARIOS[3])
    theta = n // 100

    t0 = time.perf_counter()
    mdd = build_mdd(db, specs)
    t1 = time.perf_counter()
    store = propagate(mdd, db, specs)
    t2 = time.perf_counter()
    mpp_counters = MiningCounters()
    mpp = mine(mdd, store, db, specs, theta, counters=mpp_counters)
    t3 = time.perf_counter()
    ppcc_counters = MiningCounters()
    ppcc = mine_ppcc(db, specs, theta, counters=ppcc_counters)

    build_prop = t2 - t0
    mining = t3 - t2
    assert mpp == ppcc
    assert mpp_counters.constraint_checks <= ppcc_counters.constraint_checks, (
        mpp_counters.constraint_checks, ppcc_counters.constraint_checks,
    )
    assert build_prop < mining, (build_prop, mining)
    assert time.perf_counter() - started < 600
    _ok(
        "relative performance (checks "
        f"{mpp_counters.constraint_checks} <= {ppcc_counters.constraint_checks}; "
        f"build+prop {build_prop:.1f} s < mining {mining:.1f} s; "
        f"{len(mpp)} patterns)"
    )


# --- criterion 7: attribute generator statistics ----------------------------------

def test_criterion_7_generator_statistics():
    db = make_database([[1] * 8 for _ in range(1500)])
    table = generate_attributes(db, seed=7)
    attached = attach_attributes(db, table)
    deltas = []
    for seq in attached.sequences:
        values = seq.attr_values("time")
        deltas.append(values[0])
        deltas.extend(b - a for a, b in zip(values, values[1:]))
    assert len(deltas) >= 10_000
    long_deltas = [d for d in deltas if d > 600]
    assert all(3600 <= d <= 36000 for d in long_deltas)
    fraction = len(long_deltas) / len(deltas)
    assert 0.04 <= fraction <= 0.06, fraction
    _ok(f"generator statistics ({len(deltas)} deltas, long fraction "
        f"{fraction:.4f})")
