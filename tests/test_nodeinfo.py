import gc
import random
import re
import sys
import tracemalloc
from array import array
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from mddmine import (
    GE,
    LE,
    ConstraintSpec,
    Kind,
    StatPlan,
    build_mdd,
    check_occurrence,
    dump_info_tsv,
    make_database,
    mine,
    mine_bruteforce,
    parse_constraint,
    propagate,
)
from mddmine import nodeinfo
from mddmine.constraints import exact_median
from mddmine.miner import MppMiner
from mddmine.nodeinfo import (
    _WIDTH,
    _sentinels,
    med_dominates,
    med_fold,
)

from conftest import A, B, C
from dbgen import random_db, random_specs
from oracles import (
    avg_objective_ground_truth,
    database_sentinels,
    definition_stats,
    extension_exists,
    iter_arc_consistent_occurrences,
    maxlen_ground_truth,
    med_triple,
    never_rejecting,
    path_values,
    scan_entry,
    scan_verdict,
    span_ground_truth,
    store_arrays,
    sum_ground_truth,
)

SECOND = 1  # sequence index of the three-event B,A,B sequence


class TestPropagateOnClickDb:
    """Values derived by enumerating the four extension paths from the first
    event of the second sequence: times {3},{3,8},{3,9},{3,8,9}, prices
    {3},{3,1},{3,3},{3,1,3}."""

    def test_span_time(self, click_db):
        mdd = build_mdd(click_db)
        spec = parse_constraint("span(time)>=5")
        store = propagate(mdd, click_db, (spec,))
        assert store.info(("span", "time"))[SECOND][0] == (3, 9)

    def test_sum_price_max(self, click_db):
        mdd = build_mdd(click_db)
        spec = parse_constraint("sum(price)>=7")
        store = propagate(mdd, click_db, (spec,))
        assert store.info(("sum", "price", 1))[SECOND][0] == 7

    def test_avg_price_objective_zero_at_bound_three(self, click_db):
        mdd = build_mdd(click_db)
        spec = parse_constraint("avg(price)>=3")
        store = propagate(mdd, click_db, (spec,))
        assert store.info(("avg", "price", 1, 3))[SECOND][0] == 0

    def test_avg_price_objective_minus_one_at_bound_four(self, click_db):
        mdd = build_mdd(click_db)
        spec = parse_constraint("avg(price)>=4")
        store = propagate(mdd, click_db, (spec,))
        assert store.info(("avg", "price", 1, 4))[SECOND][0] == -1


def _admitted_with_window(values, occ, text):
    """Whether ``scan`` admits the entry ``occ`` of one sequence of ``values``
    under the single constraint ``text`` on ``x``, with a store, and the
    endpoint's stored (lo, hi) for span, max and min."""
    db = make_database([[1] * len(values)], {"x": [values]})
    specs = (parse_constraint(text),)
    store = propagate(build_mdd(db, specs), db, specs)
    admitted = scan_verdict(StatPlan(db, specs, store), db, 0, occ) == 1
    if ("span", "x") not in store.layout:
        return admitted, None
    return admitted, store.info(("span", "x"))[0][occ[-1]]


class TestExtendableExamples:
    """One entry's verdict from ``scan`` with a store.  Span cases give the
    occurrence's (min, max) and the endpoint's reachable (lo, hi)."""

    def test_span_lower_bounds(self):
        # occurrence (3, 3), reachable (3, 9)
        assert _admitted_with_window([3, 9], (0,), "span(x)>=5") == (True, (3, 9))
        assert _admitted_with_window([3, 9], (0,), "span(x)>=7") == (False, (3, 9))

    def test_span_zero_always_reachable(self):
        # occurrence (4, 9), reachable (4, 9)
        assert _admitted_with_window([9, 4, 9], (0, 1), "span(x)>=0") == (True, (4, 9))

    def test_span_upper_bound_needs_current_feasibility(self):
        # occurrence (3, 5), reachable (1, 9); occurrence (3, 9), reachable (3, 9)
        assert _admitted_with_window([3, 5, 1, 9], (0, 1), "span(x)<=4") == (True, (1, 9))
        assert _admitted_with_window([3, 9], (0, 1), "span(x)<=4") == (False, (9, 9))

    def test_max_min(self):
        assert _admitted_with_window([5, 3, 9], (0,), "max(x)>=9") == (True, (3, 9))
        assert _admitted_with_window([5, 3, 8], (0,), "max(x)>=9") == (False, (3, 8))
        assert _admitted_with_window([5, 3, 9], (0,), "min(x)<=3") == (True, (3, 9))
        # occurrence (5, 6), reachable (5, 9)
        assert _admitted_with_window([6, 5, 9], (0, 1), "min(x)<=3") == (False, (5, 9))
        # max<= is tested on the occurrence alone: no window is stored
        assert _admitted_with_window([5, 3, 9], (0,), "max(x)<=5") == (True, None)
        # occurrence (5, 7)
        assert _admitted_with_window([7, 5, 3, 9], (0, 1), "max(x)<=5") == (False, None)

    def test_med_positive_balance(self, click_db):
        mdd = build_mdd(click_db)
        specs = (parse_constraint("med(price)>=3"),)
        store = propagate(mdd, click_db, specs)
        info = store.info(("med", "price", 1, 3))[SECOND][0]
        assert info == (2, 0, 3)  # achieved by the price path {3, 3}
        plan = StatPlan(click_db, specs, store)
        assert scan_verdict(plan, click_db, SECOND, (0,)) == 1

    def test_med_infeasible_from_low_singleton(self, click_db):
        mdd = build_mdd(click_db)
        specs = (parse_constraint("med(price)>=3"),)
        store = propagate(mdd, click_db, specs)
        plan = StatPlan(click_db, specs, store)
        assert scan_verdict(plan, click_db, SECOND, (1,)) == 0  # the price-1 event

    def test_med_singleton_at_bound(self):
        assert _admitted_with_window([5], (0,), "med(x)>=5") == (True, None)


class TestMedHelpers:
    def test_fold_counts(self):
        assert med_fold(7, 5, (0, 0, 99)) == (1, 0, 7)
        assert med_fold(3, 5, (0, 0, 99)) == (-1, 3, 99)

    def test_dominance_rules(self):
        # higher balance always wins
        assert med_dominates((1, 0, 7), (0, 4, 6), bound=5)
        # balance tie, candidate median feasible, incumbent not
        assert med_dominates((0, 4, 6), (0, 1, 6), bound=5)
        # both feasible: larger best-below value wins
        assert med_dominates((0, 4, 7), (0, 3, 9), bound=5)
        # both infeasible: larger best-at-or-above value wins
        assert med_dominates((0, 1, 8), (0, 1, 6), bound=5)
        # incomparable tie: neither dominates
        assert not med_dominates((0, 4, 6), (0, 4, 6), bound=5)

    def test_sentinels_bracket_the_values_of_all_columns(self):
        # the far side's empty value first: below every value under >=,
        # above every value under <=
        rng = random.Random(12)
        for _ in range(200):
            columns = [tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 8)))
                       for _ in range(rng.randint(1, 5))]
            values = [v for col in columns for v in col]
            assert _sentinels(columns, 1) == (min(values) - 1, max(values) + 1)
            assert _sentinels(columns, -1) == (max(values) + 1, min(values) - 1)
        # a database without sequences still gets a pair around 0
        assert _sentinels([], 1) == (-1, 1) and _sentinels([], -1) == (1, -1)


def _feasible(p, t, bound):
    """The rule ``med_dominates`` states: a prefix triple ``p`` and a suffix
    triple ``t`` have a median at or above ``bound`` when their balances sum
    to more than 0, or cancel and the deciding values average the bound."""
    total = p[0] + t[0]
    return total > 0 or total == 0 and max(p[1], t[1]) + min(p[2], t[2]) >= 2 * bound


class TestMedDominanceExhaustive:
    """The two facts ``med_dominates`` documents, checked on every multiset of
    1-3 suffix values and 0-3 prefix values from a window, for every bound
    from two below the window to two above it (so below and above all
    values).  Feasibility is the median of prefix plus suffix, computed
    directly."""

    @pytest.mark.parametrize("lo, hi", [(0, 10), (-3, 3)])
    def test_rule_is_exact_and_fold_preserves_it(self, lo, hi):
        window = range(lo, hi + 1)
        sentinels = (lo - 1, hi + 1)
        prefixes = [
            ms for n in range(4) for ms in combinations_with_replacement(window, n)
        ]
        suffixes = prefixes[1:]
        for bound in range(lo - 2, hi + 3):
            p_triples = [med_triple(p, bound, sentinels) for p in prefixes]
            feasible: dict = {}  # suffix triple -> bit set of feasible prefixes
            for s in suffixes:
                t = med_triple(s, bound, sentinels)
                truth = []
                for p in prefixes:
                    u = sorted(p + s)
                    m = len(u) // 2
                    truth.append(u[m] >= bound if len(u) % 2
                                 else u[m - 1] + u[m] >= 2 * bound)
                assert [_feasible(pt, t, bound) for pt in p_triples] == truth
                mask = sum(1 << i for i, ok in enumerate(truth) if ok)
                # the triple decides feasibility: equal triples, equal sets
                assert feasible.setdefault(t, mask) == mask
                for v in window:
                    assert med_fold(v, bound, t) == med_triple(s + (v,), bound, sentinels)
            triples = sorted(feasible)
            for a in triples:
                for b in triples:
                    ab, ba = med_dominates(a, b, bound), med_dominates(b, a, bound)
                    assert not (ab and ba)
                    if ab:  # sound: a wins only where it is feasible too
                        assert feasible[b] & ~feasible[a] == 0
                    elif not ba:  # total: ties are semantically equivalent
                        assert feasible[a] == feasible[b]
            for v in window:
                folded = {t: med_fold(v, bound, t) for t in triples}
                for a in triples:
                    for b in triples:
                        if not med_dominates(b, a, bound):
                            assert not med_dominates(folded[b], folded[a], bound)


class TestOracleEquivalence:
    def test_span_sum_avg_maxlen_match_enumeration(self):
        rng = random.Random(11)
        for _ in range(25):
            db = random_db(rng, n_max=8, len_max=6)
            specs = random_specs(rng, db, max_specs=2) + (
                ConstraintSpec(Kind.LENGTH, direction=GE, c=2),
            )
            mdd = build_mdd(db, specs)
            store = propagate(mdd, db, specs)
            for attr, arrays in store_arrays(store, "span").items():
                for si, arr in enumerate(arrays):
                    for pos, pair in enumerate(arr):
                        assert pair == span_ground_truth(db, mdd, si, pos, attr)
            for (attr, sign), arrays in store_arrays(store, "sum").items():
                for si, arr in enumerate(arrays):
                    for pos, beta in enumerate(arr):
                        assert beta == sum_ground_truth(db, mdd, si, pos, attr, sign)
            for (attr, sign, bound), arrays in store_arrays(store, "avg").items():
                for si, arr in enumerate(arrays):
                    for pos, beta in enumerate(arr):
                        truth = avg_objective_ground_truth(db, mdd, si, pos, attr, sign, bound)
                        assert beta == truth
            for si, arr in enumerate(store.info(("maxlen",))):
                for pos, value in enumerate(arr):
                    assert value == maxlen_ground_truth(mdd, si, pos)

    def test_med_verdicts_match_brute_force(self):
        rng = random.Random(13)
        for _ in range(30):
            db = random_db(rng, n_max=6, len_max=6, n_attrs=1)
            attr = db.attribute_names[0]
            direction = rng.choice((GE, LE))
            med = ConstraintSpec(Kind.MED, attribute=attr, direction=direction,
                                 c=rng.randint(0, 20))
            gap = random_specs(rng, db, max_specs=1)
            specs = gap + (med,)
            mdd = build_mdd(db, specs)
            plan = StatPlan(db, (med,), propagate(mdd, db, specs))
            for si in range(len(db)):
                for occ in iter_arc_consistent_occurrences(mdd, si, max_len=4):
                    verdict = scan_verdict(plan, db, si, occ) == 1
                    assert verdict == extension_exists(db, mdd, si, occ, med)

    def test_med_arrays_equal_reference_fold(self, monkeypatch):
        # propagate inlines the fold and the dominance test; its arrays must
        # be those of a backward fold through the reference forms, keeping
        # the first triple that no later one dominates, from either walk.
        # The reference forms state the >= rule, so a <= key folds the
        # negated values against -c and its deciding values are negated
        # back.  Values 0..4 and bounds around them make balances and
        # deciding values tie often.  Gap bounds on the ordering attribute
        # t cut the rows as windows, which the window walk reads; on half
        # the instances a gap rule on x filters them into irregular
        # successor sets, which only the per-arc loop reads.
        rng = random.Random(17)
        windowed = 0
        for _ in range(150):
            lengths = [rng.randint(1, 8) for _ in range(rng.randint(3, 10))]
            db = make_database(
                [[rng.randint(1, 3) for _ in range(k)] for k in lengths],
                {"x": [[rng.randint(0, 4) for _ in range(k)] for k in lengths],
                 "t": [sorted(rng.sample(range(12), k)) for k in lengths]},
                ordering_attribute="t",
            )
            specs = tuple(
                ConstraintSpec(Kind.MED, attribute="x", direction=direction, c=c)
                for direction in (GE, LE) for c in range(-1, 6)
            ) + tuple(ConstraintSpec(Kind.GAP, attribute="t", direction=direction,
                                     c=rng.randint(-2, 6))
                      for direction in (GE, LE) if rng.random() < 0.7)
            if rng.random() < 0.5:
                specs += (ConstraintSpec(Kind.GAP, attribute="x",
                                         direction=rng.choice((GE, LE)),
                                         c=rng.randint(-2, 2)),)
            mdd = build_mdd(db, specs)
            windowed += type(mdd.succ[0][0]) is range
            for dense in _WALKS.values():
                monkeypatch.setattr(nodeinfo, "_DENSE", dense)
                store = propagate(mdd, db, specs)
                for (attr, sign, c), arrays in store_arrays(store, "med").items():
                    bound = sign * c
                    lo, hi = (sign * v for v in database_sentinels(db, attr, sign))
                    for si, col in enumerate(db.columns(attr)):
                        oriented = [sign * v for v in col]
                        ref = [None] * len(col)
                        for j in range(len(col) - 1, -1, -1):
                            best = med_fold(oriented[j], bound, (0, lo, hi))
                            for k in mdd.succ[si][j]:
                                cand = med_fold(oriented[j], bound, ref[k])
                                if med_dominates(cand, best, bound):
                                    best = cand
                            ref[j] = best
                        assert arrays[si] == [(t1, sign * t2, sign * t3)
                                              for t1, t2, t3 in ref]
        assert 50 < windowed < 150, windowed


#: the ``_DENSE`` value that sends every windowed sequence down each walk
_WALKS = {"window": -1, "per-arc": sys.maxsize}


def _med_key(triple, bound):
    """``med_dominates`` as a sort key: a beats b iff key(a) > key(b)."""
    ok = triple[1] + triple[2] >= 2 * bound
    return (triple[0], ok, triple[1] if ok else triple[2])


class TestWindowWalkExhaustive:
    """Both walks store the same bytes on a database holding every sequence
    of 1-5 values from 0..3, at times 0, 1, 2, 3, 4 and at times 0, 1, 3,
    4, 6, under gap bounds on time that give full, nested, shifting and
    empty windows, with a negative lower gap and with ``lo > hi``, for
    every key kind, and median bounds below, among and above the values."""

    @pytest.fixture(scope="class")
    def domain(self):
        seqs = [(times[:n], xs) for n in range(1, 6) for times in ((0, 1, 2, 3, 4),
                                                                  (0, 1, 3, 4, 6))
                for xs in product(range(4), repeat=n)]
        db = make_database([[1] * len(ts) for ts, _ in seqs],
                           {"t": [ts for ts, _ in seqs], "x": [xs for _, xs in seqs]},
                           ordering_attribute="t")
        specs = tuple(map(parse_constraint, (
            "span(x)>=1", "span(t)<=3", "sum(x)>=2", "sum(x)<=2", "length>=2")))
        specs += tuple(ConstraintSpec(kind, attribute="x", direction=direction, c=c)
                       for kind in (Kind.AVG, Kind.MED) for direction in (GE, LE)
                       for c in range(-1, 4))
        return db, specs

    @pytest.mark.parametrize("lo, hi", [(None, None), (2, None), (None, 2), (1, 3),
                                        (2, 2), (-2, 2), (3, 1), (None, 0)])
    def test_walks_store_the_same_bytes(self, domain, lo, hi, monkeypatch):
        db, specs = domain
        specs += tuple(ConstraintSpec(Kind.GAP, attribute="t", direction=direction, c=c)
                       for direction, c in ((GE, lo), (LE, hi)) if c is not None)
        mdd = build_mdd(db, specs)
        assert all(type(row) is range for table in mdd.succ for row in table)
        stores = {}
        for walk, dense in _WALKS.items():
            monkeypatch.setattr(nodeinfo, "_DENSE", dense)
            stores[walk] = propagate(mdd, db, specs)
        window, per_arc = stores.values()
        assert {kind for kind, *_ in window.layout} == set(_WIDTH)
        assert window.layout == per_arc.layout and window.width == per_arc.width
        for a, b in zip(window.records, per_arc.records, strict=True):
            assert a.typecode == b.typecode and a.tobytes() == b.tobytes()

    def test_scan_before_the_best_successor_decides_records(self, domain):
        # some events' stored triple is the fold of a successor before the
        # earliest best successor triple M, and differs from M's fold: the
        # window walk's scan from the window's start to M finds it
        db, _ = domain
        mdd = build_mdd(db, (parse_constraint("gap(t)>=2"),))
        sentinels = database_sentinels(db, "x", 1)
        earlier = 0
        for bound in range(-1, 5):
            for si, col in enumerate(db.columns("x")):
                ref = [None] * len(col)
                for j in range(len(col) - 1, -1, -1):
                    row = mdd.succ[si][j]
                    folds = [med_fold(col[j], bound, (0, *sentinels))]
                    folds += [med_fold(col[j], bound, ref[k]) for k in row]
                    ref[j] = max(folds, key=lambda t: _med_key(t, bound))
                    if row:
                        best = max(row, key=lambda k: _med_key(ref[k], bound))
                        earlier += ref[j] not in (folds[0], med_fold(col[j], bound, ref[best]))
        assert earlier > 20, earlier


class TestStatPlan:
    def test_incremental_matches_definition(self):
        """``scan``'s O(1) stats of the entry that appends the last position
        to a parent with the definition's stats, on increasing position
        tuples that need not follow arcs."""
        rng = random.Random(17)
        for _ in range(40):
            db = random_db(rng, n_max=6, len_max=7)
            specs = tuple(map(never_rejecting, random_specs(rng, db, max_specs=4)))
            plan = StatPlan(db, specs)
            si = rng.randrange(len(db))
            items = db.sequences[si].items
            k = rng.randint(1, len(items))
            positions = tuple(sorted(rng.sample(range(len(items)), k)))
            fresh, _, _ = scan_entry(plan, db, si, positions)
            assert fresh == {items[positions[-1]]: [
                (positions[-1], *definition_stats(plan, db, si, positions))]}

    def test_plan_retains_no_table_per_sequence(self, sessions_s3):
        # the median keys' sentinels are one constant pair each; a pair per
        # sequence kept about 730 KB alive here
        db, specs, mdd = sessions_s3
        store = propagate(mdd, db, specs)
        gc.collect()
        tracemalloc.start()
        try:
            plan = StatPlan(db, specs, store)
            gc.collect()
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert plan.med_keys and size <= 64 * 1024, size

    @pytest.mark.parametrize("text", ["med(time)>=2000", "med(time)<=2000"])
    def test_median_slots_hold_the_column_values(self, sessions_s3, text):
        # raw triples: a deciding slot is a sentinel or the column's own int
        # object, never a negated copy
        db, specs = sessions_s3[0], (parse_constraint(text),)
        mdd = build_mdd(db, specs)
        miner = MppMiner(mdd, propagate(mdd, db, specs), db, specs, 20)
        (key, at), = miner.plan.med_at.items()
        sentinels = database_sentinels(db, "time", key[1])
        todo, entries, real = [pdb for _, pdb in miner.root_candidates()], 0, 0
        while todo and entries < 20000:
            pdb = todo.pop()
            for si, admitted in pdb.items():
                stored = set(map(id, db.columns("time")[si]))
                for entry in admitted:
                    entries += 1
                    for value, sentinel in zip(entry[at + 2:at + 4], sentinels):
                        assert value == sentinel or id(value) in stored, (entry, at)
                        real += value > 256  # not a cached small int
            todo += [child for _, child in miner.extend(pdb)]
        assert entries >= 20000 and real > 1000, (entries, real)

    def test_one_sum_per_attribute(self, sessions_s3):
        db, specs, _ = sessions_s3
        plan = StatPlan(db, specs)
        assert list(plan.sum_at) == ["price", "quality"]

    def test_admission_reads_stored_values_as_they_are(self, sessions_s3):
        # the store holds column values, as the entries do: no <= key's
        # stored value is negated before it is compared
        db, specs, mdd = sessions_s3
        plan = StatPlan(db, specs, propagate(mdd, db, specs))
        assert "R[r + " in plan.source and "-R[" not in plan.source

    #: each spec's admission cost, (checks, probes with a store): a test on
    #: the occurrence is a check, a test that reads the store a probe, and
    #: the arcs enforce gap and item-set rules at no cost
    COSTS = {
        "length>=2": (0, 1), "length<=2": (1, 0),
        "gap(time)>=1": (0, 0), "gap(time)<=4": (0, 0),
        "span(time)>=2": (0, 1), "span(time)<=5": (1, 0),
        "max(price)>=3": (0, 1), "max(price)<=4": (1, 0),
        "min(price)<=2": (0, 1), "min(price)>=1": (1, 0),
        "sum(price)>=4": (0, 1), "sum(price)<=7": (0, 1),
        "avg(price)>=2": (0, 1), "avg(price)<=3": (0, 1),
        "med(price)>=2": (0, 1), "med(price)<=3": (0, 1),
        "itemset{1,2}": (0, 0),
    }

    @pytest.mark.parametrize("with_store", [True, False])
    def test_per_spec_costs(self, click_db, with_store):
        specs = tuple(map(parse_constraint, self.COSTS))
        mdd = build_mdd(click_db, specs)
        plan = StatPlan(click_db, specs, propagate(mdd, click_db, specs) if with_store else None)
        # verdict r costs the tests of specs 0..r; the admitted verdict all
        for table, column in ((plan.constraint_checks, 0), (plan.info_probes, 1)):
            steps = [b - a for a, b in zip((0,) + table, table)]
            expected = [cost[column] * (with_store or column == 0) for cost in self.COSTS.values()]
            assert steps == expected + [0], (column, steps)

    def test_source_is_kept(self, click_db):
        plan = StatPlan(click_db, (parse_constraint("span(time)<=4"),))
        assert re.findall(r"^ *def (\w+)\(", plan.source, re.M) == ["_make", "witness", "scan"]
        assert "hi0 - lo0 > 4" in plan.source


def _gate_stops(spec, db, mdd, si, occ):
    """The gate ``StatPlan`` documents, with a store, on the parent
    ``occ[:-1]``: a ``length<=c`` parent of c events or more, and a ``span<=c``
    parent whose endpoint's reachable window, by path enumeration, misses
    [max - c, min + c] of the parent's values."""
    parent = occ[:-1]
    if not parent or spec.direction != LE:
        return False
    if spec.kind is Kind.LENGTH:
        return len(parent) >= spec.c
    if spec.kind is Kind.SPAN:
        values = path_values(db, si, parent, spec.attribute)
        lo, hi = span_ground_truth(db, mdd, si, parent[-1], spec.attribute)
        return max(lo, max(values) - spec.c) > min(hi, min(values) + spec.c)
    return False


class TestAdmission:
    """``scan``'s verdict on one entry against path enumeration on every
    arc-consistent occurrence: a spec that fails has no satisfying
    extension, with a store the verdict is exact for every kind but
    ``span>=``, and the gate stops exactly the parents its rule names."""

    def test_sound_and_exact_against_enumeration(self):
        rng = random.Random(19)
        occurrences = gated = 0
        for _ in range(200):
            db = random_db(rng, n_max=8, len_max=6)
            specs = random_specs(rng, db, max_specs=4)
            mdd = build_mdd(db, specs)
            store = propagate(mdd, db, specs)
            plans = (StatPlan(db, specs, store), StatPlan(db, specs))
            singles = [StatPlan(db, (spec,), store) for spec in specs]
            for si in range(len(db)):
                for occ in iter_arc_consistent_occurrences(mdd, si, max_len=4):
                    occurrences += 1
                    exists = [extension_exists(db, mdd, si, occ, s) for s in specs]
                    for plan in plans:
                        verdict = scan_verdict(plan, db, si, occ)
                        if all(exists):
                            assert verdict == len(specs)
                        else:
                            assert verdict in (None, len(specs)) or not exists[verdict]
                    for spec, single, truth in zip(specs, singles, exists):
                        verdict = scan_verdict(single, db, si, occ)
                        gated += verdict is None
                        assert (verdict is None) == _gate_stops(spec, db, mdd, si, occ)
                        if (spec.kind, spec.direction) != (Kind.SPAN, GE):
                            assert (verdict == 1) == truth, (spec, occ)
        assert occurrences > 15000
        assert gated > 500

    def test_span_lower_bound_is_relaxed(self):
        """The reachable minimum (0) and maximum (100) of position 0 lie on
        different paths: 0->2 reaches span 50, 0->3 too.  ``scan`` admits
        the entry anyway, so emission must re-check with the reference
        evaluator, and then the miner agrees with brute force."""
        db = make_database([[1, 2, 3, 4]],
                           {"time": [[0, 1, 2, 3]], "v": [[50, 60, 0, 100]]},
                           ordering_attribute="time")
        specs = (parse_constraint("gap(time)>=2"), parse_constraint("span(v)>=100"))
        mdd = build_mdd(db, specs)
        store = propagate(mdd, db, specs)
        plan = StatPlan(db, specs, store)
        assert not extension_exists(db, mdd, 0, (0,), specs[1])
        assert scan_verdict(plan, db, 0, (0,)) == len(specs)
        assert mine(mdd, store, db, specs, 1) == mine_bruteforce(db, specs, 1)


class TestWitness:
    """``witness`` decides emission from the endpoint and the stats alone;
    the argument is in the ``StatPlan`` docstring."""

    def test_equals_reference_on_arc_consistent_occurrences(self):
        rng = random.Random(29)
        kinds, occurrences = set(), 0
        for _ in range(200):
            db = random_db(rng, n_max=8, len_max=6)
            specs = random_specs(rng, db, max_specs=4)
            kinds.update(spec.kind for spec in specs)
            mdd = build_mdd(db, specs)
            plans = (StatPlan(db, specs), StatPlan(db, specs, propagate(mdd, db, specs)))
            for si, seq in enumerate(db.sequences):
                for occ in iter_arc_consistent_occurrences(mdd, si):
                    occurrences += 1
                    truth = next((i for i, spec in enumerate(specs)
                                  if not check_occurrence(seq, occ, spec)), len(specs))
                    for plan in plans:
                        entry = (occ[-1], *definition_stats(plan, db, si, occ))
                        assert plan.witness(si, entry) == truth, (specs, occ)
        assert {Kind.GAP, Kind.ITEM_SET} <= kinds
        assert occurrences > 15000

    @pytest.mark.parametrize("window", [range(0, 7), range(-3, 4)])
    def test_median_and_average_rules_exhaustive(self, window):
        """Every multiset of 1-4 values, each distinct value once as the
        endpoint, against bounds from two below to two above the window."""
        lists = []
        for size in range(1, 5):
            for values in combinations_with_replacement(window, size):
                for last in sorted(set(values)):
                    rest = list(values)
                    rest.remove(last)
                    lists.append(rest + [last])
        db = make_database([[1] * len(values) for values in lists], {"v": lists})
        for kind in (Kind.MED, Kind.AVG):
            for direction in (GE, LE):
                for c in range(window.start - 2, window.stop + 2):
                    spec = ConstraintSpec(kind, attribute="v", direction=direction, c=c)
                    plan = StatPlan(db, (spec,))
                    for si, values in enumerate(lists):
                        stat = (exact_median(values) if kind is Kind.MED
                                else Fraction(sum(values), len(values)))
                        truth = stat >= c if direction == GE else stat <= c
                        occ = tuple(range(len(values)))
                        entry = (occ[-1], *definition_stats(plan, db, si, occ))
                        verdict = plan.witness(si, entry)
                        assert (verdict == 1) == truth, (spec, values)


#: ``dump_info_tsv`` of the click database under ``DUMP_SPECS``, as rendered
#: from the per-kind arrays that preceded the record layout, with each
#: average pair (b1, b2) rewritten as its excess b1 - 3*b2, each median
#: triple's empty side holding the attribute's pair over the database, and
#: every value raw: the <= sum is the least path sum ahead, and the <= median
#: triple's deciding values are prices, its empty sides (6, 0)
DUMP_TEXT = (
    "sid\tpos\tinfo\tvalues\n"
    "1\t1\tspan(time)\t1,3\n"
    "1\t2\tspan(time)\t3,3\n"
    "2\t1\tspan(time)\t3,9\n"
    "2\t2\tspan(time)\t8,9\n"
    "2\t3\tspan(time)\t9,9\n"
    "3\t1\tspan(time)\t2,8\n"
    "3\t2\tspan(time)\t5,8\n"
    "3\t3\tspan(time)\t8,8\n"
    "1\t1\tsum(price,<=)\t5\n"
    "1\t2\tsum(price,<=)\t3\n"
    "2\t1\tsum(price,<=)\t3\n"
    "2\t2\tsum(price,<=)\t1\n"
    "2\t3\tsum(price,<=)\t3\n"
    "3\t1\tsum(price,<=)\t1\n"
    "3\t2\tsum(price,<=)\t2\n"
    "3\t3\tsum(price,<=)\t3\n"
    "1\t1\tavg(price,>=3)\t2\n"
    "1\t2\tavg(price,>=3)\t0\n"
    "2\t1\tavg(price,>=3)\t0\n"
    "2\t2\tavg(price,>=3)\t-2\n"
    "2\t3\tavg(price,>=3)\t0\n"
    "3\t1\tavg(price,>=3)\t-2\n"
    "3\t2\tavg(price,>=3)\t-1\n"
    "3\t3\tavg(price,>=3)\t0\n"
    "1\t1\tmed(price,<=2)\t-1,5,0\n"
    "1\t2\tmed(price,<=2)\t-1,3,0\n"
    "2\t1\tmed(price,<=2)\t0,3,1\n"
    "2\t2\tmed(price,<=2)\t1,6,1\n"
    "2\t3\tmed(price,<=2)\t-1,3,0\n"
    "3\t1\tmed(price,<=2)\t2,6,2\n"
    "3\t2\tmed(price,<=2)\t1,6,2\n"
    "3\t3\tmed(price,<=2)\t-1,3,0\n"
    "1\t1\tmaxlen\t2\n"
    "1\t2\tmaxlen\t1\n"
    "2\t1\tmaxlen\t3\n"
    "2\t2\tmaxlen\t2\n"
    "2\t3\tmaxlen\t1\n"
    "3\t1\tmaxlen\t3\n"
    "3\t2\tmaxlen\t2\n"
    "3\t3\tmaxlen\t1\n"
)
DUMP_SPECS = ("span(time)>=5", "sum(price)<=9", "avg(price)>=3", "med(price)<=2",
              "length>=2")


class TestRecordLayout:
    def test_dump_info_tsv_is_unchanged(self, click_db):
        specs = tuple(parse_constraint(t) for t in DUMP_SPECS)
        store = propagate(build_mdd(click_db, specs), click_db, specs)
        assert dump_info_tsv(store) == DUMP_TEXT

    def test_source_is_kept_with_both_walks(self, click_db):
        specs = tuple(parse_constraint(t) for t in DUMP_SPECS)
        store = propagate(build_mdd(click_db, specs), click_db, specs)
        assert re.findall(r"^ *def (\w+)\(", store.source, re.M) == ["_make", "walk"]
        assert "for k in succ[j]:" in store.source  # the per-arc loop
        assert "for k in range(low - 1, a - 1, -1):" in store.source  # the window walk
        assert propagate(store.mdd, click_db, ()).source == ""

    def test_no_information_walks_nothing(self, click_db):
        class Untouchable:
            db = click_db  # propagate checks that this is the diagram's database

            @property
            def succ(self):
                raise AssertionError("propagate walked the diagram")

        specs = (parse_constraint("gap(time)>=3"), parse_constraint("length<=2"),
                 parse_constraint("itemset{1,2}"))
        store = propagate(Untouchable(), click_db, specs)
        assert store.layout == {} and store.records == []
        assert dump_info_tsv(store) == "sid\tpos\tinfo\tvalues\n"

    @pytest.mark.parametrize("texts, layout", [
        (("max(x)<=5",), {}),
        (("min(x)>=5",), {}),
        (("max(x)<=5", "min(x)>=1"), {}),
        (("max(x)<=5", "span(x)<=9"), {("span", "x"): 0}),
        (("min(x)>=5", "span(x)>=1"), {("span", "x"): 0}),
        (("max(x)<=5", "max(x)>=1"), {("span", "x"): 0}),
        (("min(x)>=5", "min(x)<=9"), {("span", "x"): 0}),
    ])
    def test_span_only_where_read(self, texts, layout):
        # max<= and min>= are tested on the occurrence; only span, max>=
        # and min<= read the reachable window
        db = make_database([[1, 2]], {"x": [[3, 7]]})
        specs = tuple(map(parse_constraint, texts))
        assert propagate(build_mdd(db, specs), db, specs).layout == layout

    def test_subset_slots_equal_full_store(self):
        # perfbench's per-kind propagate metrics run on spec subsets and must
        # measure the same information as the full run
        rng = random.Random(31)
        for _ in range(60):
            db = random_db(rng, n_max=8, len_max=6)
            specs = random_specs(rng, db, max_specs=5) + (
                ConstraintSpec(Kind.LENGTH, direction=GE, c=2),
            )
            mdd = build_mdd(db, specs)
            full = propagate(mdd, db, specs)
            subset = tuple(spec for spec in specs if rng.random() < 0.5)
            part = propagate(mdd, db, subset)
            assert set(part.layout) <= set(full.layout)
            for key in part.layout:
                assert part.info(key) == full.info(key), key


class TestPackedStore:
    """Each sequence's records are one flat block of ``width`` slots per
    event: an ``array('i')`` where every value fits in 32 bits, else an
    ``array('q')``, or a list where a value leaves 64 bits."""

    def test_rows_are_int32_arrays_of_width_per_event(self):
        rng = random.Random(37)
        for _ in range(60):
            db = random_db(rng, n_max=8, len_max=6)
            specs = random_specs(rng, db, max_specs=5) + (
                ConstraintSpec(Kind.LENGTH, direction=GE, c=2),
            )
            store = propagate(build_mdd(db, specs), db, specs)
            assert store.width == sum(_WIDTH[key[0]] for key in store.layout)
            assert len(store.records) == len(db)
            for rows, seq in zip(store.records, db.sequences):
                assert all(-2 ** 31 <= v < 2 ** 31 for v in rows)
                assert isinstance(rows, array) and rows.typecode == "i"
                assert len(rows) == store.width * len(seq)

    # every stored value is 0 or the edge: span and max hold column values,
    # and each path sum or excess ahead adds the edge at most once
    EDGE_SPECS = ("span(v)>=1", "max(v)<=0", "sum(v)>=0", "avg(v)<=0", "length>=2")

    @pytest.mark.parametrize("edge, code", [
        (2 ** 31 - 1, "i"), (-2 ** 31, "i"),
        (2 ** 31, "q"), (-2 ** 31 - 1, "q"), (2 ** 63 - 1, "q"), (-2 ** 63, "q"),
        (2 ** 63, None), (-2 ** 63 - 1, None), (2 ** 70, None),
    ])
    def test_int32_edges(self, edge, code):
        items = [[1, 2], [2, 1, 2], [1], [2, 1]]
        values = [[edge, 0], [0, edge, 0], [edge], [0, edge]]
        db = make_database(items, {"v": values})
        specs = tuple(map(parse_constraint, self.EDGE_SPECS))
        mdd = build_mdd(db, specs)
        store = propagate(mdd, db, specs)
        for rows, seq in zip(store.records, values):
            assert edge in rows and set(rows) <= {0, 1, 2, 3, edge}
            assert len(rows) == store.width * len(seq)
            if code is None:
                assert type(rows) is list
            else:
                assert isinstance(rows, array) and rows.typecode == code
        for theta in (1, 2):
            for n in (1, 2, len(specs)):
                for subset in combinations(specs, n):
                    assert (mine(mdd, store, db, subset, theta)
                            == mine_bruteforce(db, subset, theta)), (theta, subset)

    def test_first_overflow_stops_the_int32_attempts(self):
        # the second sequence fits in 32 bits but is not packed twice to find out
        db = make_database([[1, 2], [1, 2], [1]], {"v": [[2 ** 31, 0], [1, 0], [2 ** 70]]})
        specs = (parse_constraint("span(v)>=1"),)
        store = propagate(build_mdd(db, specs), db, specs)
        assert [getattr(rows, "typecode", None) for rows in store.records] == ["q", "q", None]
        assert store.info(("span", "v")) == [[(0, 2 ** 31), (0, 0)], [(0, 1), (0, 0)],
                                             [(2 ** 70, 2 ** 70)]]

    def test_values_beyond_64_bits_fall_back_to_a_list(self):
        big = 2 ** 62
        # two events near 2**62 sum past 2**63 - 1; one event, or small
        # values, fit
        times = [[big, big + 1], [big], [1, 2, 3], [big - 5, big, big + 5], [7, big]]
        items = [[1, 2], [1], [1, 2, 3], [2, 1, 2], [1, 2]]
        db = make_database(items, {"time": times}, ordering_attribute="time")
        specs = tuple(map(parse_constraint, (
            f"sum(time)>={big}", f"avg(time)<={big}", "sum(time)<=4", f"avg(time)>={big - 3}")))
        mdd = build_mdd(db, specs)
        store = propagate(mdd, db, specs)
        for seq, rows in zip(db.sequences, store.records):
            assert len(rows) == store.width * len(seq)
            fits = all(-2 ** 63 <= v < 2 ** 63 for v in rows)
            assert isinstance(rows, array) if fits else type(rows) is list
        assert {type(rows) for rows in store.records} == {array, list}
        for (attr, sign), arrays in store_arrays(store, "sum").items():
            for si, arr in enumerate(arrays):
                assert arr == [sum_ground_truth(db, mdd, si, pos, attr, sign)
                               for pos in range(len(arr))]
        for (attr, sign, bound), arrays in store_arrays(store, "avg").items():
            for si, arr in enumerate(arrays):
                assert arr == [avg_objective_ground_truth(db, mdd, si, pos, attr, sign, bound)
                               for pos in range(len(arr))]
        for theta in (1, 2):
            for subset in (specs, specs[:2], specs[1:2], specs[3:]):
                assert (mine(mdd, store, db, subset, theta)
                        == mine_bruteforce(db, subset, theta)), (theta, subset)

    def test_store_costs_four_bytes_a_slot(self, sessions_s3):
        # a tuple of boxed ints per event took about 190 B at width 9, and an
        # array('q') 8 B a slot; the blocks' own headers are counted apart
        db, specs, mdd = sessions_s3
        gc.collect()
        tracemalloc.start()
        try:
            store = propagate(mdd, db, specs)
            gc.collect()
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        events = sum(len(seq) for seq in db.sequences)
        headers = sys.getsizeof(store.records) + len(db) * sys.getsizeof(array("i"))
        assert {rows.typecode for rows in store.records} == {"i"}
        assert abs((size - headers) / (4 * store.width * events) - 1) <= 0.10, (
            size / events, store.width)

