import gc
import random
import re
from collections import Counter
from dataclasses import astuple
from operator import mul

import pytest

from mddmine import (
    MiningCounters,
    PatternSet,
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
    prop5_prune,
    propagate,
)
from mddmine.cli import SCENARIOS
from mddmine.miner import _ROOT, MppMiner, _ProjectionMiner
from mddmine.oracle import PpccMiner

from conftest import A, B, C
from dbgen import random_db, random_instance, random_specs, random_theta
from oracles import definition_stats, never_rejecting, scan_verdict


def as_pairs(patterns):
    return sorted((p.items, p.support) for p in patterns)


class TestGolden:
    def test_unconstrained_theta_two(self, click_db):
        out = mine_mpp(click_db, (), 2)
        assert as_pairs(out) == [((A,), 2), ((B,), 2), ((B, B), 2)]

    def test_gap_lower_bound_drops_bb(self, click_db):
        out = mine_mpp(click_db, (parse_constraint("gap(time)>=3"),), 2)
        assert as_pairs(out) == [((A,), 2), ((B,), 2)]

    def test_gap_upper_bound_larger_prefix_pattern(self, click_db):
        out = mine_mpp(click_db, (parse_constraint("gap(time)<=3"),), 1)
        assert (C, A) in out
        assert out.support((C, A)) == 1


class TestExtend:
    def _miner(self, db, specs, theta):
        mdd = build_mdd(db, specs)
        store = propagate(mdd, db, specs)
        return MppMiner(mdd, store, db, specs, theta)

    def test_extension_candidates_for_b(self, click_db):
        miner = self._miner(click_db, (), 2)
        base = dict(miner.root_candidates())
        pdb = base[B]
        assert {si: [pos for pos, *_ in entries] for si, entries in pdb.items()} \
            == {0: [0, 1], 1: [0, 2]}
        candidates = miner.extend(pdb)
        # A reaches only the second sequence, so with theta=2 just B..B survives
        assert [item for item, _ in candidates] == [B]
        child = dict(candidates)[B]
        assert sorted(child) == [0, 1]

    def test_extension_for_c_under_gap_upper_bound(self, click_db):
        specs = (parse_constraint("gap(time)<=3"),)
        miner = self._miner(click_db, specs, 1)
        base = dict(miner.root_candidates())
        candidates = dict(miner.extend(base[C]))
        # A is reachable only through the larger prefix ending at position 2
        assert [pos for pos, *_ in candidates[A][2]] == [2]

    def test_no_out_arcs_yields_nothing(self, click_db):
        miner = self._miner(click_db, (), 1)
        base = dict(miner.root_candidates())
        # keep only the entry at the last position of the third sequence
        pdb = {2: base[A][2]}
        assert miner.extend(pdb) == []


class TestProp5:
    def test_prune_when_absent_from_both_scanned(self):
        assert prop5_prune(n=2, sup_i=0, sup_p=2, theta=2)

    def test_keep_when_present_everywhere(self):
        assert not prop5_prune(n=2, sup_i=2, sup_p=2, theta=2)

    def test_threshold_one_rearrangement(self):
        for n in range(1, 6):
            for sup_p in range(n, 8):
                for sup_i in range(0, n + 1):
                    assert prop5_prune(n, sup_i, sup_p, 1) == (sup_i < n - sup_p + 1)

    def test_neutral_on_random_instances(self):
        rng = random.Random(23)
        for seed in range(25):
            db = random_db(rng, n_max=12, len_max=6)
            specs = random_specs(rng, db)
            theta = random_theta(rng, db)
            with_c, without_c = MiningCounters(), MiningCounters()
            mdd = build_mdd(db, specs)
            store = propagate(mdd, db, specs)
            with_p5 = mine(mdd, store, db, specs, theta, counters=with_c)
            without_p5 = mine(mdd, store, db, specs, theta, use_prop5=False,
                              counters=without_c)
            assert with_p5.render() == without_p5.render()
            assert with_c.scanned_sequences <= without_c.scanned_sequences


class TestPlainSupportAbandonment:
    """Items below theta in the database are abandoned before the first scan."""

    def test_item_below_theta_gets_no_entry(self):
        # theta 3: A is in 2 sequences (theta - 1), B and C in exactly 3
        db = make_database([[A, B, C], [A, B], [B, C], [C]])
        events_of_a = 2
        on, off = MiningCounters(), MiningCounters()
        with_rule = MppMiner(build_mdd(db), None, db, (), 3, counters=on)
        without = MppMiner(build_mdd(db), None, db, (), 3, counters=off,
                           use_prop5=False)
        assert with_rule._infrequent == {A}
        roots = dict(with_rule.root_candidates())
        assert dict(without.root_candidates()).keys() == roots.keys() == {B, C}
        assert on.entries_created == off.entries_created - events_of_a == 8 - events_of_a
        assert len(roots[B]) == 3  # reaching theta exactly is enough
        out = mine_mpp(db, (), 3)
        assert out == mine_bruteforce(db, (), 3)
        assert out.support((B,)) == 3 and (A,) not in out

    def test_theta_sweep_agrees_with_every_reference(self):
        fired = 0
        for seed in (3, 14, 27, 58):
            db, specs, _ = random_instance(seed)
            mdd = build_mdd(db, specs)
            store = propagate(mdd, db, specs)
            for theta in range(1, len(db) + 1):
                out = mine(mdd, store, db, specs, theta)
                assert out == mine(mdd, store, db, specs, theta, use_prop5=False)
                assert out == mine_ppcc(db, specs, theta)
                assert out == mine_bruteforce(db, specs, theta)
                fired += bool(MppMiner(mdd, store, db, specs, theta)._infrequent)
        assert fired > 0


class TestArguments:
    def test_theta_zero_rejected(self, click_db):
        with pytest.raises(ValueError):
            mine_mpp(click_db, (), 0)

    def test_diagram_built_for_other_specs_rejected(self, click_db):
        # emission trusts the arcs for gap and item-set rules
        specs = (parse_constraint("gap(time)>=3"),)
        free = build_mdd(click_db)
        with pytest.raises(ValueError):
            mine(free, propagate(free, click_db, specs), click_db, specs, 2)

    @pytest.mark.parametrize("propagated, mined, lacks", [
        ("span(time)>=5", "avg(price)>=3", "avg(price,>=3)"),
        ("span(time)>=5", "length>=2", "maxlen"),
    ])
    def test_store_propagated_for_other_specs_rejected(self, click_db, propagated,
                                                       mined, lacks):
        specs = (parse_constraint("span(time)>=5"), parse_constraint(mined))
        mdd = build_mdd(click_db, specs)
        store = propagate(mdd, click_db, (parse_constraint(propagated),))
        with pytest.raises(ValueError, match=rf"lacks {re.escape(lacks)}$"):
            mine(mdd, store, click_db, specs, 1)
        full = propagate(mdd, click_db, specs)
        assert mine(mdd, full, click_db, specs, 1) == mine_bruteforce(click_db, specs, 1)

    @pytest.mark.parametrize("text", ["span(time)>=5", "length<=2"])
    def test_store_propagated_over_another_diagram_rejected(self, click_db, text):
        # the gap-bounded diagram reaches less than the free one, so its
        # records would reject entries the free diagram keeps; a spec list
        # that needs no information still gets a store of its diagram
        specs = (parse_constraint(text),)
        free = build_mdd(click_db, specs)
        tight = build_mdd(click_db, (parse_constraint("gap(time)<=0"),))
        with pytest.raises(ValueError, match="another diagram"):
            mine(free, propagate(tight, click_db, specs), click_db, specs, 1)
        own = propagate(free, click_db, specs)
        assert mine(free, own, click_db, specs, 1) == mine_bruteforce(click_db, specs, 1)

    def test_database_other_than_the_diagrams_rejected(self):
        # same items, but db2's times break gap(t)<=5 between every two events
        db1 = make_database([[1, 2, 3]] * 2, {"t": [[1, 2, 3]] * 2}, "t")
        db2 = make_database([[1, 2, 3]] * 2, {"t": [[1, 50, 99]] * 2}, "t")
        specs = (parse_constraint("gap(t)<=5"),)
        mdd = build_mdd(db1, specs)
        store = propagate(mdd, db1, specs)
        with pytest.raises(ValueError, match="database"):
            mine(mdd, store, db2, specs, 2)
        with pytest.raises(ValueError, match="database"):
            propagate(mdd, db2, specs)
        assert as_pairs(mine_ppcc(db2, specs, 2)) == [((1,), 2), ((2,), 2), ((3,), 2)]
        assert as_pairs(mine(mdd, store, db1, specs, 2)) == as_pairs(mine_ppcc(db1, specs, 2))

    def test_more_than_one_thread_rejected(self, click_db):
        assert mine_mpp(click_db, (), 2, threads=1) == mine_mpp(click_db, (), 2)
        with pytest.raises(ValueError):
            mine_mpp(click_db, (), 2, threads=2)


class TestProjectionOrder:
    def test_projections_iterate_in_ascending_index_order(self):
        # extend scans a projection in its iteration order, unsorted
        checked = 0
        for seed in range(80):
            db, specs, theta = random_instance(seed)
            mdd = build_mdd(db, specs)
            store = propagate(mdd, db, specs)
            for miner in (MppMiner(mdd, store, db, specs, theta),
                          PpccMiner(db, specs, theta)):
                todo = miner.root_candidates()
                while todo:
                    _, pdb = todo.pop()
                    assert list(pdb) == sorted(pdb)
                    checked += len(pdb) > 1
                    todo += miner.extend(pdb)
        assert checked > 500, checked


@pytest.fixture
def collector():
    """Restores the cyclic collector's state when the test ends."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_search_empties_the_root_candidates(click_db):
    # the stack is then a root projection's only owner, so it dies when popped
    mdd = build_mdd(click_db)
    miner, out = MppMiner(mdd, None, click_db, (), 2), PatternSet()
    base = miner.root_candidates()
    assert len(base) == 2
    miner._dfs(base, out)
    assert base == []
    assert out == mine(mdd, None, click_db, (), 2)


class TestCollectorGuard:
    """The search runs with the cyclic collector off, restores its prior
    state, and leaves no cyclic garbage that grows with the input."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_prior_state_restored(self, click_db, collector, enabled):
        (gc.enable if enabled else gc.disable)()
        assert len(mine(build_mdd(click_db), None, click_db, (), 2)) == 3
        assert gc.isenabled() is enabled
        assert len(mine_ppcc(click_db, (), 2)) == 3
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_prior_state_restored_when_the_search_raises(self, click_db, collector,
                                                        monkeypatch, enabled):
        during = []

        def failing_dfs(miner, base, out):
            during.append(gc.isenabled())
            raise RuntimeError("search failed")

        monkeypatch.setattr(_ProjectionMiner, "_dfs", failing_dfs)
        (gc.enable if enabled else gc.disable)()
        mdd = build_mdd(click_db)
        with pytest.raises(RuntimeError, match="search failed"):
            mine(mdd, None, click_db, (), 2)
        assert gc.isenabled() is enabled
        with pytest.raises(RuntimeError, match="search failed"):
            mine_ppcc(click_db, (), 2)
        assert gc.isenabled() is enabled
        assert during == [False, False]

    def test_cyclic_garbage_does_not_grow_with_the_input(self, collector):
        # what is left is each plan's exec namespace, which its functions
        # point back at: a constant per mining call
        specs = tuple(parse_constraint(t) for t in SCENARIOS[3])
        found, emitted = [], []
        for n in (200, 800, 3200):
            base = generate_sessions(n, 100, seed=7)
            db = attach_attributes(base, generate_attributes(base, seed=7), "time")
            mdd = build_mdd(db, specs)
            store = propagate(mdd, db, specs)
            gc.collect()
            gc.disable()
            theta = n // 100
            out = mine(mdd, store, db, specs, theta)
            assert out == mine_ppcc(db, specs, theta)
            emitted.append(len(out))
            found.append(gc.collect())
        assert found[0] == found[1] == found[2] <= 8, found
        assert min(emitted) > 0, emitted


class TestOutput:
    def test_render_format(self, click_db):
        out = mine_mpp(click_db, (), 2)
        assert out.render() == "1\t#SUP: 2\n2\t#SUP: 2\n2 2\t#SUP: 2\n"

    def test_render_empty(self):
        assert PatternSet().render() == ""

    def test_canonical_ordering_with_multidigit_items(self):
        ps = PatternSet([((2,), 1), ((1, 10), 1), ((1, 2), 1)])
        lines = ps.render().splitlines()
        assert lines == ["1 2\t#SUP: 1", "1 10\t#SUP: 1", "2\t#SUP: 1"]

    def test_equality_and_repr(self):
        ps = PatternSet([((2,), 1), ((1, 10), 3)])
        assert ps == PatternSet([((1, 10), 3), ((2,), 1)])
        assert ps != {(2,): 1, (1, 10): 3}
        assert repr(ps) == "PatternSet([((1, 10), 3), ((2,), 1)])"

    def test_runs_are_deterministic(self, click_db):
        specs = (parse_constraint("gap(time)<=3"), parse_constraint("avg(price)>=2"))
        first = mine_mpp(click_db, specs, 1).render()
        second = mine_mpp(click_db, specs, 1).render()
        assert first == second

class TestMonotoneHandling:
    def test_apriori_property_without_constraints(self):
        rng = random.Random(37)
        for _ in range(15):
            db = random_db(rng, n_max=10, len_max=6)
            theta = random_theta(rng, db)
            out = mine_mpp(db, (), theta)
            supports = {p.items: p.support for p in out}
            for items, support in supports.items():
                for k in range(1, len(items)):
                    prefix = items[:k]
                    assert prefix in supports
                    assert supports[prefix] >= support


def scan_sequence(miner, si, parents, dead, hist):
    """``plan.scan`` over the one-sequence projection ``{si: parents}`` on
    the miner's own tables, without Prop. 5: the admitted entries by item
    and the visited count."""
    candidates, visited, _ = miner.plan.scan(
        ((si, parents),), *miner._tables(dead), miner._items, dead, hist, 1)
    return {item: pdb[si] for item, pdb in candidates.items()}, visited


def reference_scan(plan, si, occurrences, tables, dead):
    """The per-successor loop ``StatPlan.scan`` runs, from independent parts.
    Each parent is an occurrence, or ``None`` for the root; an entry's stats
    are ``definition_stats`` and its verdict is ``scan_verdict`` on that
    entry alone, which also says whether the gate stops its parent.  Also
    returns how many parents the gate stopped, successors ``dead`` dropped
    and entries the dedup dropped."""
    db = plan.db
    starts, nexts = tables[0][si], tables[1][si]
    items = db.sequences[si].items
    fresh, seen = {}, set()
    hist = [0] * (len(plan.specs) + 1)
    visited = gated = abandoned = repeated = 0
    for occ in occurrences:
        if occ is None:
            occ, succs = (), starts
        else:
            succs = list(nexts[occ[-1]])
            if succs and scan_verdict(plan, db, si, occ + (succs[0],)) is None:
                gated += 1
                continue
        for nxt in succs:
            visited += 1
            if items[nxt] in dead:
                abandoned += 1
                continue
            entry = (nxt, *definition_stats(plan, db, si, occ + (nxt,)))
            if entry in seen:
                repeated += 1
                continue
            seen.add(entry)
            verdict = scan_verdict(plan, db, si, occ + (nxt,))
            hist[verdict] += 1
            if verdict == len(plan.specs):
                fresh.setdefault(items[nxt], []).append(entry)
    return list(fresh.items()), hist, visited, gated, abandoned, repeated


class TestScanKernel:
    """``StatPlan.scan`` against the reference loop, on the diagram's
    successor tables with a store and on ppcc's step source without one."""

    def _miners(self, db, specs, theta, with_store=True):
        mdd = build_mdd(db, specs)
        store = propagate(mdd, db, specs) if with_store else None
        return MppMiner(mdd, store, db, specs, theta), PpccMiner(db, specs, theta)

    def _occurrences(self, rng, miner, si):
        """Random occurrences along the source's steps, one of them twice."""
        starts, nexts = miner._tables(set())
        starts, nexts, occurrences = list(starts[si]), nexts[si], []
        for _ in range(rng.randint(1, 6) if starts else 0):
            occ = (rng.choice(starts),)
            for _ in range(rng.randint(0, 3)):
                steps = list(nexts[occ[-1]])
                if not steps:
                    break
                occ += (rng.choice(steps),)
            occurrences.append(occ)
        return occurrences + occurrences[:1]

    def test_equals_reference_loop(self):
        rng = random.Random(41)
        totals = Counter()
        for seed in range(120):
            db, specs, theta = random_instance(seed)
            specs += random_specs(rng, db)
            for miner in self._miners(db, specs, theta):
                plan = miner.plan
                for si, seq in enumerate(db.sequences):
                    distinct = sorted(set(seq.items))
                    dead = set(rng.sample(distinct, rng.randint(0, min(2, len(distinct)))))
                    for occurrences in ([None], self._occurrences(rng, miner, si)):
                        *want, gated, abandoned, repeated = reference_scan(
                            plan, si, occurrences, miner._tables(dead), dead)
                        parents = [None if occ is None else
                                   (occ[-1], *definition_stats(plan, db, si, occ))
                                   for occ in occurrences]
                        hist = [0] * (len(specs) + 1)
                        fresh, visited = scan_sequence(miner, si, parents, dead, hist)
                        assert [list(fresh.items()), hist, visited] == want
                        totals.update(gated=gated, abandoned=abandoned, repeated=repeated,
                                      rejected=sum(hist[:-1]), admitted=hist[-1])
        # every branch of the kernel was taken
        assert min(totals.values()) > 50, totals

    def test_root_stats_equal_definition(self):
        rng = random.Random(43)
        for seed in range(60):
            db, specs, theta = random_instance(seed)
            specs += random_specs(rng, db)
            relaxed = tuple(map(never_rejecting, specs))
            for miner in self._miners(db, relaxed, theta, with_store=False):
                plan = miner.plan
                for si, seq in enumerate(db.sequences):
                    starts = list(miner._tables(set())[0][si])
                    hist = [0] * (len(specs) + 1)
                    fresh, visited = scan_sequence(miner, si, _ROOT, set(), hist)
                    got = sorted(entry for entries in fresh.values() for entry in entries)
                    assert visited == hist[-1] == len(starts)
                    assert got == [(pos, *definition_stats(plan, db, si, (pos,)))
                                   for pos in starts]

    def test_one_kernel_call_per_projection(self):
        for seed in range(40):
            db, specs, theta = random_instance(seed)
            for miner in self._miners(db, specs, theta):
                calls, per_projection = [], []
                scan, scan_candidates = miner.plan.scan, miner._scan_candidates

                def counted_scan(*args):
                    calls.append(args[0])
                    return scan(*args)

                def counted_scan_candidates(projection, sup_p):
                    before = len(calls)
                    out = scan_candidates(projection, sup_p)
                    per_projection.append(len(calls) - before)
                    return out

                miner.plan.scan = counted_scan
                miner._scan_candidates = counted_scan_candidates
                assert miner.mine_patterns() == mine_bruteforce(db, specs, theta)
                assert per_projection and set(per_projection) == {1}

    @staticmethod
    def _prop5_loop(miner, projection, sup_p):
        """The kernel's Prop. 5 filing as a loop over one-sequence scans that
        calls ``prop5_prune`` per (sequence, item), charging the counters as
        ``_scan_candidates`` does."""
        plan, dead = miner.plan, set(miner._infrequent)
        hist = [0] * (len(plan.specs) + 1)
        candidates, visited, scanned = {}, 0, 0
        for n, (si, parents) in enumerate(projection, 1):
            fresh, visits = scan_sequence(miner, si, parents, dead, hist)
            visited += visits
            for item, entries in fresh.items():
                pdb = candidates.get(item)
                if prop5_prune(n, 1 if pdb is None else len(pdb) + 1, sup_p, miner.theta):
                    dead.add(item)
                    candidates.pop(item, None)
                    continue
                candidates.setdefault(item, {})[si] = entries
                scanned += 1
        counters = miner.counters
        counters.nodes_visited += visited
        counters.entries_created += hist[-1]
        counters.scanned_sequences += scanned
        counters.constraint_checks += sum(map(mul, hist, plan.constraint_checks))
        counters.info_probes += sum(map(mul, hist, plan.info_probes))
        return candidates, dead, hist

    def test_prop5_equals_per_item_loop(self):
        pruned = 0
        for seed in range(80):
            db, specs, theta = random_instance(seed)
            for miner in self._miners(db, specs, theta):
                stack = [([(si, _ROOT) for si in range(len(db))], len(db))]
                for _ in range(30):
                    if not stack:
                        break
                    projection, sup_p = stack.pop()
                    dead = set(miner._infrequent)
                    hist = [0] * (len(specs) + 1)
                    candidates, _, _ = miner.plan.scan(
                        projection, *miner._tables(dead), miner._items, dead, hist,
                        sup_p - theta)
                    before = astuple(miner.counters)
                    kept = miner._scan_candidates(projection, sup_p)
                    kernel = astuple(miner.counters)
                    want = self._prop5_loop(miner, projection, sup_p)
                    loop = astuple(miner.counters)
                    assert (candidates, dead, hist) == want
                    assert kept == [(item, pdb) for item, pdb in sorted(want[0].items())
                                    if len(pdb) >= theta]
                    assert [k - b for k, b in zip(kernel, before)] == \
                        [l - k for l, k in zip(loop, kernel)]
                    pruned += len(dead - miner._infrequent)
                    stack += [(list(pdb.items()), len(pdb)) for _, pdb in kept]
        assert pruned > 100, pruned


#: MiningCounters fields of mine and of mine_ppcc, in declaration order
#: (nodes_visited, entries_created, scanned_sequences, constraint_checks,
#: info_probes, patterns_emitted, peak_entries), recorded while admission
#: still counted one call per check; the compiled plan's prefix tables must
#: reproduce them exactly.  The session cases count items abandoned up front
#: for plain support below theta: they get no entry and no admission.  ppcc's
#: step scan skips abandoned items before any step check, so its visits and
#: checks leave them out as well.
PINNED_COUNTERS = {
    40: ((1268, 1002, 313, 1785, 2010, 15, 204), (1206, 1005, 315, 1791, 0, 15, 207)),
    96: ((1223, 1094, 653, 1303, 3407, 130, 112), (1268, 1258, 710, 1410, 0, 130, 156)),
    261: ((773, 497, 220, 1143, 1360, 24, 83), (1314, 1155, 381, 2496, 0, 24, 234)),
    328: ((2167, 2097, 415, 3141, 2117, 30, 350), (2268, 2207, 429, 3361, 0, 30, 354)),
    349: ((583, 497, 248, 819, 1044, 7, 131), (602, 598, 276, 966, 0, 7, 145)),
    "click_db": ((8, 0, 0, 0, 8, 0, 0), (13, 13, 9, 60, 0, 0, 8)),
    "sessions": ((18503, 12154, 8037, 36374, 133343, 26, 2252),
                 (30315, 30313, 18288, 117375, 0, 26, 5169)),
    "sessions_s1": ((13837, 8670, 5655, 18257, 10243, 13, 2064),
                    (13799, 13257, 8504, 45819, 0, 13, 3755)),
}


class TestPinnedCounters:
    def _counters(self, db, specs, theta):
        mdd = build_mdd(db, specs)
        store = propagate(mdd, db, specs)
        mpp, ppcc = MiningCounters(), MiningCounters()
        assert mine(mdd, store, db, specs, theta, counters=mpp) == mine_ppcc(
            db, specs, theta, counters=ppcc)
        return astuple(mpp), astuple(ppcc)

    @pytest.mark.parametrize("seed", [k for k in PINNED_COUNTERS if isinstance(k, int)])
    def test_random_instances(self, seed):
        assert self._counters(*random_instance(seed)) == PINNED_COUNTERS[seed]

    @pytest.mark.parametrize("name", ["click_db", "sessions"])
    def test_scenario_3(self, name, click_db):
        # the click database declares no quality, so both inputs take their
        # attributes from the generator
        base = click_db if name == "click_db" else generate_sessions(400, 100, seed=2024)
        table = generate_attributes(base, seed=1 if name == "click_db" else 99)
        db = attach_attributes(base, table, ordering_attribute="time")
        specs = tuple(parse_constraint(t) for t in SCENARIOS[3])
        theta = 1 if name == "click_db" else 4
        assert self._counters(db, specs, theta) == PINNED_COUNTERS[name]

    def test_scenario_1_abandons_items_at_the_root(self):
        # theta 20 leaves 26 of the 100 items frequent, so the plain-support
        # rule removes items before the root scan
        base = generate_sessions(400, 100, seed=2024)
        table = generate_attributes(base, seed=99)
        db = attach_attributes(base, table, ordering_attribute="time")
        specs = tuple(parse_constraint(t) for t in SCENARIOS[1])
        miner = MppMiner(build_mdd(db, specs), None, db, specs, 20)
        assert 0 < len(miner._infrequent) < len(db.item_universe)
        assert self._counters(db, specs, 20) == PINNED_COUNTERS["sessions_s1"]
