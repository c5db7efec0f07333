import random

import pytest

from mddmine import (
    MiningCounters,
    PatternSet,
    build_mdd,
    mine,
    mine_mpp,
    parse_constraint,
    prop5_prune,
    propagate,
)
from mddmine.miner import MppMiner

from conftest import A, B, C
from dbgen import random_db, random_specs, random_theta


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
        assert {sid: [pos for pos, _ in entries] for sid, entries in pdb.entries.items()} \
            == {1: [(0,), (1,)], 2: [(0,), (2,)]}
        candidates = miner.extend(pdb)
        # A reaches only sequence 2, so with theta=2 just B..B survives
        assert [item for item, _ in candidates] == [B]
        child = dict(candidates)[B]
        assert sorted(child.entries) == [1, 2]

    def test_extension_for_c_under_gap_upper_bound(self, click_db):
        specs = (parse_constraint("gap(time)<=3"),)
        miner = self._miner(click_db, specs, 1)
        base = dict(miner.root_candidates())
        candidates = dict(miner.extend(base[C]))
        # A is reachable only through the larger prefix ending at position 2
        assert [pos for pos, _ in candidates[A].entries[3]] == [(1, 2)]

    def test_no_out_arcs_yields_nothing(self, click_db):
        from mddmine import ProjectedDb

        miner = self._miner(click_db, (), 1)
        base = dict(miner.root_candidates())
        # keep only the entry at the last position of sequence 3
        pdb = ProjectedDb({3: base[A].entries[3]})
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


class TestArguments:
    def test_theta_zero_rejected(self, click_db):
        with pytest.raises(ValueError):
            mine_mpp(click_db, (), 0)

    def test_more_than_one_thread_rejected(self, click_db):
        assert mine_mpp(click_db, (), 2, threads=1) == mine_mpp(click_db, (), 2)
        with pytest.raises(ValueError):
            mine_mpp(click_db, (), 2, threads=2)


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
