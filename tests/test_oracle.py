import random

import pytest

from mddmine import (
    mine_bruteforce,
    mine_mpp,
    mine_ppcc,
    parse_constraint,
    support_of,
)

from conftest import A, B, C
from dbgen import random_instance


def as_pairs(patterns):
    return sorted((p.items, p.support) for p in patterns)


class TestBruteForce:
    def test_click_theta_two(self, click_db):
        out = mine_bruteforce(click_db, (), 2)
        assert as_pairs(out) == [((A,), 2), ((B,), 2), ((B, B), 2)]

    def test_theta_above_n_is_empty(self, click_db):
        assert len(mine_bruteforce(click_db, (), 4)) == 0

    def test_max_len_one_gives_frequent_items(self, click_db):
        out = mine_bruteforce(click_db, (), 1, max_len=1)
        assert as_pairs(out) == [((A,), 2), ((B,), 2), ((C,), 1)]

    @pytest.mark.parametrize("cap", [0, -3])
    def test_max_len_below_one_rejected(self, click_db, cap):
        with pytest.raises(ValueError, match="length cap must be at least 1"):
            mine_bruteforce(click_db, (), 1, max_len=cap)

    def test_theta_zero_rejected(self, click_db):
        with pytest.raises(ValueError):
            mine_bruteforce(click_db, (), 0)


class TestPpcc:
    def test_matches_brute_on_click_db(self, click_db):
        assert mine_ppcc(click_db, (), 2) == mine_bruteforce(click_db, (), 2)

    def test_gap_lower_bound(self, click_db):
        out = mine_ppcc(click_db, (parse_constraint("gap(time)>=3"),), 2)
        assert as_pairs(out) == [((A,), 2), ((B,), 2)]

    def test_unsatisfiable_sum_yields_nothing(self, click_db):
        out = mine_ppcc(click_db, (parse_constraint("sum(price)>=10000"),), 1)
        assert len(out) == 0

    def test_theta_zero_rejected(self, click_db):
        with pytest.raises(ValueError):
            mine_ppcc(click_db, (), 0)


class TestEquivalence:
    def test_three_miners_agree_on_random_instances(self):
        for seed in range(40):
            db, specs, theta = random_instance(seed + 1000)
            mpp = mine_mpp(db, specs, theta)
            ppcc = mine_ppcc(db, specs, theta)
            brute = mine_bruteforce(db, specs, theta)
            assert mpp == brute, (seed, specs, theta)
            assert ppcc == brute, (seed, specs, theta)

    def test_constrained_mining_equals_postfiltered_unconstrained(self):
        for seed in range(12):
            db, specs, theta = random_instance(seed + 5000)
            unconstrained = mine_bruteforce(db, (), theta)
            refiltered = {
                p.items: support_of(p.items, db, specs)
                for p in unconstrained
            }
            expected = sorted(
                (items, sup) for items, sup in refiltered.items() if sup >= theta
            )
            assert expected == as_pairs(mine_bruteforce(db, specs, theta))
