import random
from collections import Counter
from dataclasses import replace

import pytest

import mddmine.mdd as mdd_module
from mddmine import (
    GE,
    LE,
    ConstraintSpec,
    Kind,
    Mdd,
    build_mdd,
    export_dot,
    make_database,
    mine,
    mine_bruteforce,
    parse_constraint,
    parse_spmf,
    propagate,
    validate,
)
from mddmine.constraints import check_occurrence, imposable, pairwise_rules
from mddmine.mdd import ROOT_ITEM, TERMINAL_ITEM

from conftest import A, B, C, build_click_db
from dbgen import random_db, random_specs


class TestBuildUnconstrained:
    def test_layer_one_has_no_a_node(self, click_db):
        mdd = build_mdd(click_db)
        assert mdd.layer_items(1) == [B, C]

    def test_layer_sizes(self, click_db):
        assert build_mdd(click_db).layer_sizes() == [2, 3, 2]

    def test_single_sequence_complete_reachability(self):
        db = make_database([[1, 2, 3]])
        mdd = build_mdd(db)
        assert tuple(map(tuple, mdd.succ[0])) == ((1, 2), (2,), ())
        assert tuple(mdd.starts[0]) == (0, 1, 2)
        arcs = mdd.arcs()
        root_targets = [target for source, target in arcs if source == (0, ROOT_ITEM)]
        assert root_targets == [(1, 1), (2, 2), (3, 3)]
        for node in ((1, 1), (2, 2), (3, 3)):
            assert arcs[(node, (4, TERMINAL_ITEM))] == [1]

    def test_node_labels_carry_per_sid_attributes(self, click_db):
        mdd = build_mdd(click_db)
        assert mdd.labels(1, B) == {1: (1, 5), 2: (3, 3)}

    def test_empty_db(self):
        mdd = build_mdd(parse_spmf(""))
        assert mdd.n_layers == 0 and mdd.layer_sizes() == []
        assert mdd.arcs() == {}
        assert validate(mdd).ok

    def test_mining_and_validation_read_only_the_tables(self, click_db, monkeypatch):
        def fail(*args):
            raise AssertionError("read a structure view")

        for view in ("arcs", "labels", "layer_items"):
            monkeypatch.setattr(Mdd, view, fail)
        specs = (parse_constraint("gap(time)>=3"),)
        mdd = build_mdd(click_db, specs)
        assert validate(mdd).ok
        store = propagate(mdd, click_db, specs)
        assert mine(mdd, store, click_db, specs, 2) == mine_bruteforce(click_db, specs, 2)


class TestBuildConstrained:
    def test_gap_lower_bound_arcs(self, click_db):
        mdd = build_mdd(click_db, (parse_constraint("gap(time)>=3"),))
        # first sequence: gap 3-1=2 below the bound, no arc
        assert tuple(map(tuple, mdd.succ[0])) == ((), ())
        # second sequence: B at layer 1 reaches B at layer 3 (gap 6)
        assert tuple(mdd.succ[1][0]) == (1, 2)
        arcs = mdd.arcs()
        assert 1 not in arcs.get(((1, B), (2, B)), [])
        assert 2 in arcs[((1, B), (3, B))]

    def test_gap_upper_bound_larger_prefix_case(self, click_db):
        mdd = build_mdd(click_db, (parse_constraint("gap(time)<=3"),))
        # third sequence times 2, 5, 8: C@1 reaches only C@2; C@2 reaches A@3
        assert tuple(map(tuple, mdd.succ[2])) == ((1,), (2,), ())

    def test_item_set_removes_arcs_and_starts(self, click_db):
        mdd = build_mdd(click_db, (parse_constraint("itemset{2}"),))
        assert mdd.starts[2] == ()           # third sequence has no item B
        assert mdd.starts[0] == (0, 1)
        assert mdd.succ[1] == ((2,), (), ())  # B..B skipping the A event

    def test_constrained_arcs_are_subset(self):
        rng = random.Random(3)
        for _ in range(20):
            db = random_db(rng, n_max=10, len_max=6)
            specs = random_specs(rng, db)
            free = build_mdd(db)
            constrained = build_mdd(db, specs)
            for si in range(len(db)):
                for pos in range(len(db.sequences[si])):
                    assert set(constrained.succ[si][pos]) <= set(free.succ[si][pos])

    def test_arc_gap_condition_holds(self):
        rng = random.Random(4)
        for _ in range(20):
            db = random_db(rng, n_max=10, len_max=6)
            specs = random_specs(rng, db)
            rules = pairwise_rules(specs)
            mdd = build_mdd(db, specs)
            for si, seq in enumerate(db.sequences):
                cols = {attr: seq.attr_values(attr) for attr, _, _ in rules.gap_bounds}
                for pos, nexts in enumerate(mdd.succ[si]):
                    for nxt in nexts:
                        for attr, lo, hi in rules.gap_bounds:
                            delta = cols[attr][nxt] - cols[attr][pos]
                            assert lo is None or delta >= lo
                            assert hi is None or delta <= hi


def _as_tuples(succ):
    return [tuple(map(tuple, table)) for table in succ]


class TestWindowBuild:
    """Rows bisected out of the ordering attribute equal the per-pair rule."""

    #: gap bounds on the first attribute: lower only, upper only, both,
    #: bounds at or below 0, and upper bounds below every delta
    BOUNDS = ((3, None), (None, 5), (2, 7), (-4, None), (0, 3), (-2, -1),
              (None, 0), (None, -3), (6, 2))

    @staticmethod
    def _pairwise_table(db, specs):
        imposed = imposable(specs)
        return [
            tuple(
                tuple(k for k in range(j + 1, len(seq))
                      if all(check_occurrence(seq, (j, k), s) for s in imposed))
                for j in range(len(seq)))
            for seq in db.sequences
        ]

    @pytest.mark.parametrize("ordered", [True, False])
    def test_rows_equal_the_pairwise_rule(self, ordered):
        rng = random.Random(13)
        arcs = 0
        for lo, hi in self.BOUNDS:
            for _ in range(8):
                db = random_db(rng, n_max=8, len_max=9, n_attrs=2, with_ordering=ordered)
                specs = [ConstraintSpec(Kind.GAP, attribute="t", direction=direction, c=c)
                         for direction, c in ((GE, lo), (LE, hi)) if c is not None]
                if rng.random() < 0.5:
                    universe = sorted(db.item_universe)
                    items = rng.sample(universe, rng.randint(1, len(universe)))
                    specs.append(ConstraintSpec(Kind.ITEM_SET, items=frozenset(items)))
                if rng.random() < 0.5:
                    specs.append(ConstraintSpec(Kind.GAP, attribute="p",
                                                direction=rng.choice((GE, LE)),
                                                c=rng.randint(-8, 8)))
                mdd = build_mdd(db, specs)
                report = validate(mdd)
                assert report.ok, report.problems
                assert _as_tuples(mdd.succ) == self._pairwise_table(db, specs)
                rows = [row for table in mdd.succ for row in table]
                if ordered and hi is not None and hi <= 0:
                    assert not any(rows)  # the ordering deltas are all >= 1
                arcs += sum(map(len, rows))
        assert arcs > 0

    def test_rows_are_windows_unless_filtered(self):
        rng = random.Random(17)
        kinds = Counter()
        for lo, hi in self.BOUNDS:
            for filters in ((), ("items",), ("gap",), ("items", "gap")):
                db = random_db(rng, n_max=8, len_max=9, n_attrs=2, with_ordering=True)
                specs = [ConstraintSpec(Kind.GAP, attribute="t", direction=direction, c=c)
                         for direction, c in ((GE, lo), (LE, hi)) if c is not None]
                if "items" in filters:
                    items = sorted(db.item_universe)[::2]
                    specs.append(ConstraintSpec(Kind.ITEM_SET, items=frozenset(items)))
                if "gap" in filters:
                    specs.append(ConstraintSpec(Kind.GAP, attribute="p", direction=GE,
                                                c=rng.randint(-8, 8)))
                mdd = build_mdd(db, specs)
                assert _as_tuples(mdd.succ) == self._pairwise_table(db, specs)
                row_type = tuple if filters else range
                for seq, table, starts in zip(db.sequences, mdd.succ, mdd.starts):
                    assert all(type(row) is row_type for row in table)
                    if "items" in filters:
                        assert type(starts) is tuple
                    else:
                        assert starts == range(len(seq))
                    kinds[row_type] += len(table)
        assert min(kinds[range], kinds[tuple]) > 100, kinds


class TestValidate:
    def test_fresh_builds_validate(self):
        rng = random.Random(5)
        for _ in range(15):
            db = random_db(rng, n_max=10, len_max=6)
            specs = random_specs(rng, db)
            report = validate(build_mdd(db, specs))
            assert report.ok, report.problems

    def test_layer_counts_match_distinct_items(self):
        rng = random.Random(6)
        for _ in range(15):
            db = random_db(rng, n_max=12, len_max=7)
            mdd = build_mdd(db)
            max_len = max(len(s) for s in db.sequences)
            for layer in range(1, max_len + 1):
                distinct = {
                    seq.items[layer - 1]
                    for seq in db.sequences
                    if len(seq) >= layer
                }
                assert len(mdd.layer_items(layer)) == len(distinct)

    def test_tampered_successors_detected(self, click_db):
        mdd = build_mdd(click_db, (parse_constraint("gap(time)>=3"),))
        rows = list(mdd.succ[0])
        rows[0] = (1,)  # reinstate an arc the gap bound forbids
        mdd.succ[0] = tuple(rows)
        assert not validate(mdd).ok

    def test_widened_window_detected(self, click_db):
        mdd = build_mdd(click_db, (parse_constraint("gap(time)<=3"),))
        rows = list(mdd.succ[2])  # third sequence, times 2, 5, 8
        assert rows[0] == range(1, 2)
        rows[0] = range(1, 3)  # the arc 1->3 spans a gap of 6
        mdd.succ[2] = tuple(rows)
        assert validate(mdd).problems == ["sid 3: forbidden arc 1->3"]

    def test_checks_arcs_without_rebuilding(self, click_db, monkeypatch):
        real_rules = mdd_module.pairwise_rules

        def drop_gap_upper_bounds(specs):
            rules = real_rules(specs)
            bounds = tuple((attr, lo, None) for attr, lo, _ in rules.gap_bounds)
            return replace(rules, gap_bounds=bounds)

        # a build that ignores gap(time)<=3; the validator must not share it
        monkeypatch.setattr(mdd_module, "pairwise_rules", drop_gap_upper_bounds)
        mdd = build_mdd(click_db, (parse_constraint("gap(time)<=3"),))
        report = validate(mdd)
        assert not report.ok
        # third sequence, times 2, 5, 8: the arc 1->3 spans a gap of 6
        assert "sid 3: forbidden arc 1->3" in report.problems

    def test_tampered_liveness_and_starts_detected(self, click_db):
        mdd = build_mdd(click_db, (parse_constraint("itemset{2}"),))
        mdd.starts[0] = (0,)  # both events of the first sequence are item 2
        problems = validate(mdd).problems
        assert "sid 1: start positions differ from the imposed rules" in problems

    def test_missing_sequence_table_detected(self, click_db):
        mdd = build_mdd(click_db)
        mdd.succ.pop()
        assert validate(mdd).problems == [
            "successor tables do not cover the 3 sequences"]

    # the second sequence's first event has successors 2 and 3
    @pytest.mark.parametrize("row, problem", [
        (None, "sid 2: successor table has the wrong length"),
        ((2,), "sid 2: missing arc 1->2"),
        ((2, 1), "sid 2: successors of 1 not ascending"),
    ])
    def test_tampered_row_detected(self, click_db, row, problem):
        mdd = build_mdd(click_db)
        rows = list(mdd.succ[1])
        assert tuple(rows[0]) == (1, 2)
        mdd.succ[1] = tuple(rows[:2]) if row is None else (row, *rows[1:])
        assert validate(mdd).problems == [problem]


#: the click database's header and node lines
CLICK_DOT_HEAD = """\
digraph mdd {
  rankdir=LR;
  r [label="r"];
  n1_2 [label="2@1"];
  n1_3 [label="3@1"];
  n2_1 [label="1@2"];
  n2_2 [label="2@2"];
  n2_3 [label="3@2"];
  n3_1 [label="1@3"];
  n3_2 [label="2@3"];
  t [label="t"];
"""

#: the click database's arcs with nothing imposed, closing brace included
CLICK_DOT_ARCS = """\
  r -> n1_2 [label="1,2"];
  r -> n1_3 [label="3"];
  r -> n2_1 [label="2"];
  r -> n2_2 [label="1"];
  r -> n2_3 [label="3"];
  r -> n3_1 [label="3"];
  r -> n3_2 [label="2"];
  n1_2 -> n2_1 [label="2"];
  n1_2 -> n2_2 [label="1"];
  n1_2 -> n3_2 [label="2", style=dashed];
  n1_2 -> t [label="1,2"];
  n1_3 -> n2_3 [label="3"];
  n1_3 -> n3_1 [label="3", style=dashed];
  n1_3 -> t [label="3"];
  n2_1 -> n3_2 [label="2"];
  n2_1 -> t [label="2"];
  n2_2 -> t [label="1"];
  n2_3 -> n3_1 [label="3"];
  n2_3 -> t [label="3"];
  n3_1 -> t [label="3"];
  n3_2 -> t [label="2"];
}
"""


class TestExportDot:
    def test_empty_db_has_only_virtual_nodes(self):
        text = export_dot(build_mdd(parse_spmf("")))
        assert 'r [label="r"]' in text and 't [label="t"]' in text
        assert "n1_" not in text

    def test_click_db_interior_node_count(self, click_db):
        text = export_dot(build_mdd(click_db))
        interior = [ln for ln in text.splitlines() if ln.strip().startswith("n") and "label" in ln and "->" not in ln]
        assert len(interior) == 7

    def test_deterministic(self, click_db):
        first = export_dot(build_mdd(click_db))
        second = export_dot(build_mdd(build_click_db()))
        assert first == second

    def test_click_db_full_text(self, click_db):
        assert export_dot(build_mdd(click_db)) == CLICK_DOT_HEAD + CLICK_DOT_ARCS

    def test_click_db_gap_full_text(self, click_db):
        # gap(time)>=3 drops sid 1's arc 2@1 -> 2@2 and sid 2's arc 1@2 -> 2@3
        text = export_dot(build_mdd(click_db, (parse_constraint("gap(time)>=3"),)))
        dropped = ('  n1_2 -> n2_2 [label="1"];\n', '  n2_1 -> n3_2 [label="2"];\n')
        arcs = CLICK_DOT_ARCS
        for line in dropped:
            assert line in arcs
            arcs = arcs.replace(line, "")
        assert text == CLICK_DOT_HEAD + arcs

    def test_skip_arcs_dashed(self, click_db):
        text = export_dot(build_mdd(click_db))
        assert 'n1_2 -> n3_2 [label="2", style=dashed]' in text
        assert 'n1_2 -> n2_2 [label="1"]' in text
