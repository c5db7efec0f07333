import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mddmine import (
    GE,
    LE,
    ConstraintSpec,
    Kind,
    Monotonicity,
    check_occurrence,
    classify,
    format_constraint,
    make_database,
    parse_constraint,
    support_of,
)
from mddmine.constraints import EmptyOccurrenceError, exact_median, pairwise_rules

from conftest import A, B, C
from dbgen import random_db, random_specs

M = Monotonicity.MONOTONE
AM = Monotonicity.ANTI_MONOTONE
PAM = Monotonicity.PREFIX_ANTI_MONOTONE
NM = Monotonicity.NON_MONOTONE


def spec(kind, direction=None, c=None, attr="x", items=None):
    if kind is Kind.ITEM_SET:
        return ConstraintSpec(kind, items=frozenset(items))
    if kind is Kind.LENGTH:
        return ConstraintSpec(kind, direction=direction, c=c)
    return ConstraintSpec(kind, attribute=attr, direction=direction, c=c)


def occ(values, attr="x", items=None):
    """A one-sequence database's only sequence and the positions of all its events."""
    items = items or [0] * len(values)
    seq = make_database([items], {attr: [values]}).sequences[0]
    return seq, tuple(range(len(values)))


class TestClassify:
    @pytest.mark.parametrize(
        "kind,direction,expected",
        [
            (Kind.LENGTH, GE, M), (Kind.LENGTH, LE, AM),
            (Kind.GAP, LE, PAM), (Kind.GAP, GE, AM),
            (Kind.SPAN, LE, AM), (Kind.SPAN, GE, M),
            (Kind.MAX, GE, M), (Kind.MAX, LE, AM),
            (Kind.MIN, LE, M), (Kind.MIN, GE, AM),
            (Kind.SUM, GE, NM), (Kind.SUM, LE, NM),
            (Kind.AVG, GE, NM), (Kind.AVG, LE, NM),
            (Kind.MED, GE, NM), (Kind.MED, LE, NM),
        ],
    )
    def test_table(self, kind, direction, expected):
        assert classify(spec(kind, direction, 5)) is expected

    def test_item_set(self):
        assert classify(spec(Kind.ITEM_SET, items=[1, 2])) is PAM

    def test_examples(self):
        assert classify(parse_constraint("span(time)>=900")) is M
        assert classify(parse_constraint("gap(time)<=900")) is PAM
        assert classify(parse_constraint("avg(price)>=30")) is NM


class TestCheckOccurrence:
    def test_gap_lower_bound_fails_on_tight_step(self):
        # full second-sequence embedding, times 3, 8, 9: the 8->9 gap is 1
        seq, every = occ([3, 8, 9], attr="time")
        assert not check_occurrence(seq, every, spec(Kind.GAP, GE, 3, attr="time"))
        assert check_occurrence(seq, every[:2], spec(Kind.GAP, GE, 3, attr="time"))

    def test_gap_reads_only_the_given_positions(self):
        # skipping the event at time 8 leaves the single step 3 -> 9
        seq, _ = occ([3, 8, 9], attr="time")
        assert check_occurrence(seq, (0, 2), spec(Kind.GAP, GE, 6, attr="time"))
        assert not check_occurrence(seq, (0, 2), spec(Kind.GAP, LE, 5, attr="time"))

    def test_gap_upper_bound(self):
        # minimal C..A embedding in the third sequence, times 2 and 8
        assert not check_occurrence(*occ([2, 8], attr="time"),
                                    spec(Kind.GAP, LE, 3, attr="time"))

    def test_median_singleton(self):
        assert check_occurrence(*occ([5], attr="price"),
                                spec(Kind.MED, GE, 5, attr="price"))

    def test_median_even_is_exact_half(self):
        prices = occ([1, 2], attr="price")
        assert check_occurrence(*prices, spec(Kind.MED, GE, 1, attr="price"))
        assert not check_occurrence(*prices, spec(Kind.MED, GE, 2, attr="price"))
        assert exact_median([1, 2]) == Fraction(3, 2)

    def test_average_exact(self):
        values = occ([1, 2])
        assert check_occurrence(*values, spec(Kind.AVG, GE, 1))
        assert not check_occurrence(*values, spec(Kind.AVG, GE, 2))

    def test_span_max_min_sum_length(self):
        values = occ([4, 9, 2])
        assert check_occurrence(*values, spec(Kind.SPAN, GE, 7))
        assert not check_occurrence(*values, spec(Kind.SPAN, LE, 6))
        assert check_occurrence(*values, spec(Kind.MAX, GE, 9))
        assert check_occurrence(*values, spec(Kind.MIN, LE, 2))
        assert check_occurrence(*values, spec(Kind.SUM, LE, 15))
        assert check_occurrence(*values, spec(Kind.LENGTH, GE, 3))

    def test_item_set(self):
        events = occ([0, 0], items=[1, 5])
        assert check_occurrence(*events, spec(Kind.ITEM_SET, items=[1, 5, 9]))
        assert not check_occurrence(*events, spec(Kind.ITEM_SET, items=[1, 9]))

    def test_empty_occurrence_error(self):
        with pytest.raises(EmptyOccurrenceError):
            check_occurrence(occ([0])[0], (), spec(Kind.SUM, GE, 0))


@given(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=6),
    st.sampled_from([Kind.LENGTH, Kind.GAP, Kind.SPAN, Kind.MAX, Kind.MIN,
                     Kind.SUM, Kind.AVG, Kind.MED]),
    st.integers(min_value=-40, max_value=40),
)
def test_both_directions_hold_iff_statistic_equals_bound(values, kind, c):
    events = occ(values)
    lower = check_occurrence(*events, spec(kind, GE, c))
    upper = check_occurrence(*events, spec(kind, LE, c))
    if kind is Kind.LENGTH:
        equal = len(values) == c
    elif kind is Kind.GAP:
        diffs = [b - a for a, b in zip(values, values[1:])]
        equal = all(d == c for d in diffs)
    elif kind is Kind.SPAN:
        equal = max(values) - min(values) == c
    elif kind is Kind.MAX:
        equal = max(values) == c
    elif kind is Kind.MIN:
        equal = min(values) == c
    elif kind is Kind.SUM:
        equal = sum(values) == c
    elif kind is Kind.AVG:
        equal = Fraction(sum(values), len(values)) == c
    else:
        equal = exact_median(values) == c
    assert (lower and upper) == equal


class TestSupport:
    def test_unconstrained_pair(self, click_db):
        assert support_of([B, B], click_db) == 2

    def test_gap_constrained_pair(self, click_db):
        assert support_of([B, B], click_db, (parse_constraint("gap(time)>=3"),)) == 1

    def test_single_item(self, click_db):
        assert support_of([C], click_db) == 1

    def test_views_only_for_sequences_holding_the_pattern(self, click_db, monkeypatch):
        viewed, view = [], type(click_db).sequence
        monkeypatch.setattr(type(click_db), "sequence",
                            lambda db, si: viewed.append(si) or view(db, si))
        assert support_of([B, A], click_db) == 1  # only sid 2 holds B before A
        assert support_of([C, C, A], click_db) == 1
        assert viewed == [1, 2]

    def test_empty_pattern_rejected(self, click_db):
        with pytest.raises(ValueError):
            support_of([], click_db)

    def test_adding_specs_never_increases_support(self):
        rng = random.Random(7)
        for _ in range(30):
            db = random_db(rng, n_max=12, len_max=6)
            specs = list(random_specs(rng, db, max_specs=3))
            seq = rng.choice(db.sequences)
            length = rng.randint(1, min(3, len(seq)))
            start = rng.randrange(len(seq) - length + 1)
            pattern = seq.items[start:start + length]
            previous = support_of(pattern, db)
            acc = []
            for s in specs:
                acc.append(s)
                current = support_of(pattern, db, acc)
                assert current <= previous
                previous = current


class TestSyntax:
    @pytest.mark.parametrize(
        "text",
        ["gap(time)>=30", "avg(price)<=70", "itemset{1,5,9}", "length>=2",
         "med(quality)<=70", "span(time)>=900", "sum(price)<=-4", "max(price)<=9",
         "min(price)>=1"],
    )
    def test_round_trip(self, text):
        spec = parse_constraint(text)
        assert format_constraint(spec) == str(spec) == text

    def test_whitespace_tolerated(self):
        assert parse_constraint(" gap(time) >= 30 ") == parse_constraint("gap(time)>=30")

    @pytest.mark.parametrize("text", ["gap(time)=30", "avg>=3", "itemset{}", "len>=2"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_constraint(text)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ConstraintSpec(Kind.GAP, direction=GE, c=3)  # attribute missing
        with pytest.raises(ValueError):
            ConstraintSpec(Kind.LENGTH, attribute="x", direction=GE, c=3)
        with pytest.raises(ValueError):
            ConstraintSpec(Kind.ITEM_SET, items=frozenset())

    @pytest.mark.parametrize("fields, message", [
        (dict(kind=Kind.ITEM_SET, items={1}, c=3),
         "item_set constraint takes no attribute, direction, or bound"),
        (dict(kind=Kind.SUM, attribute="x", direction=GE, c=3, items={1}),
         "sum constraint takes no item set"),
        (dict(kind=Kind.SUM, attribute="x", direction="=", c=3),
         "sum constraint needs direction '>=' or '<='"),
        (dict(kind=Kind.SUM, attribute="x", direction=GE, c=3.5),
         "sum constraint needs an integer bound"),
        # a bool is no bound: it would render as length>=True
        (dict(kind=Kind.LENGTH, direction=GE, c=True),
         "length constraint needs an integer bound"),
    ])
    def test_spec_validation_messages(self, fields, message):
        with pytest.raises(ValueError) as err:
            ConstraintSpec(**fields)
        assert str(err.value) == message

    def test_median_of_nothing_is_undefined(self):
        with pytest.raises(EmptyOccurrenceError) as err:
            exact_median([])
        assert str(err.value) == "median of an empty value list is undefined"


class TestPairwiseRules:
    def test_gap_bounds_compose(self):
        rules = pairwise_rules(
            (parse_constraint("gap(t)>=3"), parse_constraint("gap(t)<=9"),
             parse_constraint("gap(t)>=5"))
        )
        assert rules.gap_bounds == (("t", 5, 9),)

    def test_item_sets_intersect(self):
        rules = pairwise_rules(
            (parse_constraint("itemset{1,2,3}"), parse_constraint("itemset{2,3,4}"))
        )
        assert rules.allowed_items == {2, 3}

    def test_non_pairwise_ignored(self):
        rules = pairwise_rules((parse_constraint("span(t)<=9"),))
        assert rules.allowed_items is None
        assert rules.gap_bounds == ()


def test_unknown_attribute_is_rejected_clearly(click_db):
    bad = parse_constraint("gap(weight)>=3")
    with pytest.raises(ValueError, match="weight"):
        support_of([B, B], click_db, (bad,))
