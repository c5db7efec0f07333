import gc
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mddmine import (
    AttributeTable,
    attach_attributes,
    format_attribute_tsv,
    generate_attributes,
    generate_sessions,
    make_database,
    parse_attribute_tsv,
    parse_spmf,
    stats,
    to_spmf,
)
from mddmine.seqdb import (
    AttributedDatabase,
    AttributeCoverageError,
    OrderingError,
    SeqDbError,
    SpmfFormatError,
    UnsupportedItemsetError,
)

from conftest import CLICK_ATTR_TSV, CLICK_SPMF


class TestParseSpmf:
    def test_two_sequences(self):
        db = parse_spmf("1 -1 2 -1 -2\n3 -1 -2")
        assert [seq.items for seq in db.sequences] == [(1, 2), (3,)]

    def test_empty_input(self):
        db = parse_spmf("")
        assert len(db) == 0

    def test_blank_lines_skipped(self):
        db = parse_spmf("\n1 -1 -2\n\n")
        assert len(db) == 1

    def test_multi_item_itemset_rejected(self):
        with pytest.raises(UnsupportedItemsetError):
            parse_spmf("1 2 -1 -2")

    def test_malformed_token_reports_line(self):
        with pytest.raises(SpmfFormatError) as err:
            parse_spmf("1 -1 -2\nx -1 -2")
        assert err.value.line == 2

    def test_missing_terminator(self):
        with pytest.raises(SpmfFormatError):
            parse_spmf("1 -1")

    def test_tokens_after_terminator(self):
        with pytest.raises(SpmfFormatError):
            parse_spmf("1 -1 -2 3")

    def test_bad_negative_token(self):
        with pytest.raises(SpmfFormatError):
            parse_spmf("1 -3 -2")

    def test_sequence_without_events(self):
        with pytest.raises(SpmfFormatError):
            parse_spmf("-2")

    @pytest.mark.parametrize("text, message", [
        ("1 -1 2 -2", "line 1: itemset not closed by -1 before -2"),
        ("1 -1 -1 -2", "line 1: empty itemset"),
    ])
    def test_itemset_errors(self, text, message):
        with pytest.raises(SpmfFormatError) as err:
            parse_spmf(text)
        assert str(err.value) == message

    def test_item_universe(self):
        db = parse_spmf(CLICK_SPMF)
        assert db.item_universe == {1, 2, 3}


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=99), min_size=1, max_size=6),
        max_size=8,
    )
)
def test_spmf_round_trip(item_lists):
    db = make_database(item_lists)
    text = to_spmf(db)
    again = parse_spmf(text)
    assert [s.items for s in again.sequences] == [tuple(i) for i in item_lists]
    assert to_spmf(again) == text


class TestAttachAttributes:
    def test_click_rows(self):
        db = parse_spmf(CLICK_SPMF)
        table = parse_attribute_tsv(CLICK_ATTR_TSV)
        out = attach_attributes(db, table, ordering_attribute="time")
        second = out.sequences[1]
        events = zip(second.items, second.attr_values("time"), second.attr_values("price"))
        assert list(events) == [(2, 3, 3), (1, 8, 1), (2, 9, 3)]
        assert out.attribute_names == ("time", "price")
        assert out.ordering_attribute == "time"

    def test_empty_table_on_empty_db(self):
        out = attach_attributes(parse_spmf(""), parse_attribute_tsv(""))
        assert len(out) == 0

    def test_row_out_of_range(self):
        db = parse_spmf("1 -1 -2\n2 -1 -2\n3 -1 -2")
        table = parse_attribute_tsv("sid\tpos\ttime\n4\t1\t5\n")
        with pytest.raises(AttributeCoverageError):
            attach_attributes(db, table)

    def test_missing_row(self):
        db = parse_spmf("1 -1 2 -1 -2")
        table = parse_attribute_tsv("sid\tpos\ttime\n1\t1\t5\n")
        with pytest.raises(AttributeCoverageError):
            attach_attributes(db, table)

    def test_duplicate_row(self):
        db = parse_spmf("1 -1 -2")
        table = parse_attribute_tsv("sid\tpos\ttime\n1\t1\t5\n1\t1\t6\n")
        with pytest.raises(AttributeCoverageError):
            attach_attributes(db, table)

    @pytest.mark.parametrize("rows", [
        [(1, 1, (5, 9)), (1, 2, (6, 7))],  # wider than the names
        [(1, 1, (5,)), (1, 2, ())],        # narrower than the names
    ])
    def test_ragged_row_rejected(self, rows):
        # a hand-built table is checked when it is built, not when attached
        with pytest.raises(AttributeCoverageError) as err:
            table_of(("t",), rows)
        assert str(err.value) == "attribute table columns have different lengths"

    @pytest.mark.parametrize("pos, columns", [([1], [[5, 6]]), ([1, 2], [])])
    def test_short_pos_or_missing_column_rejected(self, pos, columns):
        with pytest.raises(AttributeCoverageError) as err:
            AttributeTable(("t",), [1, 1], pos, columns)
        assert str(err.value) == "attribute table columns have different lengths"

    @pytest.mark.parametrize("names, message", [
        (("t", "t"), "attribute table: duplicate column name 't'"),
        (("sid",), "attribute table: duplicate column name 'sid'"),
        (("t", "pos"), "attribute table: duplicate column name 'pos'"),
        (("",), "attribute table: empty column name"),
    ])
    def test_hand_built_names_rejected(self, names, message):
        # such a table would attach a column silently, or be written as
        # text that parse_attribute_tsv rejects
        with pytest.raises(SeqDbError) as err:
            AttributeTable(names, [1], [1], [[7]] * len(names))
        assert str(err.value) == message

    def test_non_increasing_ordering(self):
        db = parse_spmf("1 -1 2 -1 -2")
        table = parse_attribute_tsv("sid\tpos\ttime\n1\t1\t5\n1\t2\t5\n")
        with pytest.raises(OrderingError):
            attach_attributes(db, table, ordering_attribute="time")

    def test_tsv_round_trip(self):
        table = parse_attribute_tsv(CLICK_ATTR_TSV)
        assert format_attribute_tsv(table) == CLICK_ATTR_TSV

    @pytest.mark.parametrize("names", ["price\tprice", "time\tsid", "pos", ""])
    def test_duplicate_column_names_rejected(self, names):
        with pytest.raises(SeqDbError, match="line 1: (duplicate|empty) column name"):
            parse_attribute_tsv(f"sid\tpos\t{names}\n1\t1\t5\t6\n")

    @pytest.mark.parametrize("text, message", [
        ("sid\tpos\tt\n\n1\t1\tx\n", "attribute row 3: non-integer field"),
        ("\nsid\tpos\tt\n \n1\t1\t2\n1\t2\n", "attribute row 5 has 2 fields, expected 3"),
        ("\n  \nsid\tpos\tt\tt\n1\t1\t5\t6\n",
         "attribute table line 3: duplicate column name 't'"),
        ("\n\npos\tsid\tt\n", "attribute table line 3: header must start with 'sid\\tpos'"),
        ("sid\tpos\tt\n1\t1\t3 4\n", "attribute row 2: non-integer field"),
        ("sid\tpos\tt\tu\n1\t1\t3\t4\n1\t2\t\t4\n", "attribute row 3: non-integer field"),
        # rows past the first block of text, after blank lines in it
        ("sid\tpos\tt\n" + "1\t1\t5\n\n" * 3000 + "1\t2\t6\t7\n",
         "attribute row 6002 has 4 fields, expected 3"),
        ("sid\tpos\tt\n" + "1\t1\t5\n" * 6000 + " \t1\t5\n",
         "attribute row 6002: non-integer field"),
    ])
    def test_errors_name_the_file_line_after_blank_lines(self, text, message):
        with pytest.raises(SeqDbError) as err:
            parse_attribute_tsv(text)
        assert str(err.value) == message

    def test_header_must_start_with_sid_and_pos(self):
        with pytest.raises(SeqDbError) as err:
            parse_attribute_tsv("pos\tsid\tt\n1\t1\t5\n")
        assert str(err.value) == "attribute table line 1: header must start with 'sid\\tpos'"


def rows_of(table: AttributeTable) -> list[tuple]:
    """The table's rows as (sid, pos, values) tuples, in its order."""
    return list(zip(table.sid, table.pos, zip(*table.columns)))


def table_of(names: tuple[str, ...], rows: list[tuple]) -> AttributeTable:
    """The columnar table of (sid, pos, values) rows; a row of another width
    than the rest leaves columns of different lengths, which it rejects."""
    width = max((len(row[2]) for row in rows), default=len(names))
    return AttributeTable(names, [row[0] for row in rows], [row[1] for row in rows],
                          [[row[2][k] for row in rows if k < len(row[2])]
                           for k in range(width)])


def shuffled_tsv(text: str, seed: int) -> str:
    header, *rows = text.splitlines()
    random.Random(seed).shuffle(rows)
    return "\n".join([header, *rows]) + "\n"


class TestWideValues:
    def test_values_beyond_64_bits_parse_and_attach_exactly(self):
        # the big value sits past the first block, after the column began as an array
        events = 4000
        db = make_database([[1] * events, [2]])
        rows = [f"1\t{pos}\t{pos}" for pos in range(1, events)]
        text = "\n".join(["sid\tpos\tt", *rows, f"1\t{events}\t{2**70}", "2\t1\t-5"])
        table = parse_attribute_tsv(text)
        assert table.columns[0][-2:] == [2**70, -5]
        values = attach_attributes(db, table).columns("t")
        assert values == [(*range(1, events), 2**70), (-5,)]

    def test_a_sid_beyond_64_bits_is_an_unknown_row(self):
        table = parse_attribute_tsv(f"sid\tpos\tt\n1\t1\t5\n{2**70}\t1\t6\n")
        with pytest.raises(AttributeCoverageError) as err:
            attach_attributes(parse_spmf("1 -1 -2"), table)
        assert str(err.value) == f"attribute row for unknown sid {2**70} pos 1"


class TestRowOrder:
    """Any row order gives the same database and the same coverage errors."""

    base = generate_sessions(200, 60, seed=5)
    table = generate_attributes(base, seed=5)

    def test_sorted_and_shuffled_tsv_give_equal_databases(self):
        text = format_attribute_tsv(self.table)
        expected = attach_attributes(self.base, parse_attribute_tsv(text), "time")
        for seed in range(3):
            shuffled = shuffled_tsv(text, seed)
            assert shuffled != text
            got = attach_attributes(self.base, parse_attribute_tsv(shuffled), "time")
            assert got == expected

    def test_tsv_path_equals_the_generated_table(self):
        for seed in range(3):
            table = generate_attributes(self.base, seed)
            text = format_attribute_tsv(table)
            assert (attach_attributes(self.base, parse_attribute_tsv(text))
                    == attach_attributes(self.base, table))

    @pytest.mark.parametrize("defect, message", [
        (lambda rows: rows.remove(rows[36]), "missing attribute row for sid 5 pos 2"),
        (lambda rows: rows.append((201, 1, (1, 2, 3))),
         "attribute row for unknown sid 201 pos 1"),
        (lambda rows: rows.append((0, 1, (1, 2, 3))), "attribute row for unknown sid 0 pos 1"),
        (lambda rows: rows.append((5, 9, (1, 2, 3))), "attribute row for unknown sid 5 pos 9"),
        (lambda rows: rows.append((5, 0, (1, 2, 3))), "attribute row for unknown sid 5 pos 0"),
        (lambda rows: rows.append((200, 16, (1, 2, 3))),
         "attribute row for unknown sid 200 pos 16"),
        (lambda rows: rows.append(rows[36]), "duplicate attribute row for sid 5 pos 2"),
        (lambda rows: rows.append((1, 1, (0, 0, 0))), "duplicate attribute row for sid 1 pos 1"),
        (lambda rows: rows.__setitem__(36, (5, 2, (1, 2))),
         "attribute table columns have different lengths"),
    ])
    def test_single_defect_message_is_order_free(self, defect, message):
        # sid 5 has 8 events and its second event is row 36; sid 200 has 15
        assert [len(self.base.sequences[i]) for i in (4, 199)] == [8, 15]
        rows = rows_of(self.table)
        assert rows[36][:2] == (5, 2)
        defect(rows)
        for seed in (None, 0, 1, 2):
            if seed is not None:
                random.Random(seed).shuffle(rows)
            with pytest.raises(AttributeCoverageError) as err:
                attach_attributes(self.base, table_of(self.table.names, rows))
            assert str(err.value) == message

    @pytest.mark.parametrize("rows, message", [
        # the first defect in (sid, pos) order, whatever the row order
        ([(3, 1, (7,)), (3, 1, (8,)), (1, 1, (5,)), (2, 1, (6,))],
         "missing attribute row for sid 1 pos 2"),
        ([(1, 1, (5,)), (1, 2, (6,)), (9, 1, (7,)), (2, 1, (6,)), (2, 1, (6,))],
         "duplicate attribute row for sid 2 pos 1"),
        # a missing row before the unknown row that sorts in its place
        ([(1, 1, (5,)), (1, 3, (6,)), (2, 1, (7,)), (3, 1, (8,))],
         "missing attribute row for sid 1 pos 2"),
        ([(1, 1, (5,)), (1, 2, (6,)), (1, 3, (6,)), (3, 1, (8,))],
         "attribute row for unknown sid 1 pos 3"),
    ])
    def test_several_defects_report_the_first_in_key_order(self, rows, message):
        db = parse_spmf("1 -1 2 -1 -2\n3 -1 -2\n4 -1 -2\n")
        rows = list(rows)
        for seed in range(4):
            random.Random(seed).shuffle(rows)
            with pytest.raises(AttributeCoverageError) as err:
                attach_attributes(db, table_of(("t",), rows))
            assert str(err.value) == message


class TestColumns:
    def test_columns_are_the_stored_tuples(self, click_db):
        for name in click_db.attribute_names:
            column = click_db.columns(name)
            assert click_db.columns(name) is column
            for si, seq in enumerate(click_db.sequences):
                assert column[si] is seq.attr_values(name)
                assert seq.items is click_db.items[si]
                assert type(column[si]) is tuple

    def test_attached_columns_are_the_stored_tuples(self):
        db = attach_attributes(parse_spmf(CLICK_SPMF), parse_attribute_tsv(CLICK_ATTR_TSV))
        assert db.columns("price")[1] is db.sequences[1].attr_values("price")
        assert db.columns("price")[1] == (3, 1, 3)

    def test_database_costs_little_beyond_its_tuples(self):
        # an object and a dict stored per sequence would cost about 1.37x
        base = generate_sessions(2000, 1000, seed=7)
        spmf, tsv = to_spmf(base), format_attribute_tsv(generate_attributes(base, seed=7))
        del base
        gc.collect()  # also empties the free lists, whose reuse tracemalloc misses
        tracemalloc.start()
        try:
            db = attach_attributes(parse_spmf(spmf), parse_attribute_tsv(tsv))
            gc.collect()
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        cells = [*db.items, *(cell for name in db.attribute_names for cell in db.columns(name))]
        boxed = {id(v): v for cell in cells for v in cell if not -5 <= v <= 256}
        payload = sum(map(sys.getsizeof, [*cells, *boxed.values()]))
        assert size <= 1.15 * payload, size / payload


def test_parse_and_attach_peak_at_most_twice_the_attached_columns():
    # row tuples and a whole-file line list peaked at about 4x
    base = generate_sessions(2000, 1000, seed=7)
    tsv = format_attribute_tsv(generate_attributes(base, seed=7))
    gc.collect()
    tracemalloc.start()
    try:
        db = attach_attributes(base, parse_attribute_tsv(tsv))
        gc.collect()
        attached, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert db.attribute_names == ("time", "price", "quality")
    assert peak <= 2 * attached, peak / attached


class TestMakeDatabaseShapes:
    def test_too_many_values_rejected(self):
        with pytest.raises(SeqDbError, match=r"'t'.*sid 1"):
            make_database([[5, 6]], {"t": [[1, 2, 3]]})

    def test_too_few_values_rejected(self):
        with pytest.raises(SeqDbError, match=r"'t'.*sid 1"):
            make_database([[5, 6]], {"t": [[1]]})

    def test_missing_value_list_rejected(self):
        with pytest.raises(SeqDbError, match=r"'t'.*sid 1"):
            make_database([[5, 6]], {"t": []})

    def test_extra_value_list_rejected(self):
        with pytest.raises(SeqDbError, match=r"'t'.*sid 2"):
            make_database([[5]], {"t": [[1], [2]]})

    def test_negative_item_rejected_with_its_position(self):
        with pytest.raises(SeqDbError) as err:
            make_database([[1, 2], [3, -4, 5, -6]])
        assert str(err.value) == "negative item id at sid 2 pos 2"


class TestMakeDatabaseTypes:
    """Every item and value is an ``int``: anything else would be mined as it
    is, printed as ``1.0`` or ``True``, or computed in floats."""

    @pytest.mark.parametrize("items, message", [
        ([[1, 2], [3, 1.0]], "item 1.0 at sid 2 pos 2 is not an int"),
        ([[True]], "item True at sid 1 pos 1 is not an int"),
        ([["7", 1]], "item '7' at sid 1 pos 1 is not an int"),
    ])
    def test_non_int_item_rejected(self, items, message):
        with pytest.raises(SeqDbError) as err:
            make_database(items)
        assert str(err.value) == message

    @pytest.mark.parametrize("value, text", [(2.5, "2.5"), (3.0, "3.0"), ("x", "'x'"),
                                             (False, "False"), (Fraction(1), "Fraction(1, 1)")])
    def test_non_int_value_rejected(self, value, text):
        with pytest.raises(SeqDbError) as err:
            make_database([[1], [1, 2]], {"t": [[0], [1, 2]], "p": [[4], [5, value]]})
        assert str(err.value) == f"attribute 'p' value {text} at sid 2 pos 2 is not an int"


class TestDatabaseChecks:
    def test_empty_sequence_rejected(self):
        with pytest.raises(SeqDbError) as err:
            AttributedDatabase([(1,), ()])
        assert str(err.value) == "sequence 2 is empty"

    def test_short_column_rejected(self):
        with pytest.raises(SeqDbError) as err:
            AttributedDatabase([(1,), (2,)], {"t": [(4,)]})
        assert str(err.value) == "attribute 't' has no values for sid 2"

    def test_undeclared_ordering_rejected(self):
        with pytest.raises(SeqDbError) as err:
            AttributedDatabase([(1,)], {"t": [(4,)]}, "time")
        assert str(err.value) == "ordering attribute 'time' is not declared"


class TestGenerateSessions:
    def test_first_sessions_of_criterion_6(self):
        # the draws of a session do not depend on how many sessions follow,
        # so these are the first two of acceptance criterion 6's 50,000
        db = generate_sessions(2, 1000, seed=2024)
        assert [s.items for s in db.sequences] == [
            (1, 11, 1, 35, 48, 48, 8, 17, 39, 3, 8, 15),
            (2, 30, 8, 38, 995, 1, 46, 5),
        ]

    def test_shape(self):
        db = generate_sessions(300, 20, seed=3)
        assert len(db) == 300
        assert {len(s) for s in db.sequences} == set(range(5, 16))
        assert db.item_universe <= set(range(1, 21))
        assert db.attribute_names == ()


class TestGenerateAttributes:
    def _db(self, n=300, length=6):
        return make_database([[1] * length for _ in range(n)])

    def test_deterministic(self):
        db = self._db()
        first = generate_attributes(db, seed=42)
        second = generate_attributes(db, seed=42)
        assert first == second
        different = generate_attributes(db, seed=43)
        assert different != first

    def test_time_strictly_increasing(self):
        db = self._db()
        table = generate_attributes(db, seed=1)
        attached = attach_attributes(db, table, ordering_attribute="time")
        for seq in attached.sequences:
            values = seq.attr_values("time")
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_uniform_profile_range(self):
        db = make_database([[7]])
        table = generate_attributes(db, seed=5, profile=(("price", "uniform"),))
        (_, _, (value,)), = rows_of(table)
        assert 1 <= value <= 100

    def test_long_delay_fraction_roughly_five_percent(self):
        db = self._db(n=700, length=6)
        table = generate_attributes(db, seed=9)
        attached = attach_attributes(db, table)
        deltas = []
        for seq in attached.sequences:
            values = seq.attr_values("time")
            deltas.append(values[0])
            deltas.extend(b - a for a, b in zip(values, values[1:]))
        longs = [d for d in deltas if d > 600]
        assert all(3600 <= d <= 36000 for d in longs)
        fraction = len(longs) / len(deltas)
        assert 0.03 <= fraction <= 0.07

    def test_empty_db(self):
        table = generate_attributes(parse_spmf(""), seed=0)
        assert rows_of(table) == []

    def test_unknown_profile_kind(self):
        with pytest.raises(ValueError):
            generate_attributes(self._db(1), seed=0, profile=(("x", "zipf"),))

    @pytest.mark.parametrize("profile, message", [
        ((("t", "time"), ("t", "uniform")), "duplicate column name 't'"),
        ((("pos", "uniform"),), "duplicate column name 'pos'"),
        ((("", "uniform"),), "empty column name"),
    ])
    def test_unreadable_column_names_rejected(self, profile, message):
        with pytest.raises(ValueError) as err:
            generate_attributes(self._db(1), seed=0, profile=profile)
        assert str(err.value) == f"generation profile: {message}"


class TestStats:
    def test_click_db(self, click_db):
        s = stats(click_db)
        assert (s.n_sequences, s.n_items, s.max_len) == (3, 3, 3)
        assert s.avg_len == Fraction(8, 3)

    def test_empty(self):
        s = stats(parse_spmf(""))
        assert (s.n_sequences, s.n_items, s.max_len) == (0, 0, 0)

    def test_single(self):
        s = stats(make_database([[1]]))
        assert (s.n_sequences, s.n_items, s.max_len, s.avg_len) == (1, 1, 1, 1)

    def test_invariant_on_random_dbs(self):
        rng = random.Random(0)
        for _ in range(25):
            lists = [
                [rng.randint(1, 5) for _ in range(rng.randint(1, 7))]
                for _ in range(rng.randint(1, 10))
            ]
            s = stats(make_database(lists))
            assert s.max_len >= s.avg_len >= 1
