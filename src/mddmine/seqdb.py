"""Sequence database model, SPMF ingestion, and attribute tooling.

The database is stored as columns: ``items``, a list holding each
sequence's tuple of item identifiers (non-negative integers), and per
declared attribute one list holding each sequence's tuple of integer
values, aligned with its items.  A sequence is addressed by its 0-based
index in these lists; its id in files and messages (``sid``) is that index
+ 1.  The event at position j of sequence si is ``items[si][j]`` with the
values ``columns(name)[si][j]``; the same item may occur with different
attribute values at different positions.  These tuples are the only copy
of the data, and no object is stored per sequence: ``sequences`` builds
``Sequence`` views over the tuples on each call, for the reference code.
When an ordering attribute is declared (typically ``time``), its values
must be strictly increasing along each sequence.

Two on-disk formats are understood:

* SPMF sequences: one line per sequence, integer tokens, ``-1`` closes an
  itemset and ``-2`` closes the line.  Only single-item itemsets are
  accepted; multi-item itemsets are rejected rather than flattened because
  flattening would change support semantics.
* Attribute tables: tab-separated with header ``sid<TAB>pos<TAB><attr>...``,
  one row per event, positions 1-based, rows in any order (written sorted by
  (sid, pos)).  A table is parsed into columns, one flat ``array('q')`` per
  field (``AttributeTable``), and attaching slices each attribute column
  into the database's per-sequence tuples; no row or whole-file line list
  is ever built.  Of several coverage defects the first in (sid, pos) order
  is reported, a missing row before an unknown row that sorts into its
  place.

Both formats are read in blocks of whole lines (``_blocks``).  A block in
the canonical form the writers emit (``to_spmf``, ``format_attribute_tsv``)
is rewritten into JSON and converted by one ``json.loads``, so no Python
call is made per token.  Any other block, and any block the conversion
rejects, goes to the line readers (``_spmf_lines``, ``_line_fields``),
which define every value and every line-numbered error; the conversion
takes only blocks that they would read to the same values.  The form is
checked per block, never over the whole text, so a check holds no more
than a block in memory.
"""
from __future__ import annotations

import json
import math
import random
import re
from array import array
from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import Mapping, Sequence as SequenceT


class SeqDbError(ValueError):
    """Base class for database construction and ingestion errors."""


class SpmfFormatError(SeqDbError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnsupportedItemsetError(SpmfFormatError):
    """Multi-item (or empty) itemsets are outside the supported format."""


class AttributeCoverageError(SeqDbError):
    """An attribute table row is missing, duplicated, or out of range."""


class OrderingError(SeqDbError):
    """The declared ordering attribute is not strictly increasing."""


@dataclass
class Sequence:
    """A view of one sequence over the database's stored tuples, built by
    ``AttributedDatabase.sequences`` for the reference code.

    ``values`` maps each attribute name to a tuple aligned with ``items``.
    """

    items: tuple[int, ...]
    values: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def attr_values(self, name: str) -> tuple[int, ...]:
        return self.values[name]

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class AttributedDatabase:
    """The sequences as columns: ``items[si]`` is the item tuple of sequence
    ``si`` and ``attrs[name][si]`` (``columns(name)[si]``) its value tuple of
    attribute ``name``.

    The constructor makes every cell a tuple and checks the columns in turn:
    no sequence is empty or holds a negative item, each attribute has one
    value per item, and the ordering attribute is declared and strictly
    increasing along each sequence.
    """

    items: list[tuple[int, ...]]
    attrs: dict[str, list[tuple[int, ...]]] = field(default_factory=dict)
    ordering_attribute: str | None = None

    def __post_init__(self):
        self.items = items = list(map(tuple, self.items))
        for sid, seq in enumerate(items, start=1):
            if not seq:
                raise SeqDbError(f"sequence {sid} is empty")
            if min(seq) < 0:
                pos = next(p for p, item in enumerate(seq, start=1) if item < 0)
                raise SeqDbError(f"negative item id at sid {sid} pos {pos}")
        self.attrs = {name: list(map(tuple, col)) for name, col in self.attrs.items()}
        for name, column in self.attrs.items():
            if len(column) != len(items):
                sid = min(len(column), len(items)) + 1
                problem = ("no values for" if len(column) < len(items)
                           else "values for unknown")
                raise SeqDbError(f"attribute {name!r} has {problem} sid {sid}")
            for sid, (seq, values) in enumerate(zip(items, column), start=1):
                if len(values) != len(seq):
                    raise SeqDbError(f"attribute {name!r} has {len(values)} values for "
                                     f"the {len(seq)} items of sid {sid}")
        name = self.ordering_attribute
        if name is not None and name not in self.attrs:
            raise SeqDbError(f"ordering attribute {name!r} is not declared")
        for sid, values in enumerate(self.attrs.get(name, ()), start=1):
            for j in range(1, len(values)):
                if values[j] <= values[j - 1]:
                    raise OrderingError(f"attribute {name!r} not strictly increasing "
                                        f"in sequence {sid} at position {j + 1}")

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self.attrs)

    @property
    def sequences(self) -> list[Sequence]:
        """A fresh ``Sequence`` view per sequence, over the stored tuples."""
        return list(map(self.sequence, range(len(self.items))))

    def sequence(self, si: int) -> Sequence:
        """A fresh ``Sequence`` view of sequence ``si``."""
        return Sequence(self.items[si], {name: col[si] for name, col in self.attrs.items()})

    @property
    def item_universe(self) -> frozenset[int]:
        return frozenset(chain.from_iterable(self.items))

    def __len__(self) -> int:
        return len(self.items)

    def columns(self, name: str) -> list[tuple[int, ...]]:
        """The stored per-sequence value tuples of one attribute."""
        return self.attrs[name]


def make_database(
    item_lists: SequenceT[SequenceT[int]],
    attrs: Mapping[str, SequenceT[SequenceT[int]]] | None = None,
    ordering_attribute: str | None = None,
) -> AttributedDatabase:
    """Build a database from parallel item and attribute-value lists.

    Every item and value must be an ``int``: any other (a float, a string, a
    ``bool``) raises a ``SeqDbError`` naming it, its sid and its pos.
    """
    items = [tuple(seq) for seq in item_lists]
    columns = {name: [tuple(values) for values in col] for name, col in (attrs or {}).items()}
    named = {"item": items} | {f"attribute {n!r} value": c for n, c in columns.items()}
    for what, rows in named.items():
        for sid, row in enumerate(rows, start=1):
            if set(map(type, row)) - {int}:
                pos, bad = next((p, v) for p, v in enumerate(row, 1) if type(v) is not int)
                raise SeqDbError(f"{what} {bad!r} at sid {sid} pos {pos} is not an int")
    return AttributedDatabase(items, columns, ordering_attribute)


# --- block reading ------------------------------------------------------------

#: characters of input text parsed at a time; a block and its conversion
#: are the parser's only transient copies of the text
_BLOCK_CHARS = 1 << 14


def _blocks(text: str, canonical):
    """``text`` in blocks of whole lines, as (first line number, block,
    lines).  ``lines`` is ``None`` for a block that ``canonical`` accepts,
    which must break lines at ``\\n`` only, and the block's lines otherwise."""
    start, lineno = 0, 1
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        block = text[start:end]
        if canonical(block):
            yield lineno, block, None
            lineno += block.count("\n")
        else:
            lines = block.splitlines()
            yield lineno, block, lines
            lineno += len(lines)
        start = end


# --- SPMF format --------------------------------------------------------------

#: a canonical SPMF line, as ``to_spmf`` writes it: single-item itemsets of
#: ASCII digits without a leading zero, closed by ``-2`` and one newline
_SPMF_LINE = re.compile(r"(?:(?!0[0-9])[0-9]+ -1 )+-2\n")


def _spmf_canonical(block: str) -> bool:
    """Whether ``block`` is nothing but canonical SPMF lines.

    Each line is matched on its own, from its start, and the first line
    that fails ends the check.  So the regex engine's stack holds one line:
    one match over a whole block grows it by about 28 bytes per character
    (465 kB traced for a 16 kB block), and over a whole text by megabytes,
    which the process keeps as RSS.  And a failing line is tried once: an
    unanchored search tries it again from each of its digits, quadratic in
    its length."""
    start, match = 0, _SPMF_LINE.match
    while start < len(block):
        line = match(block, start)
        if line is None:
            return False
        start = line.end()
    return True


def parse_spmf(text: str) -> AttributedDatabase:
    """Parse SPMF sequence lines into an attribute-free database.

    A canonical block (``_spmf_canonical``) is rewritten into nested JSON
    arrays, ``" -1 -2\\n"`` closing a sequence and ``" -1 "`` separating
    items, and converted by one ``json.loads``.  Any other block, or one
    that ``json.loads`` rejects (a value of more than 4,300 digits), is read
    by ``_spmf_lines``, which gives every value and every line-numbered
    error.
    """
    sequences: list[tuple[int, ...]] = []
    for lineno, block, lines in _blocks(text, _spmf_canonical):
        if lines is None:
            nested = block.replace(" -1 -2\n", "],[").replace(" -1 ", ",")
            try:
                sequences += map(tuple, json.loads("[[" + nested[:-2] + "]"))
                continue
            except ValueError:
                lines = block.splitlines()
        sequences += _spmf_lines(lines, lineno)
    return AttributedDatabase(sequences)


def _spmf_lines(lines: list[str], lineno: int) -> list[tuple[int, ...]]:
    """The item tuples of SPMF ``lines``, the first numbered ``lineno``;
    blank lines are skipped, and the first malformed line raises its
    error."""
    sequences: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(lines, start=lineno):
        if not raw.strip():
            continue
        tokens = []
        for tok in raw.split():
            try:
                tokens.append(int(tok))
            except ValueError:
                raise SpmfFormatError(f"malformed token {tok!r}", lineno) from None
        items: list[int] = []
        itemset: list[int] = []
        closed = False
        for tok in tokens:
            if closed:
                raise SpmfFormatError("tokens after -2 terminator", lineno)
            if tok == -2:
                if itemset:
                    raise SpmfFormatError("itemset not closed by -1 before -2", lineno)
                closed = True
            elif tok == -1:
                if not itemset:
                    raise UnsupportedItemsetError("empty itemset", lineno)
                if len(itemset) > 1:
                    raise UnsupportedItemsetError(
                        f"itemset with {len(itemset)} items; only single-item events "
                        "are supported",
                        lineno,
                    )
                items.append(itemset[0])
                itemset = []
            elif tok < 0:
                raise SpmfFormatError(f"malformed token {tok}", lineno)
            else:
                itemset.append(tok)
        if not closed:
            raise SpmfFormatError("missing -2 terminator", lineno)
        if not items:
            raise SpmfFormatError("sequence without events", lineno)
        sequences.append(tuple(items))
    return sequences


def to_spmf(db: AttributedDatabase) -> str:
    return "".join("".join(f"{item} -1 " for item in items) + "-2\n" for items in db.items)


# --- attribute tables ---------------------------------------------------------

@dataclass
class AttributeTable:
    """An attribute table as columns: row ``i`` gives the event at 1-based
    position ``pos[i]`` of sequence ``sid[i]`` the value ``columns[k][i]`` of
    attribute ``names[k]``.  Each column is an ``array('q')``, or a list once
    it holds a value outside 64 bits, so every integer stays exact.  Rows
    keep the order they were read or generated in.  The constructor checks
    the names and that ``pos`` and one column per name are as long as
    ``sid``, so every row has one value per name."""

    names: tuple[str, ...]
    sid: array | list[int]
    pos: array | list[int]
    columns: list[array | list[int]]

    def __post_init__(self):
        problem = _column_name_problem(self.names)
        if problem:
            raise SeqDbError(f"attribute table: {problem}")
        if len(self.columns) != len(self.names) or any(
                len(column) != len(self.sid) for column in (self.pos, *self.columns)):
            raise AttributeCoverageError("attribute table columns have different lengths")


def _keys(lengths: list[int]) -> tuple[array, array]:
    """The (sid, pos) columns of every event, in order, for sequence lengths."""
    return (array("q", chain.from_iterable(map(repeat, range(1, len(lengths) + 1), lengths))),
            array("q", chain.from_iterable(range(1, n + 1) for n in lengths)))


def _in_key_order(table: AttributeTable, lengths: list[int]) -> bool:
    """Whether the table holds one row per event, in (sid, pos) order.

    ``array('q')`` key columns are compared by their bytes, against byte
    patterns joined per sequence: sid ``s`` repeated ``n`` times and the
    positions ``1..n``, one pattern per distinct length ``n``.  No expected
    key is built per event in Python, and the patterns die on return,
    before any tuple is cut.  Any other key column answers ``False`` and
    sends the table to the sort in ``attach_attributes``, which builds the
    same database: a parsed list column holds a key outside 64 bits, so it
    is never in key order."""
    sid, pos = table.sid, table.pos
    if not all(isinstance(c, array) and c.typecode == "q" for c in (sid, pos)):
        return False
    runs = {n: array("q", range(1, n + 1)).tobytes() for n in set(lengths)}
    return (pos.tobytes() == b"".join(map(runs.__getitem__, lengths))
            and sid.tobytes() == b"".join(
                array("q", [s]).tobytes() * n for s, n in enumerate(lengths, start=1)))


def _key_order(table: AttributeTable) -> list[int]:
    """Row indices in (sid, pos) order."""
    sid, pos = table.sid, table.pos
    return sorted(range(len(sid)), key=lambda i: (sid[i], pos[i]))


def format_attribute_tsv(table: AttributeTable) -> str:
    columns = (table.sid, table.pos, *table.columns)
    lines = ["\t".join(("sid", "pos") + table.names)]
    lines += ["\t".join([str(column[i]) for column in columns]) for i in _key_order(table)]
    return "\n".join(lines) + "\n"


def _column_name_problem(names: SequenceT[str]) -> str | None:
    """What breaks the column-name rule, or ``None``: attribute names are
    non-empty, distinct, and neither ``sid`` nor ``pos``."""
    for name in names:
        if not name:
            return "empty column name"
        if name in ("sid", "pos") or names.count(name) > 1:
            return f"duplicate column name {name!r}"
    return None


def _tsv_canonical(block: str) -> bool:
    """Whether ``block`` holds nothing but ASCII digits, ``-``, tabs and
    newlines.  A leading zero passes, and ``json.loads`` rejects it in
    ``_block_fields``: a regex search for one took 18 ms over the
    ``dense-index`` table, this check about 1 ms."""
    return block.isascii() and not block.encode().translate(None, b"0123456789-\t\n")


def _block_fields(block: str, lines: list[str] | None, lineno: int, width: int) -> list:
    """The integers of one block's rows, field by field.

    A canonical block (``lines`` is ``None``) becomes one flat JSON array,
    tabs turned into commas and each newline into a ``null`` that ends its
    row, and is converted by one ``json.loads``.  The ``null`` markers must
    sit at every ``(width + 1)``-th slot, so a row of another width cannot
    pass; as every ``null`` is a newline and the last value is one, that
    stride slice holding one ``null`` per row is enough.  Each field is a
    stride slice too.  Any other block, or one that this rejects, is read
    again line by line by ``_line_fields``.
    """
    if lines is None:
        if not block.endswith("\n"):
            block += "\n"
        rows = block.count("\n")
        flat = block.replace("\t", ",").replace("\n", ",null,")
        try:
            values = json.loads("[" + flat[:-1] + "]")
        except ValueError:
            values = []
        if values[width::width + 1] == [None] * rows:
            return [values[k::width + 1] for k in range(width)]
        lines = block.splitlines()
    return _line_fields(lines, lineno, width)


def _line_fields(lines: list[str], lineno: int, width: int) -> list:
    """The integers of ``lines``, the first numbered ``lineno``, field by
    field.  A block with a blank or malformed row is read again line by
    line, so that the first malformed line raises its error."""
    rows = [line.split("\t") for line in lines]
    if set(map(len, rows)) == {width}:
        try:
            return [list(map(int, values)) for values in zip(*rows)]
        except ValueError:
            pass
    rows = []
    for lineno, line in enumerate(lines, start=lineno):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise SeqDbError(f"attribute row {lineno} has {len(fields)} fields, "
                             f"expected {width}")
        try:
            rows.append(list(map(int, fields)))
        except ValueError:
            raise SeqDbError(f"attribute row {lineno}: non-integer field") from None
    return list(zip(*rows))


def _extend(column: array | list[int], values: list[int]) -> array | list[int]:
    """``column`` extended by ``values``; an ``array('q')`` column that
    meets a value outside 64 bits becomes a list."""
    try:
        column.extend(array("q", values))
    except OverflowError:
        column = list(column)
        column.extend(values)
    return column


def parse_attribute_tsv(text: str) -> AttributeTable:
    """Parse a tab-separated attribute table into columns.

    Lines are split at tabs only.  A canonical block (``_tsv_canonical``)
    after the header's is converted by ``_block_fields``; the header's block
    and every other block are read by ``_line_fields``.  Each field's
    integers extend its column.  Blank lines are skipped, and every error
    names its file line.
    """
    width, fields = None, []
    for lineno, block, lines in _blocks(text, _tsv_canonical):
        if width is None:  # the header is the first non-blank line
            lines = block.splitlines() if lines is None else lines
            skip = next((i for i, line in enumerate(lines) if line.strip()), len(lines))
            if skip == len(lines):
                continue
            header, lineno = lines[skip].split("\t"), lineno + skip
            names, lines, width = tuple(header[2:]), lines[skip + 1:], len(header)
            if header[:2] != ["sid", "pos"]:
                raise SeqDbError(f"attribute table line {lineno}: "
                                 "header must start with 'sid\\tpos'")
            problem = _column_name_problem(names)
            if problem:
                raise SeqDbError(f"attribute table line {lineno}: {problem}")
            fields, lineno = [array("q") for _ in header], lineno + 1
        for k, values in enumerate(_block_fields(block, lines, lineno, width)):
            fields[k] = _extend(fields[k], values)
    if width is None:
        return AttributeTable((), array("q"), array("q"), [])
    sid, pos, *columns = fields
    return AttributeTable(names, sid, pos, columns)


def attach_attributes(
    db: AttributedDatabase, table: AttributeTable, ordering_attribute: str | None = None
) -> AttributedDatabase:
    """Return a new database holding the table's attributes as columns.

    The rows, in any order, must cover every (sid, pos) pair once; any
    attributes already on the database are replaced.
    Rows in (sid, pos) order are sliced per sequence as they are; otherwise
    an index permutation sorts them first, and the first defect in (sid,
    pos) order is reported.
    """
    lengths = list(map(len, db.items))
    sid, pos, columns = table.sid, table.pos, table.columns
    if not _in_key_order(table, lengths):
        order, events = _key_order(table), sum(lengths)
        for k, key in enumerate(zip(*_keys(lengths))):
            if k == len(order) or (sid[order[k]], pos[order[k]]) != key:
                raise _coverage_error(table, order, k, key)
        if len(order) > events:
            raise _coverage_error(table, order, events, (math.inf, math.inf))
        columns = [[column[i] for i in order] for column in columns]
    ends = list(accumulate(lengths))
    return AttributedDatabase(
        db.items,
        {name: [tuple(column[end - n:end]) for n, end in zip(lengths, ends)]
         for name, column in zip(table.names, columns)},
        ordering_attribute)


def _coverage_error(table: AttributeTable, order: list[int], k: int,
                    expected: tuple) -> AttributeCoverageError:
    """Why the ``k``-th row in key ``order`` is not the row keyed
    ``expected``; past the last row, a row is missing."""
    if k == len(order):
        return AttributeCoverageError("missing attribute row for sid %d pos %d" % expected)
    i = order[k]
    sid, pos = table.sid[i], table.pos[i]
    if k and (table.sid[order[k - 1]], table.pos[order[k - 1]]) == (sid, pos):
        return AttributeCoverageError(f"duplicate attribute row for sid {sid} pos {pos}")
    if (sid, pos) > expected:
        return AttributeCoverageError("missing attribute row for sid %d pos %d" % expected)
    return AttributeCoverageError(f"attribute row for unknown sid {sid} pos {pos}")


# --- synthetic data -------------------------------------------------------------

#: rank r of the generated click popularity has weight 1 / r**SESSION_ZIPF
SESSION_ZIPF = 1.2
SESSION_LENGTHS = (5, 15)


def generate_sessions(n_sequences: int, n_items: int, seed: int) -> AttributedDatabase:
    """Click sessions without attributes, deterministically for a given seed.

    Each session draws its length uniformly from ``SESSION_LENGTHS`` and each
    click from a Zipf-like popularity over items 1..n_items: the item of rank
    r has weight 1 / r**SESSION_ZIPF, so a handful of items dominate.
    """
    cumulative = list(accumulate(1.0 / (r ** SESSION_ZIPF) for r in range(1, n_items + 1)))
    total = cumulative[-1]
    rng = random.Random(seed)
    return make_database([
        [bisect(cumulative, rng.random() * total) + 1
         for _ in range(rng.randint(*SESSION_LENGTHS))]
        for _ in range(n_sequences)
    ])


# --- attribute generation -----------------------------------------------------

#: profile kinds: "time" accumulates per-click delays into timestamps,
#: "uniform" draws an independent value in [1, 100] per event
GenProfile = SequenceT[tuple[str, str]]
DEFAULT_PROFILE: GenProfile = (("time", "time"), ("price", "uniform"), ("quality", "uniform"))

LONG_DELAY_PROBABILITY = 0.05
SHORT_DELAY_RANGE = (0, 600)
LONG_DELAY_RANGE = (3600, 36000)
UNIFORM_RANGE = (1, 100)


def generate_attributes(
    db: AttributedDatabase, seed: int, profile: GenProfile = DEFAULT_PROFILE
) -> AttributeTable:
    """Generate synthetic attribute rows, deterministically for a given seed.

    The time profile draws a per-click delay, uniform in [0, 600] seconds but
    with probability 5% uniform in [3600, 36000] (a user leaving the session),
    and accumulates delays into strictly increasing timestamps.  Zero delays
    are clamped to one second to keep the ordering strict.
    """
    names = tuple(name for name, _ in profile)
    kinds = dict(profile)
    for name, kind in profile:
        if kind not in ("time", "uniform"):
            raise ValueError(f"unknown generation profile kind {kind!r} for {name!r}")
    problem = _column_name_problem(names)
    if problem:
        raise ValueError(f"generation profile: {problem}")
    rng = random.Random(seed)
    columns = []
    for name in names:
        column = array("q")
        if kinds[name] == "time":
            for items in db.items:
                clock = 0
                for _ in items:
                    if rng.random() < LONG_DELAY_PROBABILITY:
                        delta = rng.randint(*LONG_DELAY_RANGE)
                    else:
                        delta = rng.randint(*SHORT_DELAY_RANGE)
                    clock += max(delta, 1)
                    column.append(clock)
        else:
            for items in db.items:
                column.extend(rng.randint(*UNIFORM_RANGE) for _ in items)
        columns.append(column)
    return AttributeTable(names, *_keys(list(map(len, db.items))), columns)


# --- statistics ---------------------------------------------------------------

@dataclass(frozen=True)
class DbStats:
    n_sequences: int
    n_items: int
    max_len: int
    avg_len: Fraction


def stats(db: AttributedDatabase) -> DbStats:
    if not db.items:
        return DbStats(0, 0, 0, Fraction(0))
    lengths = list(map(len, db.items))
    return DbStats(
        n_sequences=len(db.items),
        n_items=len(db.item_universe),
        max_len=max(lengths),
        avg_len=Fraction(sum(lengths), len(lengths)),
    )
