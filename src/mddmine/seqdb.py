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
  (sid, pos)).  Of several coverage defects the first in (sid, pos) order is
  reported, a missing row before an unknown row that sorts into its place.
"""
from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
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
        columns = self.attrs.items()
        return [Sequence(seq, {name: col[si] for name, col in columns})
                for si, seq in enumerate(self.items)]

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
    """Build a database from parallel item and attribute-value lists."""
    return AttributedDatabase(item_lists, attrs or {}, ordering_attribute)


# --- SPMF format --------------------------------------------------------------

def parse_spmf(text: str) -> AttributedDatabase:
    """Parse SPMF sequence lines into an attribute-free database."""
    sequences: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    return AttributedDatabase(sequences)


def to_spmf(db: AttributedDatabase) -> str:
    return "".join("".join(f"{item} -1 " for item in items) + "-2\n" for items in db.items)


# --- attribute tables ---------------------------------------------------------

@dataclass
class AttributeTable:
    """Attribute rows: (sid, 1-based pos, values aligned with ``names``)."""

    names: tuple[str, ...]
    rows: list[tuple[int, int, tuple[int, ...]]]


def format_attribute_tsv(table: AttributeTable) -> str:
    lines = ["\t".join(("sid", "pos") + table.names)]
    for sid, pos, values in sorted(table.rows):
        lines.append("\t".join(str(v) for v in (sid, pos) + values))
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


def parse_attribute_tsv(text: str) -> AttributeTable:
    header, names, rows = None, (), []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if header is None:  # the first non-blank line
            header, names = fields, tuple(fields[2:])
            if header[:2] != ["sid", "pos"]:
                raise SeqDbError(f"attribute table line {lineno}: "
                                 "header must start with 'sid\\tpos'")
            problem = _column_name_problem(names)
            if problem:
                raise SeqDbError(f"attribute table line {lineno}: {problem}")
            continue
        if len(fields) != len(header):
            raise SeqDbError(f"attribute row {lineno} has {len(fields)} fields, "
                             f"expected {len(header)}")
        try:
            sid, pos, *values = map(int, fields)
        except ValueError:
            raise SeqDbError(f"attribute row {lineno}: non-integer field") from None
        rows.append((sid, pos, tuple(values)))
    return AttributeTable(names, rows)


def attach_attributes(
    db: AttributedDatabase, table: AttributeTable, ordering_attribute: str | None = None
) -> AttributedDatabase:
    """Return a new database holding the table's attributes as columns.

    The rows, in any order, must cover every (sid, pos) pair once with one
    value per name; any attributes already on the database are replaced.
    """
    rows = sorted(table.rows)
    rows.append((math.inf, math.inf, ()))  # sorts after every event: rows run out at a gap
    width, end = len(table.names), 0
    columns = [[] for _ in table.names]
    for sid, items in enumerate(db.items, start=1):
        start, end = end, end + len(items)
        block = rows[start:end]
        for pos, (at_sid, at, values) in enumerate(block, start=1):
            if at_sid != sid or at != pos or len(values) != width:
                raise _coverage_error(rows, start + pos - 1, (sid, pos), width)
        for column, values in zip(columns, zip(*[values for _, _, values in block])):
            column.append(values)
    if end < len(rows) - 1:
        raise _coverage_error(rows, end, rows[-1][:2], width)
    return AttributedDatabase(db.items, dict(zip(table.names, columns)), ordering_attribute)


def _coverage_error(rows: list, i: int, expected: tuple, width: int) -> AttributeCoverageError:
    """Why sorted ``rows[i]`` is not the row keyed ``expected`` with ``width`` values."""
    sid, pos, values = rows[i]
    if i and rows[i - 1][:2] == (sid, pos):
        return AttributeCoverageError(f"duplicate attribute row for sid {sid} pos {pos}")
    if (sid, pos) > expected:
        return AttributeCoverageError("missing attribute row for sid %d pos %d" % expected)
    if (sid, pos) < expected:
        return AttributeCoverageError(f"attribute row for unknown sid {sid} pos {pos}")
    return AttributeCoverageError(f"attribute row for sid {sid} pos {pos} has "
                                  f"{len(values)} values for {width} attributes")


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
    columns: dict[str, list[list[int]]] = {}
    for name in names:
        per_seq: list[list[int]] = []
        if kinds[name] == "time":
            for items in db.items:
                clock = 0
                stamps = []
                for _ in items:
                    if rng.random() < LONG_DELAY_PROBABILITY:
                        delta = rng.randint(*LONG_DELAY_RANGE)
                    else:
                        delta = rng.randint(*SHORT_DELAY_RANGE)
                    clock += max(delta, 1)
                    stamps.append(clock)
                per_seq.append(stamps)
        else:
            for items in db.items:
                per_seq.append([rng.randint(*UNIFORM_RANGE) for _ in items])
        columns[name] = per_seq
    rows = []
    for i, items in enumerate(db.items):
        for j in range(len(items)):
            rows.append((i + 1, j + 1, tuple(columns[name][i][j] for name in names)))
    return AttributeTable(names, rows)


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
