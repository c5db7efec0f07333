"""Sequence database model, SPMF ingestion, and attribute tooling.

The database is a list of sequences stored column-wise: each sequence holds
a tuple of item identifiers (non-negative integers) and, per declared
attribute, one tuple of integer values aligned with the items.  A sequence
is addressed by its 0-based index in the list; its id in files and messages
(``sid``) is that index + 1.  The event at position j is ``items[j]`` with
its values ``values[name][j]``; the same item may occur with different
attribute values at different positions.  These tuples are the only copy of
the data: ``attr_values`` and ``AttributedDatabase.columns`` hand them out
as they are.  When an ordering attribute is declared (typically ``time``),
its values must be strictly increasing along each sequence.

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
from itertools import accumulate
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
    """One ordered event sequence; its id is its index in the database + 1.

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
    sequences: list[Sequence]
    attribute_names: tuple[str, ...] = ()
    ordering_attribute: str | None = None

    def __post_init__(self):
        self.attribute_names = tuple(self.attribute_names)
        for sid, seq in enumerate(self.sequences, start=1):
            if not seq.items:
                raise SeqDbError(f"sequence {sid} is empty")
            if min(seq.items) < 0:
                pos = next(p for p, item in enumerate(seq.items, start=1) if item < 0)
                raise SeqDbError(f"negative item id at sid {sid} pos {pos}")
            for name in self.attribute_names:
                values = seq.values.get(name)
                if values is None:
                    raise SeqDbError(f"sequence {sid} lacks attribute {name!r}")
                if len(values) != len(seq.items):
                    raise SeqDbError(
                        f"attribute {name!r} has {len(values)} values for the "
                        f"{len(seq.items)} items of sid {sid}"
                    )
        if self.ordering_attribute is not None:
            if self.ordering_attribute not in self.attribute_names:
                raise SeqDbError(
                    f"ordering attribute {self.ordering_attribute!r} is not declared"
                )
            _check_ordering(self.sequences, self.ordering_attribute)

    @property
    def item_universe(self) -> frozenset[int]:
        return frozenset(item for seq in self.sequences for item in seq.items)

    def __len__(self) -> int:
        return len(self.sequences)

    def columns(self, name: str) -> list[tuple[int, ...]]:
        """The stored per-sequence value tuples of one attribute, not copies."""
        return [seq.values[name] for seq in self.sequences]


def _check_ordering(sequences: list[Sequence], name: str) -> None:
    for sid, seq in enumerate(sequences, start=1):
        values = seq.attr_values(name)
        for j in range(1, len(values)):
            if values[j] <= values[j - 1]:
                raise OrderingError(
                    f"attribute {name!r} not strictly increasing in sequence "
                    f"{sid} at position {j + 1}"
                )


def make_database(
    item_lists: SequenceT[SequenceT[int]],
    attrs: Mapping[str, SequenceT[SequenceT[int]]] | None = None,
    ordering_attribute: str | None = None,
) -> AttributedDatabase:
    """Build a database from parallel item and attribute-value lists.

    Every attribute needs one value list per sequence, one value per item.
    """
    attrs = attrs or {}
    names = tuple(attrs)
    for name in names:
        n_lists, n_seqs = len(attrs[name]), len(item_lists)
        if n_lists != n_seqs:
            sid = min(n_lists, n_seqs) + 1
            problem = "no values for" if n_lists < n_seqs else "values for unknown"
            raise SeqDbError(f"attribute {name!r} has {problem} sid {sid}")
    sequences = [
        Sequence(tuple(items), {name: tuple(attrs[name][i]) for name in names})
        for i, items in enumerate(item_lists)
    ]
    return AttributedDatabase(sequences, names, ordering_attribute)


# --- SPMF format --------------------------------------------------------------

def parse_spmf(text: str) -> AttributedDatabase:
    """Parse SPMF sequence lines into an attribute-free database."""
    sequences: list[Sequence] = []
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
        sequences.append(Sequence(tuple(items)))
    return AttributedDatabase(sequences)


def to_spmf(db: AttributedDatabase) -> str:
    lines = []
    for seq in db.sequences:
        parts: list[str] = []
        for item in seq.items:
            parts.append(str(item))
            parts.append("-1")
        parts.append("-2")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


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
    width, sequences, end = len(table.names), [], 0
    for sid, seq in enumerate(db.sequences, start=1):
        start, end = end, end + len(seq)
        block = rows[start:end]
        for pos, (at_sid, at, values) in enumerate(block, start=1):
            if at_sid != sid or at != pos or len(values) != width:
                raise _coverage_error(rows, start + pos - 1, (sid, pos), width)
        columns = zip(*[values for _, _, values in block])
        sequences.append(Sequence(seq.items, dict(zip(table.names, columns))))
    if end < len(rows) - 1:
        raise _coverage_error(rows, end, rows[-1][:2], width)
    return AttributedDatabase(sequences, table.names, ordering_attribute)


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
            for seq in db.sequences:
                clock = 0
                stamps = []
                for _ in seq.items:
                    if rng.random() < LONG_DELAY_PROBABILITY:
                        delta = rng.randint(*LONG_DELAY_RANGE)
                    else:
                        delta = rng.randint(*SHORT_DELAY_RANGE)
                    clock += max(delta, 1)
                    stamps.append(clock)
                per_seq.append(stamps)
        else:
            for seq in db.sequences:
                per_seq.append([rng.randint(*UNIFORM_RANGE) for _ in seq.items])
        columns[name] = per_seq
    rows = []
    for i, seq in enumerate(db.sequences):
        for j in range(len(seq)):
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
    if not db.sequences:
        return DbStats(0, 0, 0, Fraction(0))
    lengths = [len(seq) for seq in db.sequences]
    return DbStats(
        n_sequences=len(db.sequences),
        n_items=len(db.item_universe),
        max_len=max(lengths),
        avg_len=Fraction(sum(lengths), len(lengths)),
    )
