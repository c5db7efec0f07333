"""Constraint specs, their monotonicity classes, and direct occurrence checks.

A constraint restricts which occurrences of a pattern count toward support.
Most kinds bind to one integer attribute (gap, span, max, min, sum, avg, med);
``length`` looks only at the occurrence size and ``item_set`` at the items
themselves.  Bounds are non-strict (>= or <=) and all arithmetic is exact:
averages and medians are compared through fractions, never floats.

The functions here evaluate constraints on concrete occurrences, given as a
database sequence and the positions of the matched events.  They are
deliberately independent of the diagram-based miner and serve as the
reference semantics for the oracles and for final emission checks.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .seqdb import AttributedDatabase, Sequence as DbSequence

GE = ">="
LE = "<="


class Kind(str, Enum):
    LENGTH = "length"
    ITEM_SET = "item_set"
    GAP = "gap"
    SPAN = "span"
    MAX = "max"
    MIN = "min"
    SUM = "sum"
    AVG = "avg"
    MED = "med"


#: kinds that bind to a named attribute
ATTRIBUTE_KINDS = frozenset(
    {Kind.GAP, Kind.SPAN, Kind.MAX, Kind.MIN, Kind.SUM, Kind.AVG, Kind.MED}
)
#: the non-monotone statistics kinds
STAT_KINDS = frozenset({Kind.SUM, Kind.AVG, Kind.MED})


class Monotonicity(Enum):
    MONOTONE = "monotone"
    ANTI_MONOTONE = "anti_monotone"
    PREFIX_ANTI_MONOTONE = "prefix_anti_monotone"
    NON_MONOTONE = "non_monotone"


class EmptyOccurrenceError(ValueError):
    """Raised when a constraint is evaluated on a zero-length occurrence."""


@dataclass(frozen=True)
class ConstraintSpec:
    """One constraint instance.

    ``kind`` selects the semantics, ``attribute`` names the attribute it reads
    (absent for length and item_set), ``direction`` is ">=" or "<=", and ``c``
    is the integer bound.  For item_set the bound is replaced by ``items``,
    the set of allowed item identifiers.
    """

    kind: Kind
    attribute: str | None = None
    direction: str | None = None
    c: int | None = None
    items: frozenset[int] | None = None

    def __post_init__(self):
        if self.kind is Kind.ITEM_SET:
            if not self.items:
                raise ValueError("item_set constraint needs a non-empty item set")
            if self.attribute is not None or self.direction is not None or self.c is not None:
                raise ValueError("item_set constraint takes no attribute, direction, or bound")
            object.__setattr__(self, "items", frozenset(self.items))
            return
        if self.items is not None:
            raise ValueError(f"{self.kind.value} constraint takes no item set")
        if self.direction not in (GE, LE):
            raise ValueError(f"{self.kind.value} constraint needs direction '>=' or '<='")
        if type(self.c) is not int:  # a bool would print as length>=True
            raise ValueError(f"{self.kind.value} constraint needs an integer bound")
        if self.kind in ATTRIBUTE_KINDS:
            if not self.attribute:
                raise ValueError(f"{self.kind.value} constraint needs an attribute name")
        elif self.attribute is not None:
            raise ValueError("length constraint takes no attribute")

    def __str__(self) -> str:
        return format_constraint(self)


_CLASS_TABLE = {
    (Kind.LENGTH, GE): Monotonicity.MONOTONE,
    (Kind.LENGTH, LE): Monotonicity.ANTI_MONOTONE,
    (Kind.GAP, LE): Monotonicity.PREFIX_ANTI_MONOTONE,
    (Kind.GAP, GE): Monotonicity.ANTI_MONOTONE,
    (Kind.SPAN, LE): Monotonicity.ANTI_MONOTONE,
    (Kind.SPAN, GE): Monotonicity.MONOTONE,
    (Kind.MAX, GE): Monotonicity.MONOTONE,
    (Kind.MAX, LE): Monotonicity.ANTI_MONOTONE,
    (Kind.MIN, LE): Monotonicity.MONOTONE,
    (Kind.MIN, GE): Monotonicity.ANTI_MONOTONE,
}


def classify(spec: ConstraintSpec) -> Monotonicity:
    """Monotonicity class of a constraint, a pure function of (kind, direction)."""
    if spec.kind is Kind.ITEM_SET:
        return Monotonicity.PREFIX_ANTI_MONOTONE
    if spec.kind in STAT_KINDS:
        return Monotonicity.NON_MONOTONE
    return _CLASS_TABLE[(spec.kind, spec.direction)]


def exact_median(values: Iterable[int]) -> Fraction:
    """Median as an exact fraction; even-length lists average the middle pair."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise EmptyOccurrenceError("median of an empty value list is undefined")
    mid = n // 2
    if n % 2:
        return Fraction(ordered[mid])
    return Fraction(ordered[mid - 1] + ordered[mid], 2)


def _compare(stat, direction: str, c: int) -> bool:
    return stat >= c if direction == GE else stat <= c


def check_occurrence(
    seq: "DbSequence", positions: Sequence[int], spec: ConstraintSpec
) -> bool:
    """Evaluate one constraint on the events of ``seq`` at ``positions``.

    ``positions`` are 0-based and ascending: the occurrence of a pattern.
    """
    if not positions:
        raise EmptyOccurrenceError("constraints are undefined on empty occurrences")
    kind = spec.kind
    if kind is Kind.LENGTH:
        return _compare(len(positions), spec.direction, spec.c)
    if kind is Kind.ITEM_SET:
        items = seq.items
        return all(items[p] in spec.items for p in positions)
    column = seq.attr_values(spec.attribute)
    values = [column[p] for p in positions]
    if kind is Kind.GAP:
        return all(
            _compare(values[j] - values[j - 1], spec.direction, spec.c)
            for j in range(1, len(values))
        )
    if kind is Kind.SPAN:
        return _compare(max(values) - min(values), spec.direction, spec.c)
    if kind is Kind.MAX:
        return _compare(max(values), spec.direction, spec.c)
    if kind is Kind.MIN:
        return _compare(min(values), spec.direction, spec.c)
    if kind is Kind.SUM:
        return _compare(sum(values), spec.direction, spec.c)
    if kind is Kind.AVG:
        return _compare(Fraction(sum(values), len(values)), spec.direction, spec.c)
    if kind is Kind.MED:
        return _compare(exact_median(values), spec.direction, spec.c)
    raise AssertionError(f"unhandled kind {kind!r}")


def iter_embeddings(items: Sequence[int], pattern: Sequence[int]):
    """Yield every strictly increasing position tuple matching the pattern."""
    n = len(items)
    k = len(pattern)

    def walk(depth: int, start: int, chosen: list[int]):
        if depth == k:
            yield tuple(chosen)
            return
        item = pattern[depth]
        for pos in range(start, n - (k - depth) + 1):
            if items[pos] == item:
                chosen.append(pos)
                yield from walk(depth + 1, pos + 1, chosen)
                chosen.pop()

    yield from walk(0, 0, [])


def has_satisfying_embedding(
    seq: "DbSequence", pattern: Sequence[int], specs: Sequence[ConstraintSpec]
) -> bool:
    for positions in iter_embeddings(seq.items, pattern):
        if all(check_occurrence(seq, positions, s) for s in specs):
            return True
    return False


def require_known_attributes(
    specs: Sequence[ConstraintSpec], attribute_names: Sequence[str]
) -> None:
    """Reject specs that name attributes the database does not declare."""
    known = set(attribute_names)
    unknown = sorted(
        {s.attribute for s in specs if s.attribute is not None} - known
    )
    if unknown:
        raise ValueError(
            f"constraints reference undeclared attributes: {', '.join(unknown)}"
        )


def support_of(
    pattern: Sequence[int],
    db: "AttributedDatabase",
    specs: Sequence[ConstraintSpec] = (),
) -> int:
    """Constrained support: sequences holding >=1 embedding satisfying all specs.

    Embeddings are enumerated exhaustively, which makes this the reference
    primitive for the oracles (and far too slow for real mining).  Only a
    sequence whose items hold the pattern as a subsequence gets a view.
    """
    if not pattern:
        raise ValueError("support is undefined for the empty pattern")
    require_known_attributes(specs, db.attribute_names)
    return sum(
        1 for si, items in enumerate(db.items)
        if _holds(items, pattern) and has_satisfying_embedding(db.sequence(si), pattern, specs)
    )


def _holds(items: Sequence[int], pattern: Sequence[int]) -> bool:
    """Whether ``pattern`` is a subsequence of ``items``."""
    rest = iter(items)
    return all(item in rest for item in pattern)


# --- pairwise (arc-level) rules ---------------------------------------------

@dataclass(frozen=True)
class PairwiseRules:
    """The subset of a spec list checkable on consecutive pattern steps.

    Gap bounds compose conjunctively per attribute; item_set specs intersect.
    ``gap_bounds`` holds (attribute, lower, upper) with None for absent sides.
    """

    allowed_items: frozenset[int] | None
    gap_bounds: tuple[tuple[str, int | None, int | None], ...]


def imposable(specs: Sequence[ConstraintSpec]) -> tuple[ConstraintSpec, ...]:
    """The specs a diagram build can encode as arc-existence rules."""
    return tuple(s for s in specs if s.kind in (Kind.GAP, Kind.ITEM_SET))


def pairwise_rules(specs: Sequence[ConstraintSpec]) -> PairwiseRules:
    allowed: frozenset[int] | None = None
    lo: dict[str, int] = {}
    hi: dict[str, int] = {}
    for spec in specs:
        if spec.kind is Kind.ITEM_SET:
            allowed = spec.items if allowed is None else allowed & spec.items
        elif spec.kind is Kind.GAP:
            if spec.direction == GE:
                lo[spec.attribute] = max(lo.get(spec.attribute, spec.c), spec.c)
            else:
                hi[spec.attribute] = min(hi.get(spec.attribute, spec.c), spec.c)
    bounds = tuple(
        (attr, lo.get(attr), hi.get(attr)) for attr in sorted(set(lo) | set(hi))
    )
    return PairwiseRules(allowed_items=allowed, gap_bounds=bounds)


# --- textual syntax ----------------------------------------------------------

_ATTR_RE = re.compile(r"^(gap|span|max|min|sum|avg|med)\(([A-Za-z_][\w.-]*)\)(>=|<=)(-?\d+)$")
_LEN_RE = re.compile(r"^length(>=|<=)(-?\d+)$")
_SET_RE = re.compile(r"^itemset\{(\d+(?:,\d+)*)\}$")


def parse_constraint(text: str) -> ConstraintSpec:
    """Parse the textual syntax, e.g. ``gap(time)>=30`` or ``itemset{1,5,9}``."""
    compact = "".join(text.split())
    m = _ATTR_RE.match(compact)
    if m:
        kind, attr, op, c = m.groups()
        return ConstraintSpec(Kind(kind), attribute=attr, direction=op, c=int(c))
    m = _LEN_RE.match(compact)
    if m:
        op, c = m.groups()
        return ConstraintSpec(Kind.LENGTH, direction=op, c=int(c))
    m = _SET_RE.match(compact)
    if m:
        items = frozenset(int(tok) for tok in m.group(1).split(","))
        return ConstraintSpec(Kind.ITEM_SET, items=items)
    raise ValueError(f"cannot parse constraint {text!r}")


def format_constraint(spec: ConstraintSpec) -> str:
    if spec.kind is Kind.ITEM_SET:
        return "itemset{%s}" % ",".join(str(i) for i in sorted(spec.items))
    if spec.kind is Kind.LENGTH:
        return f"length{spec.direction}{spec.c}"
    return f"{spec.kind.value}({spec.attribute}){spec.direction}{spec.c}"
