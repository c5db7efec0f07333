"""Reference miners that define ground truth for equivalence testing.

``mine_ppcc`` is prefix projection directly over the database rows: no
diagram, no lookahead information.  Gap, item-set and anti-monotone rules
are checked per step; the rest are enforced at emission by the compiled
``witness`` test the diagram miner uses too.  ``mine_bruteforce``, the
slow, obviously-correct baseline for small instances, enumerates every
distinct subsequence and counts constrained support by exhaustive
embedding enumeration through ``check_occurrence``, independently of both.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence as SequenceT

from .constraints import (
    LE,
    ConstraintSpec,
    Kind,
    has_satisfying_embedding,
    pairwise_rules,
    require_known_attributes,
)
from .miner import MiningCounters, PatternSet, _ProjectionMiner
from .nodeinfo import StatPlan
from .seqdb import AttributedDatabase


class PpccMiner(_ProjectionMiner):
    """Prefix projection with per-step constraint checks on raw rows."""

    def __init__(
        self,
        db: AttributedDatabase,
        specs: SequenceT[ConstraintSpec],
        theta: int,
        *,
        counters: MiningCounters | None = None,
        use_prop5: bool = True,
    ):
        super().__init__(StatPlan(db, specs), theta, counters, use_prop5)
        self._table = _StepTable(_Steps(db, specs, self.counters))

    def _tables(self, dead: set[int]):
        self._table.steps.dead = dead
        return self._table, self._table


class _StepTable:
    """``table[si]`` points the miner's one ``_Steps`` at sequence ``si`` and
    returns it, so the table serves ``StatPlan.scan`` as STARTS and NEXTS."""

    def __init__(self, steps: _Steps):
        self.steps = steps

    def __getitem__(self, si: int) -> _Steps:
        self.steps.si = si
        return self.steps


class _Steps:
    """The miner's one step source, pointed at a sequence by ``_StepTable``.

    Iterating it yields the root scan's positions of sequence ``si``, and
    ``steps[pos]`` the positions one ppcc step reaches from ``pos``.  Both
    are generators that read ``si`` and ``dead`` when first advanced, which
    the scan does at once, and pay their checks only as they are read.
    Items in ``dead`` would be dropped by the scan, so they are skipped
    unchecked.
    """

    __slots__ = ("items", "counters", "allowed", "gaps", "ord_col", "ord_hi", "si", "dead")

    def __init__(self, db: AttributedDatabase, specs: SequenceT[ConstraintSpec],
                 counters: MiningCounters):
        rules = pairwise_rules(specs)
        self.items, self.counters, self.allowed = db.items, counters, rules.allowed_items
        self.gaps = [(db.columns(attr), lo, hi) for attr, lo, hi in rules.gap_bounds]
        self.ord_col = self.ord_hi = None
        for attr, _, hi in rules.gap_bounds:
            if attr == db.ordering_attribute and hi is not None:
                self.ord_col, self.ord_hi = db.columns(attr), hi

    def __iter__(self):
        allowed, counters, dead = self.allowed, self.counters, self.dead
        for pos, item in enumerate(self.items[self.si]):
            if item in dead:
                continue
            if allowed is not None:
                counters.constraint_checks += 1
                if item not in allowed:
                    continue
            yield pos

    def __getitem__(self, pos: int) -> Iterable[int]:
        si, counters, allowed, dead = self.si, self.counters, self.allowed, self.dead
        items = self.items[si]
        ord_hi = self.ord_hi
        ord_col = self.ord_col[si] if ord_hi is not None else None
        for k in range(pos + 1, len(items)):
            # the ordering attribute grows along the sequence, so once its
            # gap upper bound is exceeded no later position can comply
            if ord_hi is not None and ord_col[k] - ord_col[pos] > ord_hi:
                counters.constraint_checks += 1
                break
            if items[k] in dead:
                continue
            ok = True
            for col, lo, hi in self.gaps:
                counters.constraint_checks += 1
                delta = col[si][k] - col[si][pos]
                if (lo is not None and delta < lo) or (hi is not None and delta > hi):
                    ok = False
                    break
            if ok and allowed is not None:
                counters.constraint_checks += 1
                ok = items[k] in allowed
            if ok:
                yield k


def mine_ppcc(
    db: AttributedDatabase,
    specs: SequenceT[ConstraintSpec],
    theta: int,
    *,
    counters: MiningCounters | None = None,
    use_prop5: bool = True,
) -> PatternSet:
    """Baseline miner; identical output to the diagram miner, checked per step."""
    return PpccMiner(
        db, specs, theta, counters=counters, use_prop5=use_prop5
    ).mine_patterns()


def _distinct_subsequences(
    items: SequenceT[int], cap: int
) -> Iterable[tuple[int, ...]]:
    length = len(items)
    for r in range(1, min(cap, length) + 1):
        for positions in combinations(range(length), r):
            yield tuple(items[p] for p in positions)


def mine_bruteforce(
    db: AttributedDatabase,
    specs: SequenceT[ConstraintSpec] = (),
    theta: int = 1,
) -> PatternSet:
    """Enumerate every distinct subsequence and post-check constrained support.

    Candidates are no longer than the tightest ``length<=`` spec, which
    loses nothing since an occurrence is as long as its pattern.  Intended
    for small instances only; the candidate space is exponential in the
    sequence length.
    """
    if theta < 1:
        raise ValueError("minimum support must be at least 1")
    require_known_attributes(specs, db.attribute_names)
    cap = min((spec.c for spec in specs if spec.kind is Kind.LENGTH and spec.direction == LE),
              default=max(map(len, db.items), default=0))
    candidates: set[tuple[int, ...]] = set()
    for items in db.items:
        candidates.update(_distinct_subsequences(items, cap))
    sequences = db.sequences  # each access builds new views, so build them once
    out = PatternSet()
    for pattern in candidates:
        support = sum(has_satisfying_embedding(seq, pattern, specs) for seq in sequences)
        if support >= theta:
            out.add(pattern, support)
    return out
