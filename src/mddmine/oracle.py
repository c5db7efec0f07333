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

from .constraints import ConstraintSpec, pairwise_rules, support_of
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
        super().__init__(db, specs, theta, StatPlan(db, specs), counters, use_prop5)
        rules = pairwise_rules(specs)
        self._rules = rules
        self._gap_cols = {
            attr: db.columns(attr) for attr, _, _ in rules.gap_bounds
        }
        ordering = db.ordering_attribute
        self._ord_col = self._gap_cols.get(ordering) if ordering else None
        self._ord_hi = None
        for attr, _, hi in rules.gap_bounds:
            if attr == ordering and hi is not None:
                self._ord_hi = hi

    def _successors(self, si: int, dead: set[int]):
        return self._start_positions(si, dead), _Steps(self, si, dead)

    def _start_positions(self, si: int, dead: set[int]) -> Iterable[int]:
        # a generator: only the root scan reads it and pays its checks
        allowed = self._rules.allowed_items
        counters = self.counters
        for pos, item in enumerate(self._items[si]):
            if item in dead:
                continue
            if allowed is not None:
                counters.constraint_checks += 1
                if item not in allowed:
                    continue
            yield pos

    def _next_positions(self, si: int, pos: int, dead: set[int]) -> Iterable[int]:
        items = self._items[si]
        counters = self.counters
        bounds = self._rules.gap_bounds
        allowed = self._rules.allowed_items
        ord_col = self._ord_col[si] if self._ord_col is not None else None
        ord_hi = self._ord_hi
        for k in range(pos + 1, len(items)):
            # the ordering attribute grows along the sequence, so once its
            # gap upper bound is exceeded no later position can comply
            if ord_hi is not None and ord_col[k] - ord_col[pos] > ord_hi:
                counters.constraint_checks += 1
                break
            # an abandoned item would be dropped by the scan: skip it unchecked
            if items[k] in dead:
                continue
            ok = True
            for attr, lo, hi in bounds:
                counters.constraint_checks += 1
                delta = self._gap_cols[attr][si][k] - self._gap_cols[attr][si][pos]
                if (lo is not None and delta < lo) or (hi is not None and delta > hi):
                    ok = False
                    break
            if ok and allowed is not None:
                counters.constraint_checks += 1
                ok = items[k] in allowed
            if ok:
                yield k


class _Steps:
    """``steps[pos]``: the positions one ppcc step reaches from ``pos``."""

    __slots__ = ("miner", "si", "dead")

    def __init__(self, miner: PpccMiner, si: int, dead: set[int]):
        self.miner, self.si, self.dead = miner, si, dead

    def __getitem__(self, pos: int) -> Iterable[int]:
        return self.miner._next_positions(self.si, pos, self.dead)


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
    items: SequenceT[int], max_len: int
) -> Iterable[tuple[int, ...]]:
    length = len(items)
    for r in range(1, min(max_len, length) + 1):
        for positions in combinations(range(length), r):
            yield tuple(items[p] for p in positions)


def mine_bruteforce(
    db: AttributedDatabase,
    specs: SequenceT[ConstraintSpec] = (),
    theta: int = 1,
    max_len: int | None = None,
) -> PatternSet:
    """Enumerate every distinct subsequence and post-check constrained support.

    Intended for small instances only; the candidate space is exponential in
    the sequence length.
    """
    if theta < 1:
        raise ValueError("minimum support must be at least 1")
    if max_len is None:
        max_len = max((len(seq) for seq in db.sequences), default=0)
    candidates: set[tuple[int, ...]] = set()
    for seq in db.sequences:
        candidates.update(_distinct_subsequences(seq.items, max_len))
    out = PatternSet()
    for pattern in candidates:
        support = support_of(pattern, db, specs)
        if support >= theta:
            out.add(pattern, support)
    return out
