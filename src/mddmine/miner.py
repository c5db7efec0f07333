"""Depth-first constrained pattern mining by pseudo projection.

A projection is a set of cursors into the diagram: per sequence index, one
entry for every live occurrence endpoint of the current pattern, because
under gap-style constraints the minimal occurrence may be a dead end while a
later one still extends.  An entry is one flat tuple ``(pos, ln, lo0, ...)``
of the endpoint and its running statistics: it decides every constraint, so
no positions are kept and equal entries are interchangeable and deduplicated.
Admission follows each constraint's monotonicity class (``classify``):
anti-monotone constraints must hold on the occurrence itself, monotone and
non-monotone ones must stay reachable according to the node information, and
gap and item-set rules are already enforced by the diagram's arcs.

Candidate items for extending a pattern are collected by scanning each live
entry's successors, sequence by sequence in ascending index order.  One call
of the plan's generated ``scan`` kernel does a whole projection: per
sequence it extends every parent entry along the successor tables (the
diagram's here, the raw-row step scan in ``mine_ppcc``), deduplicates,
admits, and files the admitted entries under their items; the root scan runs
it from the empty occurrence.  Items whose plain sequence support is below
the threshold are abandoned before any scan, and between sequences an item
whose remaining attainable support provably falls below the threshold is
abandoned too (`prop5_prune`, inlined in the kernel as a limit; ``sup_p``
turns it off).  An abandoned successor costs one set lookup and gets no
entry; neither rule changes the mined output.  A pattern is emitted when
enough sequences own an entry whose ``witness`` verdict passes every
constraint; entries that are not witnesses yet stay in the projection in
case an extension completes them.  The search is one depth-first traversal
in the calling thread, with the cyclic garbage collector off.

Statistics, admission, the scan gate, ``witness`` and the kernel are
compiled by ``StatPlan`` for the spec list (and the diagram miner's store).
An admission verdict is the index of the first failing spec, or the spec
count when the entry stays; the kernel counts verdicts in a histogram,
which the plan's prefix tables turn into checks and probes once per scan.
The only per-entry call left in mining is ``witness`` at emission.
"""
from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence as SequenceT

from .constraints import ConstraintSpec, imposable
from .mdd import Mdd, build_mdd
from .nodeinfo import InfoStore, StatPlan, propagate
from .seqdb import AttributedDatabase


@dataclass
class MiningCounters:
    nodes_visited: int = 0
    entries_created: int = 0
    scanned_sequences: int = 0
    constraint_checks: int = 0
    info_probes: int = 0
    patterns_emitted: int = 0
    peak_entries: int = 0


def prop5_prune(n: int, sup_i: int, sup_p: int, theta: int) -> bool:
    """True when item i cannot become frequent in the current projection.

    n sequences have been searched so far and sup_i of them contained i; the
    projection spans sup_p sequences, so i can gain at most sup_p - n more.

    The miner also applies this bound before any scan, with the item's plain
    sequence support in place of the running count: a scan returns an item
    only when its support in the scan reaches theta, and that count
    (sequences holding an admitted entry for the item) never exceeds the
    item's plain support.  An item below theta in the database is therefore abandoned
    up front, which changes no returned candidate, no emitted pattern and no
    descendant.
    """
    return n - sup_i > sup_p - theta


@dataclass(frozen=True)
class Pattern:
    items: tuple[int, ...]
    support: int


class PatternSet:
    """Mined output: item tuples with supports, canonically ordered."""

    def __init__(self, pairs: Iterable[tuple[SequenceT[int], int]] = ()):
        self._support: dict[tuple[int, ...], int] = {
            tuple(items): support for items, support in pairs
        }

    def add(self, items: SequenceT[int], support: int) -> None:
        self._support[tuple(items)] = support

    def support(self, items: SequenceT[int]) -> int | None:
        return self._support.get(tuple(items))

    def __contains__(self, items) -> bool:
        return tuple(items) in self._support

    def __len__(self) -> int:
        return len(self._support)

    def __iter__(self):
        for items in sorted(self._support):
            yield Pattern(items, self._support[items])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternSet):
            return NotImplemented
        return self._support == other._support

    def __repr__(self) -> str:
        return f"PatternSet({sorted(self._support.items())!r})"

    def render(self) -> str:
        """One line per pattern: space-separated items, tab, ``#SUP: n``."""
        lines = [
            f"{' '.join(str(i) for i in p.items)}\t#SUP: {p.support}" for p in self
        ]
        return "\n".join(lines) + ("\n" if lines else "")


#: sequence index -> its entries, flat ``(endpoint, *statistics)`` tuples; the
#: scan inserts the indices in ascending order, so they iterate in that order
Projection = dict[int, list[tuple[int, ...]]]

#: the parents of a root scan: one identity parent, the empty occurrence
_ROOT = (None,)


class _ProjectionMiner:
    """Shared pseudo-projection skeleton; subclasses supply the step source."""

    def __init__(
        self,
        plan: StatPlan,
        theta: int,
        counters: MiningCounters | None = None,
        use_prop5: bool = True,
    ):
        if theta < 1:
            raise ValueError("minimum support must be at least 1")
        self.theta = theta
        self.plan = plan
        self.counters = counters if counters is not None else MiningCounters()
        self.use_prop5 = use_prop5
        self._items = plan.db.items
        plain = Counter(item for items in self._items for item in set(items))
        self._infrequent = frozenset(i for i, sup in plain.items() if sup < theta)

    # -- hooks -------------------------------------------------------------

    def _tables(self, dead: set[int]):
        """``(STARTS, NEXTS)`` for ``StatPlan.scan``: ``STARTS[si]`` holds the
        root scan's positions of sequence ``si`` and ``NEXTS[si][pos]`` those
        one step after ``pos``; positions of items in ``dead`` may be left out."""
        raise NotImplementedError

    # -- candidate generation ----------------------------------------------

    def root_candidates(self) -> list[tuple[int, Projection]]:
        """Frequent single items with their projections."""
        per_seq = ((si, _ROOT) for si in range(len(self._items)))
        return self._scan_candidates(per_seq, len(self._items))

    def extend(self, pdb: Projection) -> list[tuple[int, Projection]]:
        """Candidate extension items with their projections, threshold-filtered."""
        return self._scan_candidates(pdb.items(), len(pdb))

    def _scan_candidates(self, projection, sup_p: int):
        plan, use_prop5 = self.plan, self.use_prop5
        dead: set[int] = set(self._infrequent) if use_prop5 else set()
        hist = [0] * (len(plan.specs) + 1)  # admission verdicts
        limit = sup_p - self.theta if use_prop5 else sup_p  # n - sup_i < sup_p
        candidates, visited, scanned = plan.scan(
            projection, *self._tables(dead), self._items, dead, hist, limit)
        counters = self.counters
        counters.nodes_visited += visited
        counters.entries_created += hist[-1]
        counters.scanned_sequences += scanned
        counters.constraint_checks += sum(map(mul, hist, plan.constraint_checks))
        counters.info_probes += sum(map(mul, hist, plan.info_probes))
        return [(i, pdb) for i, pdb in sorted(candidates.items()) if len(pdb) >= self.theta]

    # -- emission and traversal ----------------------------------------------

    def _witness_support(self, pdb: Projection) -> int:
        """Sequences owning an occurrence that satisfies every constraint.

        Returns 0 as soon as the threshold is out of reach; the exact count
        matters only for emitted patterns.
        """
        witness = self.plan.witness
        passed = len(self.plan.specs)
        count = checks = 0
        left = len(pdb)
        for si, entries in pdb.items():
            left -= 1
            for entry in entries:
                verdict = witness(si, entry)
                checks += verdict + 1 if verdict < passed else passed
                if verdict == passed:
                    count += 1
                    break
            if count + left < self.theta:
                count = 0
                break
        self.counters.constraint_checks += checks
        return count

    def mine_patterns(self) -> PatternSet:
        """Run the search with the cyclic garbage collector off.

        Mining forms no reference cycles: entries hold ints, per-item lists
        and projections hold entries, and nothing points back at a
        container that holds it, so reference counting frees all of it.  The
        switch is process-wide while mining runs; the prior state is restored
        afterwards, so a caller that had the collector off keeps it off.
        """
        out, enabled = PatternSet(), gc.isenabled()
        gc.disable()
        try:
            self._dfs(self.root_candidates(), out)
        finally:
            if enabled:
                gc.enable()
        return out

    def _dfs(self, base: list[tuple[int, Projection]], out: PatternSet) -> None:
        """Search from the root candidates in ``base``, which it empties: the
        stack is then the only owner of a projection, and one dies as soon
        as the search pops it."""
        counters = self.counters
        stack: list[tuple[tuple[int, ...], Projection, int]] = []
        live = 0
        while base:
            item, pdb = base.pop()
            stack.append(((item,), pdb, sum(map(len, pdb.values()))))
            live += stack[-1][2]
        counters.peak_entries = max(counters.peak_entries, live)
        while stack:
            items, pdb, size = stack.pop()
            live -= size
            support = self._witness_support(pdb)
            if support >= self.theta:
                out.add(items, support)
                counters.patterns_emitted += 1
            for item, child in reversed(self.extend(pdb)):
                stack.append((items + (item,), child, sum(map(len, child.values()))))
                live += stack[-1][2]
            counters.peak_entries = max(counters.peak_entries, live)


class MppMiner(_ProjectionMiner):
    """Prefix projection over the diagram's successor structure."""

    def __init__(
        self,
        mdd: Mdd,
        store: InfoStore | None,
        db: AttributedDatabase,
        specs: SequenceT[ConstraintSpec],
        theta: int,
        *,
        counters: MiningCounters | None = None,
        use_prop5: bool = True,
    ):
        if db is not mdd.db:
            raise ValueError("the diagram was built over another database")
        if set(mdd.imposed) != set(imposable(specs)):  # emission trusts the arcs
            raise ValueError("the diagram was built for other gap or item-set specs")
        if store is not None and store.mdd is not mdd:  # admission trusts the records
            raise ValueError("the information store was propagated over another diagram")
        super().__init__(StatPlan(db, specs, store), theta, counters, use_prop5)
        self.mdd = mdd

    def _tables(self, dead: set[int]):
        return self.mdd.starts, self.mdd.succ


def mine(
    mdd: Mdd,
    store: InfoStore | None,
    db: AttributedDatabase,
    specs: SequenceT[ConstraintSpec],
    theta: int,
    *,
    use_prop5: bool = True,
    counters: MiningCounters | None = None,
    threads: int = 1,
) -> PatternSet:
    """Mine all frequent constraint-satisfying patterns from a built diagram.

    The diagram must have been built over ``db`` itself with the
    pairwise-checkable subset of ``specs`` imposed, and ``store`` must hold
    the information ``specs`` need (``propagate`` over this diagram for them
    or a superset); any mismatch is a ``ValueError``.  Mining runs in the calling thread.
    """
    # threads stays as a parameter only because perfbench/worker.py passes 1
    if threads != 1:
        raise ValueError("mining runs single-threaded; threads must be 1")
    return MppMiner(mdd, store, db, specs, theta, counters=counters,
                    use_prop5=use_prop5).mine_patterns()


def mine_mpp(
    db: AttributedDatabase,
    specs: SequenceT[ConstraintSpec],
    theta: int,
    **options,
) -> PatternSet:
    """Convenience wrapper: build the diagram and its information, then mine.

    ``options`` are passed to ``mine``.
    """
    mdd = build_mdd(db, specs)
    store = propagate(mdd, db, specs)
    return mine(mdd, store, db, specs, theta, **options)
