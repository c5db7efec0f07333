"""Ground truths for the per-node information and the compiled plan.

These enumerate extension paths explicitly and recompute the aggregates the
propagation is supposed to produce, and compute an occurrence's statistics
from their definitions, staying independent of the incremental update rules
they check.  ``scan_verdict`` drives the plan's own ``scan`` on one entry, so
that its verdicts can be held against these truths.
"""
from __future__ import annotations

from dataclasses import replace

from mddmine import GE, LE, ConstraintSpec, Kind, check_occurrence
from mddmine.miner import _ROOT


def store_arrays(store, kind: str) -> dict:
    """One kind's information as per-sequence arrays, keyed as before the
    record layout: the attribute for span, the rest of the key otherwise."""
    return {
        key[1] if kind == "span" else key[1:]: store.info(key)
        for key in store.layout if key[0] == kind
    }


def iter_ut_paths(mdd, si: int, pos: int):
    """Every extension path from an event: position tuples following that
    sequence's successor arcs, starting with the event itself."""
    succ = mdd.succ[si]

    def walk(p):
        yield (p,)
        for k in succ[p]:
            for rest in walk(k):
                yield (p,) + rest

    yield from walk(pos)


def path_values(db, si: int, positions, attr: str):
    col = db.columns(attr)[si]
    return [col[p] for p in positions]


def span_ground_truth(db, mdd, si: int, pos: int, attr: str):
    lo = hi = None
    for path in iter_ut_paths(mdd, si, pos):
        for v in path_values(db, si, path, attr):
            lo = v if lo is None or v < lo else lo
            hi = v if hi is None or v > hi else hi
    return lo, hi


def sum_ground_truth(db, mdd, si: int, pos: int, attr: str, sign: int):
    """The largest path sum for sign 1, the least for sign -1."""
    sums = [sum(path_values(db, si, path, attr)) for path in iter_ut_paths(mdd, si, pos)]
    return max(sums) if sign > 0 else min(sums)


def avg_objective_ground_truth(db, mdd, si: int, pos: int, attr: str, sign: int, bound: int):
    """The path sum minus bound times path count: the largest for sign 1,
    the least for sign -1."""
    objectives = [sum(values) - bound * len(values)
                  for values in (path_values(db, si, path, attr)
                                 for path in iter_ut_paths(mdd, si, pos))]
    return max(objectives) if sign > 0 else min(objectives)


def maxlen_ground_truth(mdd, si: int, pos: int):
    return max(len(path) for path in iter_ut_paths(mdd, si, pos))


def extension_exists(db, mdd, si, positions, spec: ConstraintSpec) -> bool:
    """Brute force: can the occurrence, extended along arcs (possibly not at
    all), satisfy the constraint under the reference evaluator?"""
    seq = db.sequences[si]
    return any(
        check_occurrence(seq, tuple(positions) + path[1:], spec)
        for path in iter_ut_paths(mdd, si, positions[-1])
    )


def iter_arc_consistent_occurrences(mdd, si: int, max_len: int | None = None):
    """All occurrences realizable in the diagram for one sequence: position
    tuples starting at a root-reachable event and following labeled arcs."""
    for start in mdd.starts[si]:
        for path in iter_ut_paths(mdd, si, start):
            if max_len is None or len(path) <= max_len:
                yield path


def med_triple(values, bound, sentinels, sign: int = 1):
    """The median triple by its definition: for sign 1 the balance of
    values at or above ``bound`` over those below, the largest below and
    the smallest at or above; for sign -1 the balance of values at or below
    over those above, the smallest above and the largest at or below;
    ``sentinels`` for an empty side."""
    if sign > 0:
        far, own = [v for v in values if v < bound], [v for v in values if v >= bound]
        return (len(own) - len(far), max(far, default=sentinels[0]),
                min(own, default=sentinels[1]))
    far, own = [v for v in values if v > bound], [v for v in values if v <= bound]
    return (len(own) - len(far), min(far, default=sentinels[0]),
            max(own, default=sentinels[1]))


def database_sentinels(db, attr: str, sign: int) -> tuple[int, int]:
    """(min - 1, max + 1) of ``attr`` over the database, swapped for sign
    -1: the far side's then the own side's empty value."""
    values = [v for col in db.columns(attr) for v in col]
    lo, hi = min(values) - 1, max(values) + 1
    return (lo, hi) if sign > 0 else (hi, lo)


def definition_stats(plan, db, si: int, positions):
    """Each slot of the plan's flat stats tuple, by its definition, placed at
    the plan's offset for its key: the length, (min, max) per span
    attribute, the plain sum per attribute, and per median key the
    median triple over the occurrence excluding its final event, with
    ``database_sentinels`` for an empty side."""
    slots = {0: len(positions)}
    for attr, at in plan.span_at.items():
        vals = [db.columns(attr)[si][p] for p in positions]
        slots[at], slots[at + 1] = min(vals), max(vals)
    for attr, at in plan.sum_at.items():
        slots[at] = sum(db.columns(attr)[si][p] for p in positions)
    for (attr, sign, bound), at in plan.med_at.items():
        values = [db.columns(attr)[si][p] for p in positions[:-1]]
        slots[at], slots[at + 1], slots[at + 2] = med_triple(
            values, bound, database_sentinels(db, attr, sign), sign)
    assert sorted(slots) == list(range(len(slots)))  # offsets tile the tuple
    return tuple(slots[i] for i in range(len(slots)))


def scan_entry(plan, db, si: int, occ):
    """``plan.scan`` on the one entry whose occurrence is ``occ``: a
    one-sequence projection, without Prop. 5, over dict tables.  The parent
    is ``occ[:-1]`` with ``definition_stats``, stepping to ``occ[-1]`` alone,
    and a one-event occurrence is the root parent's entry at the start
    ``occ[0]``.  Returns the admitted entries by item, the verdict
    histogram and the visited count, 0 when the gate stopped the parent."""
    if len(occ) == 1:
        parents, starts, nexts = _ROOT, (occ[0],), {}
    else:
        parents = ((occ[-2], *definition_stats(plan, db, si, occ[:-1])),)
        starts, nexts = (), {occ[-2]: (occ[-1],)}
    hist = [0] * (len(plan.specs) + 1)
    candidates, visited, _ = plan.scan(
        ((si, parents),), {si: starts}, {si: nexts}, {si: db.sequences[si].items},
        set(), hist, 1)
    fresh = {item: pdb[si] for item, pdb in candidates.items()}
    return fresh, hist, visited


def scan_verdict(plan, db, si: int, occ):
    """The verdict ``scan_entry`` gives: the index of the first spec the
    entry fails, ``len(plan.specs)`` when it is admitted, or ``None`` when
    the gate stops its parent, which is a rejection too."""
    _, hist, visited = scan_entry(plan, db, si, occ)
    return hist.index(1) if visited else None


def never_rejecting(spec: ConstraintSpec) -> ConstraintSpec:
    """A spec with the same stats slots that no occurrence of up to 100
    events fails without a store: anti-monotone bounds move out of reach,
    and monotone and non-monotone specs are left to emission anyway."""
    far = {(Kind.LENGTH, LE): 100, (Kind.SPAN, LE): 10**6, (Kind.MAX, LE): 10**6,
           (Kind.MIN, GE): -10**6}.get((spec.kind, spec.direction))
    return spec if far is None else replace(spec, c=far)
