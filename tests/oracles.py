"""Path-enumeration ground truths for the per-node information.

These enumerate extension paths explicitly and recompute the aggregates the
propagation is supposed to produce, staying independent of the incremental
update rules they check.
"""
from __future__ import annotations

from mddmine import ConstraintSpec, check_occurrence


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
    best = None
    for path in iter_ut_paths(mdd, si, pos):
        total = sign * sum(path_values(db, si, path, attr))
        if best is None or total > best:
            best = total
    return best


def avg_objective_ground_truth(db, mdd, si: int, pos: int, attr: str, sign: int, bound: int):
    """Maximum of oriented path sum minus bound times path count."""
    best = None
    for path in iter_ut_paths(mdd, si, pos):
        values = path_values(db, si, path, attr)
        objective = sign * sum(values) - bound * len(values)
        if best is None or objective > best:
            best = objective
    return best


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
