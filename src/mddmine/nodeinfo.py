"""Per-node constraint information and feasible-extension tests.

For every event (equivalently, every (node, sequence-id) pair of the diagram)
this module precomputes aggregates over the extensions reachable from it, the
paths that follow arcs of the same sequence down to the terminal:

* span/max/min: the minimum and maximum attribute value reachable;
* sum: the extremal reachable path sum (maximal for >=, minimal for <=);
* avg: the (sum, count) pair of the path maximizing sum - c*count, which is
  the path whose average clears the bound c best;
* med: a (count difference, best value below c, best value at or above c)
  triple of a path selected through dominance rules;
* remaining length: the longest arc path ahead, for length lower bounds.

Upper-bound directions reuse the lower-bound machinery on negated values:
stat(V) <= c holds exactly when stat(-V) >= -c for sums, averages, and
medians, so sums, average pairs, and median triples are stored in "oriented"
form, over s*value with s = +1 for >= and s = -1 for <=.  Everything is exact
integer arithmetic; division never happens in a feasibility decision.

The extension tests combine a pattern occurrence's running statistics with
the information stored at its final event.  The stored values include that
event's own attribute value, so the tests subtract it from the pattern side
(idempotent for min/max).  Median pattern triples are therefore maintained
over the occurrence excluding its final event.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence as SequenceT

from .constraints import (
    GE,
    ConstraintSpec,
    Kind,
    Monotonicity,
    check_occurrence,
    classify,
    require_known_attributes,
)
from .mdd import Mdd
from .seqdb import AttributedDatabase

MedTriple = tuple[int, int, int]


def _sign(direction: str) -> int:
    return 1 if direction == GE else -1


def med_fold(value: int, bound: int, triple: MedTriple) -> MedTriple:
    """Fold one oriented value into a median triple."""
    t1, t2, t3 = triple
    if value >= bound:
        return (t1 + 1, t2, value if value < t3 else t3)
    return (t1 - 1, value if value > t2 else t2, t3)


def med_dominates(a: MedTriple, b: MedTriple, bound: int) -> bool:
    """Whether suffix triple ``a`` strictly beats ``b`` as stored information.

    A triple summarizes a non-empty multiset S of oriented values against the
    bound c: (#{v >= c} - #{v < c}, largest v < c, smallest v >= c), with the
    column's sentinels (min - 1, max + 1) for an empty side.  A prefix P,
    summarized alike, is feasible with S when median(P + S) >= c, which is
    exactly ``med_extendable``: the balances sum to more than 0, or they
    cancel and max(p2, t2) + min(p3, t3) >= 2c (both sides of c are then
    non-empty in P + S, so no sentinel survives the max and min).

    (a) On realizable triples the rule is a total preorder that matches
        semantic dominance: ``a`` beats ``b`` iff every prefix feasible with
        ``b`` is feasible with ``a``, and ties are semantically equivalent.
        A larger balance wins: a prefix feasible with ``b`` has
        p1 + b1 >= 0, so p1 + a1 > 0.  At equal balance k only prefixes of
        balance -k are undecided; with P_lo = c - p2, P_hi = p3 - c and
        T_lo, T_hi alike, such a prefix is feasible iff
        min(P_hi, T_hi) >= min(P_lo, T_lo).  If T_hi >= T_lo
        (``ok``: t2 + t3 >= 2c) that is P_hi >= min(P_lo, T_lo), easier for
        larger t2; otherwise it is P_hi >= P_lo and T_hi >= P_lo, easier for
        larger t3.  P_hi >= P_lo alone satisfies any ``ok`` triple, so ``ok``
        beats not ``ok``; equal deciding values give equal conditions.
    (b) ``med_fold`` preserves dominance: fold(v, t) summarizes S + {v}, and
        P is feasible with S + {v} iff P + {v} is feasible with S, so if
        ``a`` beats or ties ``b`` then fold(v, a) beats or ties fold(v, b).

    By induction over successors, ``propagate`` thus stores a triple that
    beats or ties every extension path's, and one median test on it is
    exact.  tests/test_nodeinfo.py checks (a) and (b) exhaustively.
    """
    if a[0] != b[0]:
        return a[0] > b[0]
    a_ok = a[1] + a[2] >= 2 * bound
    b_ok = b[1] + b[2] >= 2 * bound
    if a_ok and not b_ok:
        return True
    if a_ok and b_ok:
        return a[1] > b[1]
    if not a_ok and not b_ok:
        return a[2] > b[2]
    return False


# --- derived needs -------------------------------------------------------------

@dataclass(frozen=True)
class _Needs:
    span_attrs: tuple[str, ...]
    sum_keys: tuple[tuple[str, int], ...]            # (attr, sign), sum specs only
    avg_keys: tuple[tuple[str, int, int], ...]       # (attr, sign, oriented bound)
    med_keys: tuple[tuple[str, int, int], ...]
    stat_sum_keys: tuple[tuple[str, int], ...]       # (attr, sign), sum and avg specs
    need_maxlen: bool


def _derive_needs(specs: SequenceT[ConstraintSpec]) -> _Needs:
    span: list[str] = []
    sums: list[tuple[str, int]] = []
    avgs: list[tuple[str, int, int]] = []
    meds: list[tuple[str, int, int]] = []
    stat_sums: list[tuple[str, int]] = []
    need_maxlen = False

    def push(seq: list, key) -> None:
        if key not in seq:
            seq.append(key)

    for spec in specs:
        if spec.kind in (Kind.SPAN, Kind.MAX, Kind.MIN):
            push(span, spec.attribute)
        elif spec.kind is Kind.SUM:
            push(sums, (spec.attribute, _sign(spec.direction)))
            push(stat_sums, (spec.attribute, _sign(spec.direction)))
        elif spec.kind is Kind.AVG:
            s = _sign(spec.direction)
            push(avgs, (spec.attribute, s, s * spec.c))
            push(stat_sums, (spec.attribute, s))
        elif spec.kind is Kind.MED:
            s = _sign(spec.direction)
            push(meds, (spec.attribute, s, s * spec.c))
        elif spec.kind is Kind.LENGTH and spec.direction == GE:
            need_maxlen = True
    return _Needs(tuple(span), tuple(sums), tuple(avgs), tuple(meds),
                  tuple(stat_sums), need_maxlen)


def oriented_sentinels(values: SequenceT[int]) -> tuple[int, int]:
    """(below-everything, above-everything) sentinels for one oriented column."""
    return min(values) - 1, max(values) + 1


# --- the information store ------------------------------------------------------

@dataclass
class InfoStore:
    """Arrays of per-event information, indexed [sequence index][position]."""

    span: dict[str, list[list[tuple[int, int]]]] = field(default_factory=dict)
    sums: dict[tuple[str, int], list[list[int]]] = field(default_factory=dict)
    avg: dict[tuple[str, int, int], list[list[tuple[int, int]]]] = field(default_factory=dict)
    med: dict[tuple[str, int, int], list[list[MedTriple]]] = field(default_factory=dict)
    maxlen: list[list[int]] | None = None


def propagate(
    mdd: Mdd,
    db: AttributedDatabase,
    specs: SequenceT[ConstraintSpec],
) -> InfoStore:
    """Compute all per-event information the spec list calls for.

    Runs backward over each sequence, mirroring the diagram construction
    order, so successor information is final before a position is processed.
    Average and median information depend on the constraint bound and are
    computed per constraint instance; span and sum information are shared per
    attribute (and direction).
    """
    needs = _derive_needs(specs)
    store = InfoStore()
    succ_tables = mdd.succ

    for attr in needs.span_attrs:
        cols = db.columns(attr)
        per_sid: list[list[tuple[int, int]]] = []
        for si, col in enumerate(cols):
            succ = succ_tables[si]
            arr: list[tuple[int, int]] = [None] * len(col)  # type: ignore[list-item]
            for j in range(len(col) - 1, -1, -1):
                lo = hi = col[j]
                for k in succ[j]:
                    k_lo, k_hi = arr[k]
                    if k_lo < lo:
                        lo = k_lo
                    if k_hi > hi:
                        hi = k_hi
                arr[j] = (lo, hi)
            per_sid.append(arr)
        store.span[attr] = per_sid

    for attr, sign in needs.sum_keys:
        cols = db.columns(attr)
        per_sums: list[list[int]] = []
        for si, col in enumerate(cols):
            succ = succ_tables[si]
            arr: list[int] = [0] * len(col)
            for j in range(len(col) - 1, -1, -1):
                v = sign * col[j]
                best = v
                for k in succ[j]:
                    cand = v + arr[k]
                    if cand > best:
                        best = cand
                arr[j] = best
            per_sums.append(arr)
        store.sums[(attr, sign)] = per_sums

    for attr, sign, bound in needs.avg_keys:
        cols = db.columns(attr)
        per_avg: list[list[tuple[int, int]]] = []
        for si, col in enumerate(cols):
            succ = succ_tables[si]
            arr: list[tuple[int, int]] = [None] * len(col)  # type: ignore[list-item]
            for j in range(len(col) - 1, -1, -1):
                v = sign * col[j]
                b1, b2 = v, 1
                score = b1 - bound * b2
                for k in succ[j]:
                    k1, k2 = arr[k]
                    c1, c2 = v + k1, 1 + k2
                    c_score = c1 - bound * c2
                    if c_score > score:
                        b1, b2, score = c1, c2, c_score
                arr[j] = (b1, b2)
            per_avg.append(arr)
        store.avg[(attr, sign, bound)] = per_avg

    for attr, sign, bound in needs.med_keys:
        cols = db.columns(attr)
        per_med: list[list[MedTriple]] = []
        for si, col in enumerate(cols):
            succ = succ_tables[si]
            oriented = [sign * v for v in col]
            sent_lo, sent_hi = oriented_sentinels(oriented)
            empty = (0, sent_lo, sent_hi)
            arr: list[MedTriple] = [None] * len(col)  # type: ignore[list-item]
            for j in range(len(col) - 1, -1, -1):
                v = oriented[j]
                best = med_fold(v, bound, empty)
                for k in succ[j]:
                    cand = med_fold(v, bound, arr[k])
                    if med_dominates(cand, best, bound):
                        best = cand
                arr[j] = best
            per_med.append(arr)
        store.med[(attr, sign, bound)] = per_med

    if needs.need_maxlen:
        per_len: list[list[int]] = []
        for si in range(len(db.sequences)):
            succ = succ_tables[si]
            length = len(succ)
            arr = [1] * length
            for j in range(length - 1, -1, -1):
                best = 0
                for k in succ[j]:
                    if arr[k] > best:
                        best = arr[k]
                arr[j] = 1 + best
            per_len.append(arr)
        store.maxlen = per_len

    return store


def dump_info_tsv(store: InfoStore, db: AttributedDatabase) -> str:
    """Flatten the store for inspection: sid, pos, info label, beta values.

    Sum, average, and median entries are reported in oriented form (values
    negated for <= bounds); the label records the natural bound.
    """
    lines = ["sid\tpos\tinfo\tvalues"]

    def emit(label: str, arrays, render: Callable) -> None:
        for si, arr in enumerate(arrays):
            for pos, value in enumerate(arr):
                lines.append(f"{si + 1}\t{pos + 1}\t{label}\t{render(value)}")

    for attr, arrays in sorted(store.span.items()):
        emit(f"span({attr})", arrays, lambda v: f"{v[0]},{v[1]}")
    for (attr, sign), arrays in sorted(store.sums.items()):
        op = GE if sign > 0 else "<="
        emit(f"sum({attr},{op})", arrays, lambda v: str(v))
    for (attr, sign, bound), arrays in sorted(store.avg.items()):
        op = GE if sign > 0 else "<="
        emit(f"avg({attr},{op}{sign * bound})", arrays, lambda v: f"{v[0]},{v[1]}")
    for (attr, sign, bound), arrays in sorted(store.med.items()):
        op = GE if sign > 0 else "<="
        emit(f"med({attr},{op}{sign * bound})", arrays, lambda v: f"{v[0]},{v[1]},{v[2]}")
    if store.maxlen is not None:
        emit("maxlen", store.maxlen, str)
    return "\n".join(lines) + "\n"


# --- running statistics of one occurrence ---------------------------------------

#: admission tags of the anti-monotone range constraints, each a bound on one
#: statistic of the occurrence's own (min, max) window
_ANTI_RANGE_TAGS = {Kind.SPAN: "span_le", Kind.MAX: "max_le", Kind.MIN: "min_ge"}


class StatPlan:
    """Layout of the running statistics entries carry for a spec list.

    A stats value is a nested tuple ``(length, spans, sums, meds)``:
    per-attribute (min, max) pairs, oriented sums shared by sum and average
    constraints, and oriented median triples over the occurrence excluding
    its final event.  Each component updates in O(1) per appended event.
    """

    def __init__(self, db: AttributedDatabase, specs: SequenceT[ConstraintSpec]):
        require_known_attributes(specs, db.attribute_names)
        self.db = db
        self.specs = tuple(specs)
        needs = _derive_needs(specs)
        self.span_attrs = needs.span_attrs
        self.sum_keys = needs.stat_sum_keys
        self.med_keys = needs.med_keys
        self._span_cols = [db.columns(attr) for attr in self.span_attrs]
        self._sum_cols = [db.columns(attr) for attr, _ in self.sum_keys]
        self._med_cols = [db.columns(attr) for attr, _, _ in self.med_keys]
        self._med_sentinels: list[list[tuple[int, int]]] = []
        for (attr, sign, _), cols in zip(self.med_keys, self._med_cols):
            self._med_sentinels.append(
                [oriented_sentinels([sign * v for v in col]) for col in cols]
            )
        self.bindings = self._bind(specs)

    def _bind(self, specs: SequenceT[ConstraintSpec]) -> list[tuple]:
        """One admission step per spec, its tag chosen by ``classify``."""
        bindings: list[tuple] = []
        for spec in specs:
            kind = spec.kind
            anti = classify(spec) is Monotonicity.ANTI_MONOTONE
            if kind in (Kind.GAP, Kind.ITEM_SET):
                # pairwise rules: the diagram's arcs (or the baseline's step
                # scan) already enforce them
                bindings.append(("skip",))
            elif kind is Kind.LENGTH:
                bindings.append(("len_le" if anti else "len_ge", spec.c))
            elif kind in (Kind.SPAN, Kind.MAX, Kind.MIN):
                slot = self.span_attrs.index(spec.attribute)
                if anti:
                    bindings.append((_ANTI_RANGE_TAGS[kind], slot, spec.c))
                else:
                    bindings.append(("range", slot, spec))
            elif kind is Kind.SUM:
                sign = _sign(spec.direction)
                slot = self.sum_keys.index((spec.attribute, sign))
                bindings.append(("sum", slot, sign, spec))
            elif kind is Kind.AVG:
                sign = _sign(spec.direction)
                slot = self.sum_keys.index((spec.attribute, sign))
                key = (spec.attribute, sign, sign * spec.c)
                bindings.append(("avg", slot, sign, key, spec))
            elif kind is Kind.MED:
                sign = _sign(spec.direction)
                key = (spec.attribute, sign, sign * spec.c)
                slot = self.med_keys.index(key)
                bindings.append(("med", slot, key, spec))
            else:
                raise AssertionError(f"unhandled kind {kind!r}")
        return bindings

    def initial(self, si: int, pos: int):
        spans = tuple(
            (col[si][pos], col[si][pos]) for col in self._span_cols
        )
        sums = tuple(
            sign * col[si][pos]
            for (_, sign), col in zip(self.sum_keys, self._sum_cols)
        )
        # median triples start empty: (0, sentinel_low, sentinel_high)
        meds = tuple(
            (0, self._med_sentinels[slot][si][0], self._med_sentinels[slot][si][1])
            for slot in range(len(self.med_keys))
        )
        return (1, spans, sums, meds)

    def extend(self, stats, si: int, old_pos: int, new_pos: int):
        length, spans, sums, meds = stats
        new_spans = tuple(
            (
                min(lo, col[si][new_pos]),
                max(hi, col[si][new_pos]),
            )
            for (lo, hi), col in zip(spans, self._span_cols)
        )
        new_sums = tuple(
            acc + sign * col[si][new_pos]
            for acc, (_, sign), col in zip(sums, self.sum_keys, self._sum_cols)
        )
        # the median triple tracks the occurrence minus its final event, so
        # extending folds in the value at the previous endpoint
        new_meds = tuple(
            med_fold(sign * col[si][old_pos], bound, triple)
            for triple, (_, sign, bound), col in zip(meds, self.med_keys, self._med_cols)
        )
        return (length + 1, new_spans, new_sums, new_meds)

    def recompute(self, si: int, positions: SequenceT[int]):
        """Statistics rebuilt from scratch; reference for the O(1) updates."""
        stats = self.initial(si, positions[0])
        for prev, pos in zip(positions, positions[1:]):
            stats = self.extend(stats, si, prev, pos)
        return stats


# --- extension tests -------------------------------------------------------------

def span_extendable(
    pattern_min: int,
    pattern_max: int,
    info: tuple[int, int],
    spec: ConstraintSpec,
) -> bool:
    """Feasible-extension test for span, max, and min constraints.

    For monotone directions the reachable minimum and maximum decide
    reachability of the bound; for anti-monotone directions the occurrence
    itself must satisfy the bound now (for span <= c additionally requiring
    the reachable value window to overlap the allowed one, which can only
    fail for proper extensions).
    """
    lo, hi = info
    kind, direction, c = spec.kind, spec.direction, spec.c
    if kind is Kind.SPAN:
        if direction == GE:
            return max(pattern_max, hi) - min(pattern_min, lo) >= c
        if pattern_max - pattern_min > c:
            return False
        return max(lo, pattern_max - c) <= min(hi, pattern_min + c)
    if kind is Kind.MAX:
        if direction == GE:
            return max(pattern_max, hi) >= c
        return pattern_max <= c
    if kind is Kind.MIN:
        if direction == GE:
            return pattern_min >= c
        return min(pattern_min, lo) <= c
    raise ValueError(f"span_extendable does not handle kind {kind!r}")


def med_extendable(pattern_triple: MedTriple, info: MedTriple, spec: ConstraintSpec) -> bool:
    """Whether some extension reaches the median bound.

    Both triples are in oriented form (values and bound negated for <=); the
    pattern triple excludes the current event, whose value is folded into the
    stored information.  See ``med_dominates`` for why one stored triple
    decides this exactly.
    """
    bound = spec.c if spec.direction == GE else -spec.c
    p1, p2, p3 = pattern_triple
    t1, t2, t3 = info
    total = p1 + t1
    if total > 0:
        return True
    return total == 0 and max(p2, t2) + min(p3, t3) >= 2 * bound


# --- the combined checker ---------------------------------------------------------

class FeasibilityChecker:
    """Entry admission and witness checks shared by the miners.

    ``admit`` decides whether a freshly extended occurrence stays in the
    projection: anti-monotone constraints must hold on the occurrence right
    now, while monotone and non-monotone constraints must still be reachable
    according to the stored information.  Without a store (the raw-database
    baseline) only the anti-monotone checks run.  ``witness`` re-verifies a
    complete occurrence against every constraint through the reference
    evaluator; emission counts only witnesses.
    """

    def __init__(
        self,
        db: AttributedDatabase,
        plan: StatPlan,
        store: InfoStore | None = None,
        counters=None,
        med_observer: Callable | None = None,
    ):
        self.db = db
        self.plan = plan
        self.store = store
        self.counters = counters
        self.med_observer = med_observer

    def _count(self, n: int = 1) -> None:
        if self.counters is not None:
            self.counters.constraint_checks += n

    def _probe(self) -> None:
        # information-table lookups are counted apart from occurrence-level
        # constraint evaluations; they replace them, and the relative cost of
        # the two is exactly what the miners are compared on
        if self.counters is not None:
            self.counters.info_probes += 1

    def admit(self, si: int, pos: int, stats, positions=None) -> bool:
        length, spans, sums, meds = stats
        store = self.store
        plan = self.plan
        for binding in plan.bindings:
            tag = binding[0]
            if tag == "skip":
                continue
            if tag == "len_le":
                self._count()
                if length > binding[1]:
                    return False
            elif tag == "len_ge":
                if store is not None and store.maxlen is not None:
                    self._probe()
                    if (length - 1) + store.maxlen[si][pos] < binding[1]:
                        return False
            elif tag == "span_le":
                self._count()
                p_lo, p_hi = spans[binding[1]]
                if p_hi - p_lo > binding[2]:
                    return False
            elif tag == "max_le":
                self._count()
                if spans[binding[1]][1] > binding[2]:
                    return False
            elif tag == "min_ge":
                self._count()
                if spans[binding[1]][0] < binding[2]:
                    return False
            elif tag == "range":
                if store is None:
                    continue
                _, slot, spec = binding
                self._probe()
                p_lo, p_hi = spans[slot]
                info = store.span[spec.attribute][si][pos]
                if not span_extendable(p_lo, p_hi, info, spec):
                    return False
            elif tag == "sum":
                if store is None:
                    continue
                _, slot, sign, spec = binding
                self._probe()
                beta = store.sums[(spec.attribute, sign)][si][pos]
                current = sign * plan._sum_cols[slot][si][pos]
                # oriented comparison; reuse the natural-space op via sign
                total = (sums[slot] - current) + beta
                if total < sign * spec.c:
                    return False
            elif tag == "avg":
                if store is None:
                    continue
                _, slot, sign, key, spec = binding
                self._probe()
                b1, b2 = store.avg[key][si][pos]
                current = sign * plan._sum_cols[slot][si][pos]
                total = (sums[slot] - current) + b1
                count = (length - 1) + b2
                if total < sign * spec.c * count:
                    return False
            elif tag == "med":
                if store is None:
                    continue
                _, slot, key, spec = binding
                self._probe()
                info = store.med[key][si][pos]
                verdict = med_extendable(meds[slot], info, spec)
                if self.med_observer is not None:
                    self.med_observer(si, pos, key, meds[slot], verdict, positions)
                if not verdict:
                    return False
        return True

    def scan_gate(self, si: int, pos: int, stats) -> bool:
        """Cheap test whether extensions of this entry can possibly survive."""
        length, spans, _, _ = stats
        store = self.store
        for binding in self.plan.bindings:
            tag = binding[0]
            if tag == "len_le" and length >= binding[1]:
                return False
            if tag == "span_le" and store is not None:
                _, slot, c = binding
                p_lo, p_hi = spans[slot]
                lo, hi = store.span[self.plan.span_attrs[slot]][si][pos]
                if max(lo, p_hi - c) > min(hi, p_lo + c):
                    return False
        return True

    def witness(self, si: int, positions: SequenceT[int]) -> bool:
        seq = self.db.sequences[si]
        for spec in self.plan.specs:
            self._count()
            if not check_occurrence(seq, positions, spec):
                return False
        return True
