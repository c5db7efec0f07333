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

``StatPlan`` compiles a spec list once into straight-line Python: the
statistics are one flat tuple, and ``initial``, ``extend``, ``admit``,
``gate`` and ``witness`` are generated with columns, bounds and store arrays
bound as constants, so no per-entry work dispatches on the constraint kind.
``span_extendable``, ``med_extendable``, ``med_fold`` and ``med_dominates``
are the reference forms of the tests the generated code inlines.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence as SequenceT

from .constraints import (
    GE,
    ConstraintSpec,
    Kind,
    Monotonicity,
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
    attribute (and direction).  The median loop inlines ``med_fold`` and
    ``med_dominates``, as the generated ``extend`` does, and stores exactly
    the triples a fold through those reference forms would.
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
        two_bound = 2 * bound
        per_med: list[list[MedTriple]] = []
        for si, col in enumerate(cols):
            succ = succ_tables[si]
            oriented = [sign * v for v in col]
            sent_lo, sent_hi = oriented_sentinels(oriented)
            arr: list[MedTriple] = [None] * len(col)  # type: ignore[list-item]
            for j in range(len(col) - 1, -1, -1):
                # med_fold of v into the empty triple, then into each
                # successor's, replacing the best only by a triple that
                # med_dominates it; v lies strictly between the sentinels
                v = oriented[j]
                up = v >= bound
                b1, b2, b3 = (1, sent_lo, v) if up else (-1, v, sent_hi)
                b_ok = b2 + b3 >= two_bound
                for k in succ[j]:
                    c1, c2, c3 = arr[k]
                    if up:
                        c1 += 1
                        if v < c3:
                            c3 = v
                    else:
                        c1 -= 1
                        if v > c2:
                            c2 = v
                    if c1 != b1:
                        if c1 < b1:
                            continue
                    elif c2 + c3 >= two_bound:
                        if b_ok and c2 <= b2:
                            continue
                    elif b_ok or c3 <= b3:
                        continue
                    b1, b2, b3 = c1, c2, c3
                    b_ok = b2 + b3 >= two_bound
                arr[j] = (b1, b2, b3)
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


# --- the compiled plan ------------------------------------------------------------

class StatPlan:
    """Statistics, admission and emission for one spec list, compiled once.

    A stats value is one flat tuple ``(length, lo_0, hi_0, ..., sum_0, ...,
    m1_0, m2_0, m3_0, ...)``: the occurrence's (min, max) per span attribute,
    its oriented sum per (attribute, sign), shared by sum and average
    constraints, and its oriented median triple per median key over the
    occurrence excluding its final event.  ``span_at``, ``sum_at`` and
    ``med_at`` map each key to its first slot.

    Five functions are generated as Python source (kept in ``source``) with
    columns, signs, bounds and the store's arrays bound as constants:

    * ``initial(si, pos)`` and ``extend(stats, si, old, new)`` build stats in
      O(1) per appended event, with median folds inlined;
    * ``admit(si, pos, stats)`` returns the index of the first spec whose
      test fails, or ``len(specs)`` when the entry stays.  The test follows
      ``classify``: anti-monotone constraints must hold on the occurrence
      now, monotone and non-monotone ones must stay reachable by the store
      (``span_extendable``, ``med_extendable`` and the sum and average
      bounds; without a store, as in the raw-database baseline, these are
      left to emission), and gap and item-set rules are enforced by arcs or
      the baseline's step scan;
    * ``gate(si, pos, stats)`` is false when no extension of the entry can
      pass a ``length<=`` or ``span<=`` constraint;
    * ``witness(si, pos, stats)`` returns the index of the first spec the
      occurrence itself fails, or ``len(specs)``, exactly as
      ``check_occurrence`` would decide it.

    ``witness`` needs only the endpoint and the stats: on an occurrence that
    follows arcs (or the baseline's step scan) every gap and item-set rule
    holds, and each other kind is a function of the slots.  Length, span,
    max and min read ``ln``, ``lo`` and ``hi``; a sum compares its oriented
    slot with ``s*c`` and an average, as ``ln > 0``, with ``s*c*ln``.  The
    endpoint's oriented value folded into the stored triple gives the whole
    occurrence's triple, whose median reaches the oriented bound ``b`` iff
    more values lie at or above ``b`` than below (``t1 > 0``), or the counts
    tie and the two middle values, the largest below and the smallest at or
    above ``b``, average at least ``b`` (``t2 + t3 >= 2b``).  ``span>=`` is
    exact here; its relaxation is an admission matter only.

    A verdict ``r`` of ``admit`` ran the tests of specs 0..r; it costs
    ``constraint_checks[r]`` occurrence-level checks and ``info_probes[r]``
    information lookups, counted apart because lookups replace checks and
    the relative cost of the two is what the miners are compared on.
    """

    def __init__(
        self,
        db: AttributedDatabase,
        specs: SequenceT[ConstraintSpec],
        store: InfoStore | None = None,
    ):
        require_known_attributes(specs, db.attribute_names)
        self.db = db
        self.specs = tuple(specs)
        needs = _derive_needs(specs)
        self.span_attrs = needs.span_attrs
        self.sum_keys = needs.stat_sum_keys
        self.med_keys = needs.med_keys
        _compile(self, store)

    def recompute(self, si: int, positions: SequenceT[int]):
        """Statistics folded from scratch through ``initial`` and ``extend``."""
        stats = self.initial(si, positions[0])
        for prev, pos in zip(positions, positions[1:]):
            stats = self.extend(stats, si, prev, pos)
        return stats


def _compile(plan: StatPlan, store: InfoStore | None) -> None:
    """Generate, ``exec`` and attach the plan's five functions and tables.

    ``fields`` fixes the order of the stats tuple; the slot offsets
    ``span_at``, ``sum_at`` and ``med_at`` are read off it.
    """
    consts: list = []

    def const(obj) -> str:
        consts.append(obj)
        return f"k{len(consts) - 1}"

    attrs = dict.fromkeys(spec.attribute for spec in plan.specs if spec.attribute)
    columns = {a: plan.db.columns(a) for a in attrs}
    col = {a: const(columns[a]) for a in attrs}
    x = {a: f"x{i}" for i, a in enumerate(attrs)}  # a column's value at one position
    lo = {a: f"lo{i}" for i, a in enumerate(plan.span_attrs)}
    hi = {a: f"hi{i}" for i, a in enumerate(plan.span_attrs)}
    acc = {k: f"s{j}" for j, k in enumerate(plan.sum_keys)}
    med = {k: (f"m{j}a", f"m{j}b", f"m{j}c") for j, k in enumerate(plan.med_keys)}
    fields = ["ln"] + [f for a in plan.span_attrs for f in (lo[a], hi[a])]
    fields += list(acc.values()) + [f for k in plan.med_keys for f in med[k]]
    plan.span_at = {a: fields.index(lo[a]) for a in plan.span_attrs}
    plan.sum_at = {k: fields.index(acc[k]) for k in plan.sum_keys}
    plan.med_at = {k: fields.index(med[k][0]) for k in plan.med_keys}
    row = "(" + ", ".join(fields) + ",)"
    unpack = f"        {row[1:-1]} = st"
    value_attrs = dict.fromkeys(list(plan.span_attrs) + [a for a, _ in plan.sum_keys])

    def fetch(at: str) -> list[str]:
        return [f"        {x[a]} = {col[a]}[si][{at}]" for a in value_attrs]

    init = fetch("pos")
    for k in plan.med_keys:
        sentinels = [oriented_sentinels([k[1] * v for v in c]) for c in columns[k[0]]]
        init.append(f"        {med[k][1]}, {med[k][2]} = {const(sentinels)}[si]")
    init.append("        ln = 1")
    init += [f"        {lo[a]} = {hi[a]} = {x[a]}" for a in plan.span_attrs]
    init += [f"        {acc[a, s]} = {'' if s > 0 else '-'}{x[a]}" for a, s in plan.sum_keys]
    init += [f"        {med[k][0]} = 0" for k in plan.med_keys]

    ext = [unpack, "        ln += 1"] + fetch("new")
    for a in plan.span_attrs:
        ext.append(f"        if {x[a]} < {lo[a]}: {lo[a]} = {x[a]}")
        ext.append(f"        if {x[a]} > {hi[a]}: {hi[a]} = {x[a]}")
    ext += [f"        {acc[a, s]} {'+' if s > 0 else '-'}= {x[a]}" for a, s in plan.sum_keys]
    for k in plan.med_keys:
        (attr, sign, bound), (t1, t2, t3) = k, med[k]
        # the triple excludes the final event, so the old endpoint folds in
        ext += [f"        v = {'' if sign > 0 else '-'}{col[attr]}[si][old]",
                f"        if v >= {bound}:",
                f"            {t1} += 1",
                f"            if v < {t3}: {t3} = v",
                "        else:",
                f"            {t1} -= 1",
                f"            if v > {t2}: {t2} = v"]

    adm, gate, wit = [unpack], [], [unpack]
    checks, probes, fetched = [0], [0], set()
    for i, spec in enumerate(plan.specs):
        kind, c, attr = spec.kind, spec.c, spec.attribute
        anti = classify(spec) is Monotonicity.ANTI_MONOTONE
        sign = _sign(spec.direction) if spec.direction else 0
        # ``exact`` fails the occurrence itself; arcs enforce gap and item-set rules
        exact = {Kind.LENGTH: "ln", Kind.SPAN: f"{hi.get(attr)} - {lo.get(attr)}",
                 Kind.MAX: hi.get(attr), Kind.MIN: lo.get(attr)}.get(kind)
        if exact is not None:
            exact += f" {'<' if sign > 0 else '>'} {c}"
        elif kind in (Kind.SUM, Kind.AVG):
            exact = f"{acc[attr, sign]} < {sign * c}{' * ln' if kind is Kind.AVG else ''}"
        elif kind is Kind.MED:
            p1, p2, p3 = med[attr, sign, sign * c]
            # the endpoint folded in gives the whole occurrence's triple
            wit += [f"        v = {'' if sign > 0 else '-'}{col[attr]}[si][pos]",
                    f"        if v >= {sign * c}: t1, t2, t3 = {p1} + 1, {p2}, "
                    f"({p3} if {p3} < v else v)",
                    f"        else: t1, t2, t3 = {p1} - 1, ({p2} if {p2} > v else v), {p3}"]
            exact = f"not (t1 > 0 or t1 == 0 and t2 + t3 >= {2 * sign * c})"
        if exact is not None:
            wit.append(f"        if {exact}: return {i}")
        test = exact if anti else None
        if kind is Kind.LENGTH and anti:
            gate.append(f"        if st[0] >= {c}: return False")
        elif kind is Kind.LENGTH and store is not None and store.maxlen is not None:
            test = f"ln - 1 + {const(store.maxlen)}[si][pos] < {c}"
        elif kind in (Kind.SPAN, Kind.MAX, Kind.MIN) and anti:
            if kind is Kind.SPAN and store is not None:
                # the reachable window must overlap [max - c, min + c]
                gate += [f"        L, H = {const(store.span[attr])}[si][pos]",
                         f"        l, h = st[{plan.span_at[attr]}], st[{plan.span_at[attr] + 1}]",
                         f"        if (L if L > h - {c} else h - {c}) > "
                         f"(H if H < l + {c} else l + {c}): return False"]
        elif kind in (Kind.SPAN, Kind.MAX, Kind.MIN) and store is not None:
            adm.append(f"        L, H = {const(store.span[attr])}[si][pos]")
            top = f"({hi[attr]} if {hi[attr]} > H else H)"
            bottom = f"({lo[attr]} if {lo[attr]} < L else L)"
            test = {Kind.SPAN: f"{top} - {bottom} < {c}",
                    Kind.MAX: f"{top} < {c}", Kind.MIN: f"{bottom} > {c}"}[kind]
        elif kind in (Kind.SUM, Kind.AVG) and store is not None:
            if attr not in fetched:
                adm.append(f"        {x[attr]} = {col[attr]}[si][pos]")
                fetched.add(attr)
            # the stored value counts the final event again: take it off
            prefix = f"{acc[attr, sign]} {'-' if sign > 0 else '+'} {x[attr]}"
            if kind is Kind.SUM:
                test = f"{prefix} + {const(store.sums[attr, sign])}[si][pos] < {sign * c}"
            else:
                adm.append(f"        b1, b2 = {const(store.avg[attr, sign, sign * c])}[si][pos]")
                test = f"{prefix} + b1 < {sign * c} * (ln - 1 + b2)"
        elif kind is Kind.MED and store is not None:
            key = (attr, sign, sign * c)
            p1, p2, p3 = med[key]
            adm += [f"        t1, t2, t3 = {const(store.med[key])}[si][pos]",
                    f"        t1 += {p1}"]
            test = (f"not (t1 > 0 or t1 == 0 and ({p2} if {p2} > t2 else t2) + "
                    f"({p3} if {p3} < t3 else t3) >= {2 * sign * c})")
        if test is not None:
            adm.append(f"        if {test}: return {i}")
        checks.append(checks[-1] + (test is not None and anti))
        probes.append(probes[-1] + (test is not None and not anti))
    n = len(plan.specs)
    plan.constraint_checks = tuple(checks[1:]) + (checks[-1],)
    plan.info_probes = tuple(probes[1:]) + (probes[-1],)

    plan.source = "\n".join([
        f"def _make({', '.join(f'k{i}' for i in range(len(consts)))}):",
        "    def initial(si, pos):", *init, f"        return {row}",
        "    def extend(st, si, old, new):", *ext, f"        return {row}",
        "    def admit(si, pos, st):", *adm, f"        return {n}",
        "    def gate(si, pos, st):", *gate, "        return True",
        "    def witness(si, pos, st):", *wit, f"        return {n}",
        "    return initial, extend, admit, gate, witness",
    ]) + "\n"
    namespace: dict = {}
    exec(plan.source, namespace)
    plan.initial, plan.extend, plan.admit, plan.gate, plan.witness = namespace["_make"](*consts)


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
