"""Per-node constraint information and feasible-extension tests.

For every event (equivalently, every (node, sequence-id) pair of the diagram)
this module computes aggregates over the extensions reachable from it, the
paths that follow arcs of the same sequence down to the terminal:

* span/max/min: the minimum and maximum attribute value reachable;
* sum: the extremal reachable path sum (maximal for >=, minimal for <=);
* avg: the extremal sum of (value - c) over a path (maximal for >=,
  minimal for <=), since an average reaches the bound c exactly when its
  values' excesses over c sum to at least (at most) 0;
* med: a (count difference, best value on the far side of c, best value on
  c's own side) triple of a path selected through dominance rules;
* remaining length: the longest arc path ahead, for length lower bounds.

Every value stored or held by a search entry is a column value or a sum of
them.  Upper-bound directions reuse the lower-bound rules: stat(V) <= c
holds exactly when stat(-V) >= -c for sums, averages, and medians, so a
rule stated for >= reads the same for <= with the comparisons ``_OPS``
flips.  Everything is exact integer arithmetic; division never happens in
a feasibility decision.

Each event's information is one record of ``width`` integer slots holding
every key's slots at fixed offsets: (lo, hi) per span key, one sum,
one average excess, a median triple, and maxlen.  ``propagate`` generates
one backward pass per spec list that builds all of them at once, and packs a
sequence's records into one flat block when it is done: 4-byte slots while
every value fits in 32 bits, else 8-byte slots or, past 64 bits, a list.
The pass folds each successor record into an event's record, one arc at a
time, or, on a dense sequence of an unfiltered diagram, keeps a fold of
the current successor window and folds in only the positions that enter
it, so that it costs about one step per event rather than one per arc.

The extension tests combine a pattern occurrence's running statistics with
the information stored at its final event.  The stored values include that
event's own attribute value, so the tests subtract it from the pattern side
(idempotent for min/max).  Median pattern triples are therefore maintained
over the occurrence excluding its final event.

``StatPlan`` compiles a spec list once into straight-line Python: the
statistics are one flat tuple, and the miners' per-projection ``scan`` kernel
and the emission test ``witness`` are generated with columns, bounds and the
store's records bound as constants, so no per-entry work dispatches on the
constraint kind.  ``med_fold`` and ``med_dominates`` state the median step
that ``propagate`` inlines, with the argument that makes it exact.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain, starmap
from struct import Struct
from struct import error as StructError
from typing import Sequence as SequenceT

from .constraints import (
    GE,
    LE,
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


#: a direction's sign to the operators that stand for >=, < and > in a test
#: stated for >=: a <= bound flips them, as stat(V) <= c iff stat(-V) >= -c
_OPS = {1: (">=", "<", ">"), -1: ("<=", ">", "<")}


def med_fold(value: int, bound: int, triple: MedTriple) -> MedTriple:
    """Fold one value into a ``>=`` median triple."""
    t1, t2, t3 = triple
    if value >= bound:
        return (t1 + 1, t2, value if value < t3 else t3)
    return (t1 - 1, value if value > t2 else t2, t3)


def med_dominates(a: MedTriple, b: MedTriple, bound: int) -> bool:
    """Whether suffix triple ``a`` strictly beats ``b`` as stored information.

    A triple summarizes a non-empty multiset S of values against a ``>=``
    bound c: (#{v >= c} - #{v < c}, largest v < c, smallest v >= c), with the
    attribute's pair over the database, (min - 1, max + 1), for an empty
    side; a ``<=`` bound reads the same through ``_OPS``.  A prefix P,
    summarized alike, is feasible with S when median(P + S) >= c, which
    holds exactly when the balances sum to more than 0, or they cancel and
    max(p2, t2) + min(p3, t3) >= 2c (both sides of c are then non-empty in
    P + S, so no sentinel survives the max and min).  (a) and (b) hold for
    any pair below and above every value, as the exhaustive test's
    window-wide sentinels exercise.

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

#: information kinds in record order, with their slot counts
_WIDTH = {"span": 2, "sum": 1, "avg": 1, "med": 3, "maxlen": 1}


def _key(spec: ConstraintSpec) -> tuple | None:
    """The information key ``spec`` reads, or ``None``.

    ``max<=`` and ``min>=`` are anti-monotone, tested on the occurrence
    alone, and unlike ``span<=`` no gate reads their window: they read none.
    """
    kind, attr = spec.kind, spec.attribute
    if kind is Kind.SPAN or (kind in (Kind.MAX, Kind.MIN)
                             and classify(spec) is Monotonicity.MONOTONE):
        return ("span", attr)
    if kind is Kind.SUM:
        return ("sum", attr, _sign(spec.direction))
    if kind in (Kind.AVG, Kind.MED):
        return (kind.value, attr, _sign(spec.direction), spec.c)
    if kind is Kind.LENGTH and spec.direction == GE:
        return ("maxlen",)
    return None


def _measure(spec: ConstraintSpec, ln, lo, hi, sums: dict) -> tuple | None:
    """A spec's statistic and bound as source text over the named slots.

    The spec holds when the statistic is ``>=`` the bound (``<=`` through
    ``_OPS``); an average compares its sum with ``c * ln``, which is exact
    as ``ln > 0``.  ``None`` for a median, which reads its triple, and for
    gap and item-set rules, which the arcs enforce.
    """
    s, c = sums.get(spec.attribute), spec.c
    return {Kind.LENGTH: (ln, c), Kind.SPAN: (f"{hi} - {lo}", c), Kind.MAX: (hi, c),
            Kind.MIN: (lo, c), Kind.SUM: (s, c), Kind.AVG: (s, f"{c} * {ln}")}.get(spec.kind)


def _derive_needs(specs: SequenceT[ConstraintSpec]) -> tuple[tuple, ...]:
    """The information keys the specs call for, in record order."""
    keys = {_key(spec) for spec in specs} - {None}
    return tuple(sorted(keys, key=lambda k: (list(_WIDTH).index(k[0]), k)))


def _info_label(key: tuple) -> str:
    """An information key as text: ``span(time)``, ``avg(price,<=70)``, ..."""
    kind, *rest = key
    if len(rest) < 2:
        return f"{kind}({rest[0]})" if rest else kind
    attr, sign, *bound = rest
    return f"{kind}({attr},{GE if sign > 0 else LE}{''.join(map(str, bound))})"


def _sentinels(columns, sign: int) -> tuple[int, int]:
    """A median triple's empty-side values for one attribute: (min - 1,
    max + 1) over the whole database, below and above every value of every
    sequence, swapped for a ``<=`` bound, whose far side lies above it."""
    lo, hi = min(map(min, columns), default=0) - 1, max(map(max, columns), default=0) + 1
    return (lo, hi) if sign > 0 else (hi, lo)


# --- the information store ------------------------------------------------------

@dataclass
class InfoStore:
    """One information record per event of ``mdd``, packed per sequence.

    ``mdd`` is the diagram the records were propagated over.  A record is
    ``width`` integer slots: key ``k``'s information starts at slot
    ``layout[k]``.  ``("span", attr)`` holds (lo, hi), ``("sum", attr, s)``
    the extremal path sum ahead, ``("avg", attr, s, c)`` the extremal excess
    over ``c``, ``("med", attr, s, c)`` the triple and ``("maxlen",)`` the
    longest path ahead; keys are ordered by kind in that order, then sorted.
    ``source`` is the generated pass that computed the records.
    ``records[si]`` holds sequence ``si``'s records back to back, the slot
    ``s`` of position ``pos`` at ``pos * width + s``, in the block
    ``_packer`` picks: an ``array('i')``, an ``array('q')``, or a flat
    ``list`` for a sequence holding a value outside 64 bits, so every
    integer stays exact.  A spec list that needs no information gets an
    empty layout, width 0 and no records.
    """

    mdd: Mdd
    layout: dict[tuple, int] = field(default_factory=dict)
    records: list[array | list[int]] = field(default_factory=list)
    width: int = 0
    source: str = ""

    def info(self, key: tuple) -> list[list]:
        """One key's values per sequence and position; a tuple if several slots."""
        at, slots, w = self.layout[key], _WIDTH[key[0]], self.width
        if slots == 1:
            return [list(rows[at::w]) for rows in self.records]
        return [list(zip(*(rows[at + j::w] for j in range(slots))))
                for rows in self.records]


def propagate(
    mdd: Mdd,
    db: AttributedDatabase,
    specs: SequenceT[ConstraintSpec],
) -> InfoStore:
    """Compute all per-event information the spec list calls for.

    One generated backward pass per sequence, mirroring the diagram
    construction order, so successor records are final before a position is
    processed.  Average and median information depend on the constraint
    bound and are computed per constraint instance; span and sum information
    are shared per attribute (and direction).  A spec list that needs no
    information visits no event.  ``db`` must be the diagram's database.
    The generated source is kept in the store's ``source``.

    A sequence takes one of two loops, which store the same bytes.  The
    per-arc loop folds every successor record into the event's.  The window
    walk serves sequences whose rows are ``range`` windows (the diagram
    filters nothing) and whose first row holds more than ``_DENSE`` arcs.
    ``build_mdd``'s windows have non-decreasing starts and ends along a
    sequence, so walking backward, a row either keeps the end of the row
    after it and contains that row, or moves its end left.  The walk keeps
    each key's fold over the current window.  While the end stays, it folds
    in only the positions that enter at the start; when the end moves, it
    folds the new window afresh.  Span, sum, avg and maxlen fold extrema,
    so the window's extremum folded into the event equals every
    successor's folded in turn.

    A median record is the event alone unless a successor fold beats it,
    and then the first successor fold of the top class.  The window keeps
    ``M``, the earliest successor triple that no other in the window
    beats.  By ``med_dominates`` (b), fold preserves dominance, so
    fold(v, M) is in the top class.  A successor before ``M`` may still
    fold into that class without having tied ``M``.  A fold adds the same
    count to every balance, so only a triple with ``M``'s balance can.  So
    the walk scans from the window's start up to ``M``'s position for the
    first such triple whose fold ties fold(v, M), and takes fold(v, M) if
    there is none.  On ``dense-index`` ``M`` sits 0.63 positions into its
    window on average, so the scan is short.

    The window walk costs one step per event plus the arcs of the rows
    whose end moves.  Besides each sequence's empty last row, on
    ``dense-index`` (seed 1) 6,825 of 90,723 rows move their end, holding
    112,501 of 1,609,243 arcs.  On the click workloads 20,750 of 49,859
    rows move their end and hold 39,329 of 93,055 arcs, so windows save
    few arcs there, and a window step costs more than an arc step.
    ``_DENSE`` is where the two loops cross.  Timing both loops on the
    sequences of each first-row length, ``clicks-s3``'s window walk took
    1.26-1.43x the per-arc time at first rows of 0-5 arcs and 1.04x at 6;
    ``dense-index``'s took 0.67x at 6 and 0.38-0.73x beyond.  So first
    rows longer than 6 take the window walk: 1,908 of ``dense-index``'s
    2,000 sequences and 5 of the click workloads' 5,000.  In-process,
    ``dense-index``'s propagate went 0.225 -> 0.114 s.
    """
    if db is not mdd.db:
        raise ValueError("the diagram was built over another database")
    keys = _derive_needs(specs)
    if not keys:
        return InfoStore(mdd)
    source, walk, layout, width = _compile_propagate(db, keys)
    return InfoStore(mdd, layout, walk(mdd.succ), width, source)


def _packer(width: int):
    """Pack one sequence's record tuples into the narrowest flat block that
    holds every value exactly: an ``array('i')``, an ``array('q')``, or a
    list (``dense-index``'s traced store: 5.71 MB as ``'q'``, 2.94 as ``'i'``).

    ``struct`` raises at the first value a format cannot hold, so trying the
    formats in turn is the range check.  The first sequence that overflows
    ``'i'`` ends the ``'i'`` attempts for the rest of the store, so no later
    sequence is packed twice, even one that would fit.
    """
    pack_i, pack_q = Struct(f"{width}i").pack, Struct(f"{width}q").pack
    narrow = True

    def packed(rows: list[tuple]) -> array | list[int]:
        nonlocal narrow
        # array(code, bytes) over-allocates; the slice is an exact-size copy
        if narrow:
            try:
                return array("i", b"".join(starmap(pack_i, rows)))[:]
            except StructError:
                narrow = False
        try:
            return array("q", b"".join(starmap(pack_q, rows)))[:]
        except StructError:
            return list(chain.from_iterable(rows))

    return packed


#: a sequence whose rows are windows takes the window walk when its first
#: row holds more arcs than this; see ``propagate``
_DENSE = 6


def _compile_propagate(db: AttributedDatabase, keys: SequenceT[tuple]):
    """Generate and ``exec`` the fused backward pass; returns its source, it,
    the layout and the width.

    ``fields`` lists the record's slot expressions; each key's offset is the
    length of the list when its slots are appended.  Within a sequence the
    records are tuples.  An event's record starts from the event alone
    (``own``), and each key folds its successors in:

    * span keeps the smallest ``lo`` and largest ``hi``;
    * sum, avg and maxlen keep the largest successor value (the least under
      ``<=``), against 0 for the path that stops here, and add the event's
      own term: its value, its excess ``x - c``, or 1.  The average term is
      exact because avg(V) >= c iff sum(v - c for v in V) >= 0 on a
      non-empty V, and the excesses of a prefix and a path ahead add up, so
      the extremal excess ahead decides whether any extension reaches c;
    * med starts from the event alone, its empty side holding the key's
      ``_sentinels`` pair as constants, and folds the event's value into
      each successor triple, keeping the first that no later one beats
      (``med_fold`` and ``med_dominates`` inlined, with the sign's ``_OPS``).

    Two loops do this, generated from the same per-key lines; ``propagate``
    states when each runs and why they agree.  The per-arc loop runs
    ``arc`` on each successor record ``u``, unpacked once.  The window walk
    runs ``reset`` when the window's end moves, ``enter`` on each record
    entering the window, and ``finish`` per event, folding the window into
    the event's record.  Span, sum, avg and maxlen build all three from
    ``_keep``.  A median key's ``finish`` is its per-arc ``step`` on the
    window's triple ``M``, with the scan for an earlier tie inserted before
    the win is kept.  A finished sequence's tuples are packed by
    ``_packer``.
    """
    const, make = _generator()
    attrs = dict.fromkeys(key[1] for key in keys if key[0] != "maxlen")
    x = {a: f"x{i}" for i, a in enumerate(attrs)}
    inf = const(math.inf)
    seq = [f"c{i} = {const(db.columns(a))}[si]" for i, a in enumerate(attrs)]
    # own: the event alone; arc: fold successor u in; the window's reset,
    # enter and finish lines: see the docstring
    own = [f"x{i} = c{i}[j]" for i in range(len(attrs))]
    arc: list[str] = []
    reset: list[str] = []
    enter: list[str] = []
    finish: list[str] = []
    fields: list[str] = []
    layout: dict[tuple, int] = {}
    for n, key in enumerate(keys):
        kind = key[0]
        layout[key] = len(fields)
        u = [f"u{len(fields) + w}" for w in range(_WIDTH[kind])]
        # maxlen is the longest path's sum of ones
        v = "1" if kind == "maxlen" else x[key[1]]
        ge, lt, gt = _OPS[key[2] if kind in ("sum", "avg", "med") else 1]
        if kind == "span":
            acc, win, ops = (f"lo{n}", f"hi{n}"), (f"wlo{n}", f"whi{n}"), ("<", ">")
            own.append(f"{acc[0]} = {acc[1]} = {v}")
            reset.append(f"{win[0]}, {win[1]} = {inf}, -{inf}")
            fields += acc
        elif kind != "med":
            if kind == "avg":
                v += f" - {key[3]}" if key[3] >= 0 else f" + {-key[3]}"
            acc, win, ops = (f"g{n}",), (f"wg{n}",), (gt,)
            own.append(f"{acc[0]} = 0")
            reset.append(f"{win[0]} = 0")
            fields.append(f"{v} + {acc[0]}")
        if kind != "med":
            arc += _keep(u, ops, acc)
            enter += _keep(u, ops, win)
            finish += _keep(win, ops, acc)
            continue
        bound, two = key[3], 2 * key[3]
        b, ok = (f"m{n}a", f"m{n}b", f"m{n}c"), f"ok{n}"
        m, mk, mok = (f"wm{n}a", f"wm{n}b", f"wm{n}c"), f"wk{n}", f"wok{n}"
        e, f = _sentinels(db.columns(key[1]), key[2])
        own += [f"v{n} = {v}",
                f"up{n} = v{n} {ge} {bound}",
                f"{b[0]}, {b[1]}, {b[2]} = (1, {e}, v{n}) if up{n} else (-1, v{n}, {f})",
                f"{ok} = {b[1]} + {b[2]} {ge} {two}"]

        def fold(s2: str, s3: str, t2: str, t3: str) -> list[str]:
            # the event's value into a triple's deciding values
            return [f"if up{n}:",
                    f"    {t2} = {s2}",
                    f"    {t3} = {s3} if {s3} {lt} v{n} else v{n}",
                    "else:",
                    f"    {t2} = {s2} if {s2} {gt} v{n} else v{n}",
                    f"    {t3} = {s3}"]

        def over(s2: str, s3: str, t: tuple, t_ok: str, op: str) -> str:
            # at equal balance: s beats t (op gt), or beats or ties it (ge)
            return (f"((not {t_ok} or {s2} {op} {t[1]}) if {s2} + {s3} {ge} {two} "
                    f"else not {t_ok} and {s3} {op} {t[2]})")

        def step(s: tuple, tie: list[str]) -> list[str]:
            # a folded triple of lower balance loses whatever its values
            return [f"t1 = {s[0]} + 1 if up{n} else {s[0]} - 1",
                    f"if t1 >= {b[0]}:",
                    *_indent(fold(s[1], s[2], "t2", "t3"), 1),
                    f"    if t1 > {b[0]} or {over('t2', 't3', b, ok, gt)}:",
                    *_indent(tie, 2),
                    f"        {b[0]}, {b[1]}, {b[2]} = t1, t2, t3",
                    f"        {ok} = t2 + t3 {ge} {two}"]

        at = layout[key]
        reset.append(f"{m[0]} = -{inf}")
        arc += step(u, [])
        enter += [f"if {u[0]} > {m[0]} or {u[0]} == {m[0]} and {over(u[1], u[2], m, mok, ge)}:",
                  f"    {m[0]}, {m[1]}, {m[2]}, {mk} = {u[0]}, {u[1]}, {u[2]}, k",
                  f"    {mok} = {u[1]} + {u[2]} {ge} {two}"]
        finish += step(m, [f"tok = t2 + t3 {ge} {two}",
                           f"for i in range(a, {mk}):",
                           "    r = R[i]",
                           f"    if r[{at}] == {m[0]}:",
                           *_indent(fold(f"r[{at + 1}]", f"r[{at + 2}]", "f2", "f3"), 2),
                           f"        if {over('f2', 'f3', ('t1', 't2', 't3'), 'tok', ge)}:",
                           "            t2, t3 = f2, f3",
                           "            break"])
        fields += b
    unpack = f"{', '.join(f'u{i}' for i in range(len(fields)))}, = R[k]"
    record = f"R[j] = ({', '.join(fields)},)"
    source, walk = make([
        "    def walk(succ_tables):",
        "        out = []",
        "        for si, succ in enumerate(succ_tables):",
        *_indent(seq, 3),
        "            R = [None] * len(succ)",
        # the window walk: the window is [a, end), of which [low, end) is folded
        f"            if type(succ[0]) is range and len(succ[0]) > {_DENSE}:",
        "                end = -1",
        "                for j in range(len(succ) - 1, -1, -1):",
        *_indent(own, 5),
        "                    row = succ[j]",
        "                    a = row.start",
        "                    if row.stop != end:",
        "                        end = low = row.stop",
        *_indent(reset, 6),
        "                    for k in range(low - 1, a - 1, -1):",
        f"                        {unpack}",
        *_indent(enter, 6),
        "                    low = a",
        *_indent(finish, 5),
        f"                    {record}",
        # the per-arc loop
        "            else:",
        "                for j in range(len(succ) - 1, -1, -1):",
        *_indent(own, 5),
        "                    for k in succ[j]:",
        f"                        {unpack}",
        *_indent(arc, 6),
        f"                    {record}",
        f"            out.append({const(_packer(len(fields)))}(R))",
        "        return out",
        "    return walk",
    ])
    return source, walk, layout, len(fields)


def _keep(src, ops: tuple[str, ...], dst) -> list[str]:
    """Lines keeping in each slot of ``dst`` the value of ``src`` that its
    operator prefers: ``<`` the least, ``>`` the greatest."""
    return [f"if {s} {op} {d}: {d} = {s}" for s, op, d in zip(src, ops, dst)]


def _generator():
    """The scaffold of both generators: ``const(obj)`` names ``obj`` as the
    next parameter ``k<i>`` of ``_make``; ``make(body)`` runs ``_make`` over
    the indented body lines and returns the source and what it returns."""
    consts: list = []

    def const(obj) -> str:
        consts.append(obj)
        return f"k{len(consts) - 1}"

    def make(body: list[str]) -> tuple[str, object]:
        params = ", ".join(f"k{i}" for i in range(len(consts)))
        source = f"def _make({params}):\n" + "\n".join(body) + "\n"
        namespace: dict = {}
        exec(source, namespace)
        return source, namespace["_make"](*consts)

    return const, make


def dump_info_tsv(store: InfoStore) -> str:
    """Flatten the store for inspection: sid, pos, info label, beta values.

    Reads the store alone: sid and pos are the 1-based sequence index and
    position.  One block per key, in layout order, its values as stored:
    column values and their sums, labelled with the key's direction and
    bound.
    """
    lines = ["sid\tpos\tinfo\tvalues"]
    for key in store.layout:
        label = _info_label(key)
        for si, arr in enumerate(store.info(key)):
            for pos, value in enumerate(arr):
                text = ",".join(map(str, value)) if isinstance(value, tuple) else value
                lines.append(f"{si + 1}\t{pos + 1}\t{label}\t{text}")
    return "\n".join(lines) + "\n"


# --- the compiled plan ------------------------------------------------------------

class StatPlan:
    """Statistics, admission and emission for one spec list, compiled once.

    An entry is one flat tuple ``(pos, length, lo_0, hi_0, ..., sum_0, ...,
    m1_0, m2_0, m3_0, ...)``: the endpoint, then the stats, which are the
    occurrence's (min, max) per span attribute, its plain sum per attribute,
    shared by every sum and average constraint of either sign, and its
    median triple per median key ``(attr, s, c)`` over the occurrence
    excluding its final event, laid out as the store's: the balance of
    values on the bound's side, then the value nearest the bound on the
    other side and the one nearest it on its own, the key's ``_sentinels``
    pair for an empty side.  So the stats, like the store, hold only column
    values and their sums.
    ``span_at``, ``sum_at`` and ``med_at`` map each span attribute, sum
    attribute and median key to its first slot in the stats, which is one
    less than its slot in the entry.

    Two functions are generated as Python source (kept in ``source``) with
    columns, signs, bounds and the store's records bound as constants:

    * ``scan(projection, STARTS, NEXTS, ITEMS, dead, hist, limit)`` is the
      miners' loop over a projection's ``(si, parents)`` pairs.  Each parent
      entry that passes the gate is extended to every position of
      ``NEXTS[si][endpoint]`` whose item is not in ``dead``, building the new
      stats in O(1) with median folds inlined.  New entries are deduplicated
      with one hash when there are several parents, then admitted:
      ``hist[i]`` counts the entries whose first failing test is spec
      ``i``'s, and ``hist[len(specs)]`` the admitted ones.  After each
      sequence an item that has missed more than ``limit`` of them joins
      ``dead`` and loses its entries: ``sup_p - theta`` is ``prop5_prune``,
      ``sup_p`` abandons none.  It returns ``({item: {si: [entry, ...]}},
      visited, scanned)``.
    * ``witness(si, entry)`` folds the endpoint in as ``scan`` folds a
      parent's, each median key just before the first test that reads it,
      and returns the index of the first spec the occurrence fails, or
      ``len(specs)``, exactly as ``check_occurrence`` decides it.

    ``scan`` inlines two tests, computing the offset ``r = pos * width`` of
    the parent's and the entry's records once each and reading slot ``s``
    as ``R[r + s]``, each at most once:

    * the gate stops a parent when no extension of it can pass a
      ``length<=`` constraint, or, with a store, a ``span<=`` one: the
      reachable window of the parent's endpoint must overlap
      ``[max - c, min + c]``;
    * admission follows ``classify``: anti-monotone constraints must hold on
      the occurrence now, and monotone and non-monotone ones must stay
      reachable by the information they read (``_key``): the reachable
      window for span, max and min, the median feasibility rule stated in
      ``med_dominates``, and for sum, avg and maxlen the extremal sum ahead
      against the bound minus the parent's statistic.  Without a store, as
      in the raw-database baseline, these are left to emission; gap and
      item-set rules are enforced by arcs or the baseline's step scan.

    ``scan`` does the parent-level work once per parent: the gate, the
    unpack, ``ln + 1``, the median folds of the old endpoint, and the
    thresholds ``q`` admission compares against (``c - pln``, ``c - ps`` and
    ``c * pln - ps``, from the parent's length and its sum ``ps``; a stored
    sum or average excess ahead fails when it is below ``q`` under ``>=``
    and above it under ``<=``).  A median test adds the stored balance to
    the parent's and reads the two stored values only when the balances
    cancel.  Each successor then costs its value reads, the span and sum
    updates, one tuple and the admission chain.  The root parent ``None`` is
    the identity, the empty occurrence: ``ln`` 0, each span's ``(lo, hi)``
    (+inf, -inf), which the first event replaces by its value, zero sums,
    and median triples ``(0, e, f)`` with nothing to fold, ``(e, f)`` the
    key's ``_sentinels`` pair, bound as constants.  It has no gate and
    reads ``STARTS[si]`` instead of ``NEXTS[si]``.

    ``witness`` needs only the endpoint and the stats: on an occurrence that
    follows arcs (or the baseline's step scan) every gap and item-set rule
    holds, and each other kind is a function of the slots, stated by
    ``_measure`` but for the median.  The endpoint's value folded into the
    stored triple gives the whole occurrence's triple ``(m1, m2, m3)``,
    whose median reaches the bound ``c`` iff more values lie on its side
    than on the far side (``m1 > 0``), or the counts tie and the two middle
    values, the nearest to ``c`` on either side, average at least ``c``
    under ``>=`` (``m2 + m3 >= 2c``) and at most ``c`` under ``<=``.
    ``span>=`` is exact here; its relaxation is an admission matter only.

    An admission verdict ``r``, the ``hist`` slot an entry counts in, ran
    the tests of specs 0..r; it costs ``constraint_checks[r]`` occurrence
    checks and ``info_probes[r]`` information lookups, counted apart
    because lookups replace checks and the relative cost of the two is what
    the miners are compared on.

    A store that lacks information the specs need, because it was
    propagated for other specs, is rejected with a ``ValueError``.
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
        keys = _derive_needs(specs)
        if store is not None:
            missing = [_info_label(k) for k in keys if k not in store.layout]
            if missing:
                raise ValueError("the information store was propagated for other "
                                 f"specs; it lacks {', '.join(missing)}")
        self.span_attrs = tuple(sorted({spec.attribute for spec in specs
                                        if spec.kind in (Kind.SPAN, Kind.MAX, Kind.MIN)}))
        self.sum_attrs = tuple(dict.fromkeys(k[1] for k in keys if k[0] in ("sum", "avg")))
        self.med_keys = tuple(k[1:] for k in keys if k[0] == "med")
        _compile(self, store)


def _compile(plan: StatPlan, store: InfoStore | None) -> None:
    """Generate, ``exec`` and attach ``scan``, ``witness`` and the tables.

    ``fields`` fixes the order of the stats after the endpoint; the offsets
    ``span_at``, ``sum_at`` and ``med_at`` are read off it.  A parent's
    slots are named with a ``p`` in front (``pln``, ``plo0``, ``ps0``),
    except the median triples, which are folded in place.  ``scan`` is put
    together from unindented line lists: ``identity`` (the empty
    occurrence), ``fold(key, column)`` (the endpoint ``old`` into one
    median triple, which ``witness`` runs too), ``step`` (the slots of the
    entry that appends ``new``).  One pass over the specs then builds the
    ``witness`` tests, the gate, the thresholds and admission, each
    comparison from ``_measure``; a probe finds its record slot by the
    spec's ``_key``, on which admission branches.
    """
    const, make = _generator()
    attrs = dict.fromkeys(spec.attribute for spec in plan.specs if spec.attribute)
    col = {a: const(plan.db.columns(a)) for a in attrs}
    x = {a: f"x{i}" for i, a in enumerate(attrs)}  # a column's value at one position
    lo = {a: f"lo{i}" for i, a in enumerate(plan.span_attrs)}
    hi = {a: f"hi{i}" for i, a in enumerate(plan.span_attrs)}
    acc = {a: f"s{j}" for j, a in enumerate(plan.sum_attrs)}
    med = {k: (f"m{j}a", f"m{j}b", f"m{j}c") for j, k in enumerate(plan.med_keys)}
    fields = ["ln"] + [f for a in plan.span_attrs for f in (lo[a], hi[a])]
    fields += list(acc.values()) + [f for k in plan.med_keys for f in med[k]]
    plan.span_at = {a: fields.index(lo[a]) for a in plan.span_attrs}
    plan.sum_at = {a: fields.index(acc[a]) for a in plan.sum_attrs}
    plan.med_at = {k: fields.index(med[k][0]) for k in plan.med_keys}
    stats = ", ".join(fields)
    punpack = "old, " + ", ".join(f if f[0] == "m" else "p" + f for f in fields) + " = st"
    value_attrs = dict.fromkeys(plan.span_attrs + plan.sum_attrs)
    # scan hoists each column's row of a sequence into c<i>
    used = dict.fromkeys(list(value_attrs) + [k[0] for k in plan.med_keys])
    hoists = [f"c{i} = {col[a]}[si]" for i, a in enumerate(used)]
    hoisted = {a: f"c{i}" for i, a in enumerate(used)}

    # infinite bounds make the first event both the minimum and the maximum
    inf = const(math.inf)
    identity = ["pln = 0"]
    identity += [f"p{lo[a]}, p{hi[a]} = {inf}, -{inf}" for a in plan.span_attrs]
    identity += [f"p{acc[a]} = 0" for a in plan.sum_attrs]
    for k in plan.med_keys:
        e, f = _sentinels(plan.db.columns(k[0]), k[1])
        identity.append(f"{', '.join(med[k])} = 0, {e}, {f}")

    def fold(key: tuple, column: str) -> list[str]:
        # the triple excludes the final event, so the old endpoint folds in
        (_, sign, bound), (t1, t2, t3) = key, med[key]
        ge, lt, gt = _OPS[sign]
        return [f"y = {column}[old]",
                f"if y {ge} {bound}:",
                f"    {t1} += 1",
                f"    if y {lt} {t3}: {t3} = y",
                "else:",
                f"    {t1} -= 1",
                f"    if y {gt} {t2}: {t2} = y"]

    step = [f"{x[a]} = {hoisted[a]}[new]" for a in value_attrs]
    for a in plan.span_attrs:
        step += [f"{lo[a]} = {x[a]} if {x[a]} < p{lo[a]} else p{lo[a]}",
                 f"{hi[a]} = {x[a]} if {x[a]} > p{hi[a]} else p{hi[a]}"]
    step += [f"{acc[a]} = p{acc[a]} + {x[a]}" for a in plan.sum_attrs]

    # the gate's lines read the parent's slots and the record of old; the
    # thresholds q<i> come from the parent's length and sums; admission's
    # lines read the entry's slots, the thresholds and the record of new;
    # witness folds each median key just before the first test that reads it
    wit, gate, head, adm = [f"old, {stats} = entry"], [], [], []
    checks, probes, folded = [0], [0], set()

    def slot(lines: list[str], pos: str, key: tuple, j: int = 0) -> str:
        # the record's first slot r is computed once, before its first read
        if f"r = {pos} * {store.width}" not in lines:
            lines.append(f"r = {pos} * {store.width}")
        at = store.layout[key] + j
        return f"R[r + {at}]" if at else "R[r]"

    for i, spec in enumerate(plan.specs):
        attr, c, key, test = spec.attribute, spec.c, _key(spec), None
        info = key[0] if key and store is not None else None  # what admission reads
        anti = classify(spec) is Monotonicity.ANTI_MONOTONE
        ge, lt, gt = _OPS[_sign(spec.direction)]
        own = _measure(spec, "ln", lo.get(attr), hi.get(attr), acc)
        exact = own and f"{own[0]} {lt} {own[1]}"
        if spec.kind is Kind.MED:
            m1, m2, m3 = med[key[1:]]
            if key not in folded:
                folded.add(key)
                wit += fold(key[1:], f"{col[attr]}[si]")
            exact = f"not ({m1} > 0 or {m1} == 0 and {m2} + {m3} {ge} {2 * c})"
        if exact:
            wit.append(f"if {exact}: return {i}")
        if anti:
            test = exact
            if spec.kind is Kind.LENGTH:
                gate.append(f"if pln >= {c}: continue")
            elif info:
                # span<=: the reachable window must overlap [max - c, min + c]
                low, high = f"p{lo[attr]}", f"p{hi[attr]}"
                gate += [f"L, H = {slot(gate, 'old', key)}, {slot(gate, 'old', key, 1)}",
                         f"if (L if L > {high} - {c} else {high} - {c}) > "
                         f"(H if H < {low} + {c} else {low} + {c}): continue"]
        elif info == "span":
            adm.append(f"L, H = {slot(adm, 'new', key)}, {slot(adm, 'new', key, 1)}")
            stat, bound = _measure(spec, "ln", f"({lo[attr]} if {lo[attr]} < L else L)",
                                   f"({hi[attr]} if {hi[attr]} > H else H)", acc)
            test = f"{stat} {lt} {bound}"
        elif info == "med":
            # the deciding values are read only when the balances cancel,
            # each once
            adm.append(f"t1 = {slot(adm, 'new', key)} + {m1}")
            t2, t3 = slot(adm, "new", key, 1), slot(adm, "new", key, 2)
            test = (f"t1 < 0 or t1 == 0 and ({m2} if {m2} {gt} (t2 := {t2}) else t2) + "
                    f"({m3} if {m3} {lt} (t3 := {t3}) else t3) {lt} {2 * c}")
        elif info:
            # the stored A counts the final event and adds to the parent's
            # statistic: sum >= c fails when ps + A < c, avg when ps - c * pln
            # + A < 0 (A the excesses over c), length when pln + A < c
            stat, bound = _measure(spec, "pln", None, None, {a: f"p{s}" for a, s in acc.items()})
            head.append(f"q{i} = {bound} - {stat}")
            test = f"{slot(adm, 'new', key)} {lt} q{i}"
        if test is not None:
            adm.append(f"if {test}: hist[{i}] += 1; continue")
        checks.append(checks[-1] + (test is not None and anti))
        probes.append(probes[-1] + (test is not None and not anti))
    plan.constraint_checks = tuple(checks[1:]) + (checks[-1],)
    plan.info_probes = tuple(probes[1:]) + (probes[-1],)
    if store is not None and store.layout:  # a store for no information has no records
        hoists.append(f"R = {const(store.records)}[si]")

    n = len(plan.specs)
    # parent work happens once per parent; the root's parent is the identity
    scan = ["candidates = {}",
            "visited = scanned = n = 0",
            "for si, parents in projection:",
            "    n += 1",
            "    starts, nexts, items = STARTS[si], NEXTS[si], ITEMS[si]",
            *_indent(hoists, 1),
            "    fresh = {}",
            "    seen = set()",
            "    add = seen.add",
            # one parent's entries differ in their endpoints: only several repeat
            "    several = len(parents) > 1",
            "    for st in parents:",
            "        if st is None:",
            "            succs = starts",
            *_indent(identity, 3),
            "        else:",
            f"            {punpack}",
            *_indent(gate, 3),
            *_indent([line for k in plan.med_keys for line in fold(k, hoisted[k[0]])], 3),
            "            succs = nexts[old]",
            "        ln = pln + 1",
            *_indent(head, 2),
            "        for new in succs:",
            "            visited += 1",
            "            item = items[new]",
            "            if item in dead:",
            "                continue",
            *_indent(step, 3),
            f"            entry = (new, {stats})",
            "            if several:",
            "                size = len(seen)",
            "                add(entry)",
            "                if len(seen) == size:",
            "                    continue",
            *_indent(adm, 3),
            f"            hist[{n}] += 1",
            "            got = fresh.get(item)",
            "            if got is None:",
            "                fresh[item] = [entry]",
            "            else:",
            "                got.append(entry)",
            # Prop. 5 reads n and the number of sequences a candidate holds
            "    for item, entries in fresh.items():",
            "        pdb = candidates.get(item)",
            "        if n - (1 if pdb is None else len(pdb) + 1) > limit:",
            "            dead.add(item)",
            "            candidates.pop(item, None)",
            "            continue",
            "        if pdb is None:",
            "            candidates[item] = pdb = {}",
            "        pdb[si] = entries",
            "        scanned += 1",
            "return candidates, visited, scanned"]

    plan.source, (plan.witness, plan.scan) = make([
        "    def witness(si, entry):", *_indent(wit, 2), f"        return {n}",
        "    def scan(projection, STARTS, NEXTS, ITEMS, dead, hist, limit):",
        *_indent(scan, 2),
        "    return witness, scan",
    ])


def _indent(lines: list[str], depth: int) -> list[str]:
    return ["    " * depth + line for line in lines]

