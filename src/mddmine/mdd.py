"""Layered decision-diagram encoding of a sequence database.

Layer j (1-based) holds one node per distinct item occurring at position j in
any sequence, so nodes are shared across sequences while labels keep per-
sequence identity: a node's label for a sequence id is the attribute values
of that sequence's event at this position.  Arcs connect an event to every
later event of the same sequence that is a feasible next pattern step under
the imposed pairwise rules (gap bounds, allowed item set); arcs may skip
layers.  A virtual root precedes layer 1 and a virtual terminal follows the
last layer: the root reaches every event that may start a pattern and every
live event reaches the terminal.

``build_mdd`` computes only the compact per-sequence successor tables
(`succ`, `starts`, `alive`) over the database's columns; mining walks those
and never touches a node.  Since the ordering attribute strictly increases,
the gap bounds on it cut each successor row out of the later positions as
one window, found by bisection rather than by testing each later event.
The node/arc object graph, labels included, is derived from the tables and
the database on first use, for the structure accessors, validation and DOT
export.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Sequence as SequenceT

from .constraints import (
    ConstraintSpec,
    check_occurrence,
    imposable,
    pairwise_rules,
    require_known_attributes,
)
from .seqdb import AttributedDatabase

ROOT_ITEM = -1
TERMINAL_ITEM = -2


class MddNode:
    __slots__ = ("layer", "item", "labels", "out_arcs")

    def __init__(self, layer: int, item: int):
        self.layer = layer
        self.item = item
        #: sid -> attribute value tuple, aligned with the database attribute names
        self.labels: dict[int, tuple[int, ...]] = {}
        self.out_arcs: list[Arc] = []

    def __repr__(self) -> str:
        return f"MddNode({self.item}@{self.layer})"


class Arc:
    __slots__ = ("source", "target", "sids")

    def __init__(self, source: MddNode, target: MddNode):
        self.source = source
        self.target = target
        self.sids: set[int] = set()

    def __repr__(self) -> str:
        return f"Arc({self.source!r}->{self.target!r}, sids={sorted(self.sids)})"


class Mdd:
    """Immutable diagram over a fixed database; see module docstring."""

    def __init__(self, db: AttributedDatabase, imposed: tuple[ConstraintSpec, ...]):
        self.db = db
        self.n_layers = max((len(seq) for seq in db.sequences), default=0)
        self.imposed = imposed
        #: per sequence index: tuple over 0-based positions of successor tuples
        self.succ: list[tuple[tuple[int, ...], ...]] = []
        #: per sequence index: positions whose events may start a pattern
        self.starts: list[tuple[int, ...]] = []
        #: per sequence index: positions whose events are live (reach terminal)
        self.alive: list[tuple[bool, ...]] = []
        #: (layer, item) -> node; None until ``ensure_arcs`` derives the graph
        self._nodes: dict[tuple[int, int], MddNode] | None = None

    # -- structure accessors; each derives the object graph first --

    def node(self, layer: int, item: int) -> MddNode | None:
        self.ensure_arcs()
        return self._nodes.get((layer, item))

    def layer_nodes(self, layer: int) -> list[MddNode]:
        self.ensure_arcs()
        nodes = [n for (lay, _), n in self._nodes.items() if lay == layer]
        return sorted(nodes, key=lambda n: n.item)

    def layer_sizes(self) -> list[int]:
        self.ensure_arcs()
        sizes = [0] * self.n_layers
        for layer, _ in self._nodes:
            sizes[layer - 1] += 1
        return sizes

    @property
    def n_nodes(self) -> int:
        self.ensure_arcs()
        return len(self._nodes)

    def ensure_arcs(self) -> None:
        """Derive nodes, labels and arcs from the database and successor tables.

        Also creates the virtual ``root`` and ``terminal``.
        """
        if self._nodes is not None:
            return
        self.root = MddNode(0, ROOT_ITEM)
        self.terminal = MddNode(self.n_layers + 1, TERMINAL_ITEM)
        nodes: dict[tuple[int, int], MddNode] = {}
        by_pair: dict[tuple[MddNode, MddNode], Arc] = {}

        def label(source: MddNode, target: MddNode, sid: int) -> None:
            arc = by_pair.get((source, target))
            if arc is None:
                arc = Arc(source, target)
                by_pair[(source, target)] = arc
                source.out_arcs.append(arc)
            arc.sids.add(sid)

        names = self.db.attribute_names
        for si, seq in enumerate(self.db.sequences):
            sid = seq.sid
            columns = [seq.attr_values(name) for name in names]
            row = []
            for pos, item in enumerate(seq.items):
                node = nodes.get((pos + 1, item))
                if node is None:
                    node = nodes[(pos + 1, item)] = MddNode(pos + 1, item)
                node.labels[sid] = tuple(col[pos] for col in columns)
                row.append(node)
            for pos in self.starts[si]:
                label(self.root, row[pos], sid)
            for pos, nexts in enumerate(self.succ[si]):
                for nxt in nexts:
                    label(row[pos], row[nxt], sid)
            for pos, live in enumerate(self.alive[si]):
                if live:
                    label(row[pos], self.terminal, sid)
        for node in [self.root, *nodes.values()]:
            node.out_arcs.sort(key=lambda a: (a.target.layer, a.target.item))
        self._nodes = nodes


def build_mdd(db: AttributedDatabase, specs: SequenceT[ConstraintSpec] = ()) -> Mdd:
    """Encode the database, imposing the pairwise-checkable specs as arc rules.

    Only gap and item_set specs shape the arc set; every other constraint is
    ignored here and handled by node information or by the miner.  The
    ordering attribute is strictly increasing in every sequence (the database
    rejects it otherwise), so the gap bounds ``[lo, hi]`` on it admit exactly
    the later positions ``k`` with ``x_j + lo <= x_k <= x_j + hi``: one
    contiguous window ``[a, b)`` of the column, found by two bisections.  A
    row is that window, filtered by liveness and by the gap bounds on other
    attributes only when an item set or such a bound is imposed.  No node
    object is created here; see ``Mdd.ensure_arcs``.
    """
    require_known_attributes(specs, db.attribute_names)
    rules = pairwise_rules(specs)
    mdd = Mdd(db, imposable(specs))
    ordering = db.ordering_attribute
    ord_lo = ord_hi = None
    others = []
    for attr, lo, hi in rules.gap_bounds:
        if attr == ordering:
            ord_lo, ord_hi = lo, hi
        else:
            others.append((attr, lo, hi))
    filtered = rules.allowed_items is not None or bool(others)

    for seq in db.sequences:
        items = seq.items
        length = len(items)
        ord_col = seq.attr_values(ordering) if ordering is not None else None
        checks = [(seq.attr_values(attr), lo, hi) for attr, lo, hi in others]
        alive = tuple(rules.item_ok(item) for item in items)
        succ_rows: list[tuple[int, ...]] = [()] * length
        for j in range(length):
            if not alive[j]:
                continue
            a, b = j + 1, length
            if ord_lo is not None:
                a = bisect_left(ord_col, ord_col[j] + ord_lo, a)
            if ord_hi is not None:
                b = bisect_right(ord_col, ord_col[j] + ord_hi, a)
            if filtered:
                succ_rows[j] = tuple(
                    k for k in range(a, b) if alive[k] and all(
                        (lo is None or col[k] - col[j] >= lo)
                        and (hi is None or col[k] - col[j] <= hi)
                        for col, lo, hi in checks))
            else:
                succ_rows[j] = tuple(range(a, b))
        mdd.succ.append(tuple(succ_rows))
        mdd.starts.append(tuple(j for j in range(length) if alive[j]))
        mdd.alive.append(alive)
    return mdd


# --- validation ----------------------------------------------------------------

@dataclass
class MddValidationReport:
    ok: bool = True
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.problems.append(message)


def validate(mdd: Mdd, db: AttributedDatabase) -> MddValidationReport:
    """Check every structural invariant of the diagram against the database.

    The successor tables are checked against the imposed specs directly,
    never through a second ``build_mdd``: ``k`` succeeds ``j`` exactly when
    ``j < k`` and every imposed spec passes ``check_occurrence`` on the
    occurrence ``[e_j, e_k]``, and an event starts a pattern and is live
    exactly when its one-event occurrence passes every imposed spec.  With
    nothing imposed this is complete forward reachability.  The object graph
    is derived from the tables, so it is derived and checked only once the
    tables pass.
    """
    report = MddValidationReport()

    # successor tables, starts and liveness, one direct rule per sequence
    n_seq = len(db.sequences)
    if not len(mdd.succ) == len(mdd.starts) == len(mdd.alive) == n_seq:
        report.fail(f"successor tables do not cover the {n_seq} sequences")
        return report
    imposed = mdd.imposed

    def passes(seq, *positions: int) -> bool:
        return all(check_occurrence(seq, positions, spec) for spec in imposed)

    for si, seq in enumerate(db.sequences):
        n = len(seq)
        single = tuple(passes(seq, j) for j in range(n))
        if tuple(mdd.alive[si]) != single:
            report.fail(f"sid {seq.sid}: live events differ from the imposed rules")
        if tuple(mdd.starts[si]) != tuple(j for j, ok in enumerate(single) if ok):
            report.fail(f"sid {seq.sid}: start positions differ from the imposed rules")
        if len(mdd.succ[si]) != n:
            report.fail(f"sid {seq.sid}: successor table has the wrong length")
            continue
        for j, nexts in enumerate(mdd.succ[si]):
            expected = tuple(k for k in range(j + 1, n) if passes(seq, j, k))
            forbidden = sorted(set(nexts) - set(expected))
            missing = sorted(set(expected) - set(nexts))
            for k in forbidden:
                report.fail(f"sid {seq.sid}: forbidden arc {j + 1}->{k + 1}")
            for k in missing:
                report.fail(f"sid {seq.sid}: missing arc {j + 1}->{k + 1}")
            if not forbidden and not missing and tuple(nexts) != expected:
                report.fail(f"sid {seq.sid}: successors of {j + 1} not ascending")

    if not report.ok:
        return report  # the object graph is derived from these tables
    mdd.ensure_arcs()

    # node set: one node per (layer, distinct item at that position)
    expected_keys = set()
    for seq in db.sequences:
        for pos, item in enumerate(seq.items):
            expected_keys.add((pos + 1, item))
    actual_keys = set(mdd._nodes)
    for key in expected_keys - actual_keys:
        report.fail(f"missing node {key[1]}@{key[0]}")
    for key in actual_keys - expected_keys:
        report.fail(f"spurious node {key[1]}@{key[0]}")

    # labels: every event sits in exactly the node of its (position, item)
    names = db.attribute_names
    for seq in db.sequences:
        columns = [seq.attr_values(name) for name in names]
        for pos, item in enumerate(seq.items):
            node = mdd.node(pos + 1, item)
            if node is None:
                continue
            if node.labels.get(seq.sid) != tuple(col[pos] for col in columns):
                report.fail(f"node {item}@{pos + 1} lacks label for sid {seq.sid}")
    for (layer, item), node in mdd._nodes.items():
        if not node.labels:
            report.fail(f"node {item}@{layer} has an empty label set")

    # object graph consistency
    seen_pairs = set()
    for node in list(mdd._nodes.values()) + [mdd.root]:
        for arc in node.out_arcs:
            if arc.target is not mdd.terminal and arc.target.layer <= node.layer:
                report.fail(f"arc {arc!r} does not advance layers")
            pair = (id(node), id(arc.target))
            if pair in seen_pairs:
                report.fail(f"duplicate arc object {arc!r}")
            seen_pairs.add(pair)
            if node is not mdd.root:
                bad = arc.sids - set(node.labels)
                if bad:
                    report.fail(f"arc {arc!r} labeled with sids {sorted(bad)} "
                                "missing on its source")
            if arc.target is not mdd.terminal:
                bad = arc.sids - set(arc.target.labels)
                if bad:
                    report.fail(f"arc {arc!r} labeled with sids {sorted(bad)} "
                                "missing on its target")
    return report


# --- DOT export ----------------------------------------------------------------

def export_dot(mdd: Mdd) -> str:
    """Deterministic DOT rendering: solid consecutive arcs, dashed skip arcs."""
    mdd.ensure_arcs()
    lines = ["digraph mdd {", "  rankdir=LR;", '  r [label="r"];']
    for layer in range(1, mdd.n_layers + 1):
        for node in mdd.layer_nodes(layer):
            lines.append(f'  n{layer}_{node.item} [label="{node.item}@{layer}"];')
    lines.append('  t [label="t"];')

    def name(node: MddNode) -> str:
        if node is mdd.root:
            return "r"
        if node is mdd.terminal:
            return "t"
        return f"n{node.layer}_{node.item}"

    for node in [mdd.root] + [n for ly in range(1, mdd.n_layers + 1)
                              for n in mdd.layer_nodes(ly)]:
        for arc in node.out_arcs:
            sids = ",".join(str(s) for s in sorted(arc.sids))
            skip = (node is not mdd.root and arc.target is not mdd.terminal
                    and arc.target.layer > node.layer + 1)
            style = ", style=dashed" if skip else ""
            lines.append(f'  {name(node)} -> {name(arc.target)} [label="{sids}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
