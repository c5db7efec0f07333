"""Layered decision-diagram encoding of a sequence database.

Layer j (1-based) holds one node per distinct item occurring at position j in
any sequence, so nodes are shared across sequences while labels keep per-
sequence identity: a node's label for a sequence id is the attribute values
of that sequence's event at this position.  Arcs connect an event to every
later event of the same sequence that is a feasible next pattern step under
the imposed pairwise rules (gap bounds, allowed item set); arcs may skip
layers.  A virtual root precedes layer 1 and a virtual terminal follows the
last layer: the root reaches every event that may start a pattern, and
exactly these events are live and reach the terminal.

``build_mdd`` computes only the compact per-sequence successor tables
(`succ`, `starts`) over the database's columns, and these tables with the
columns are the diagram's only representation; mining walks the tables and
never forms a node.  Since the ordering attribute strictly increases, the
gap bounds on it cut each successor row out of the later positions as one
window, found by bisection and kept as a ``range`` unless an item set or a
gap bound on another attribute filters it; each distinct row is one object.
The layers, labels and arcs are views that ``Mdd`` reads from the tables and
the columns on every call, for structure queries and DOT export; nothing is
cached, so no copy can drift.
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

#: a diagram node: (layer, item)
Node = tuple[int, int]


class Mdd:
    """Immutable diagram over a fixed database; see module docstring.

    The successor tables are the diagram's only stored part.  A node is the
    pair ``(layer, item)``, with the root ``(0, ROOT_ITEM)`` and the terminal
    ``(n_layers + 1, TERMINAL_ITEM)``; the views below read the nodes, their
    labels and the arcs from the tables and the database's columns on every
    call.
    """

    def __init__(self, db: AttributedDatabase, imposed: tuple[ConstraintSpec, ...]):
        self.db = db
        self.n_layers = max(map(len, db.items), default=0)
        self.imposed = imposed
        #: per sequence index: tuple over 0-based positions of successor rows,
        #: windows ``range(a, b)`` unless filtered, then tuples; each
        #: distinct row is one shared object
        self.succ: list[tuple[SequenceT[int], ...]] = []
        #: per sequence index: positions of the live events, which start a
        #: pattern; shared like the rows
        self.starts: list[SequenceT[int]] = []

    def layer_items(self, layer: int) -> list[int]:
        """The items of the layer's nodes, ascending."""
        return sorted({items[layer - 1] for items in self.db.items if len(items) >= layer})

    def labels(self, layer: int, item: int) -> dict[int, tuple[int, ...]]:
        """sid -> attribute values, aligned with the database attribute names,
        of the event each sequence holds in node ``(layer, item)``."""
        pos, columns = layer - 1, self.db.attrs.values()
        return {si + 1: tuple(col[si][pos] for col in columns)
                for si, items in enumerate(self.db.items)
                if len(items) > pos and items[pos] == item}

    def arcs(self) -> dict[tuple[Node, Node], list[int]]:
        """(source, target) -> ascending sids, in (source, target) order."""
        root, terminal = (0, ROOT_ITEM), (self.n_layers + 1, TERMINAL_ITEM)
        arcs: dict[tuple[Node, Node], list[int]] = {}
        for si, items in enumerate(self.db.items):
            nodes = [(pos + 1, item) for pos, item in enumerate(items)]
            pairs = [(root, nodes[k]) for k in self.starts[si]]
            pairs += [(nodes[j], nodes[k])
                      for j, row in enumerate(self.succ[si]) for k in row]
            pairs += [(nodes[k], terminal) for k in self.starts[si]]
            for pair in pairs:
                arcs.setdefault(pair, []).append(si + 1)
        return dict(sorted(arcs.items()))

    def layer_sizes(self) -> list[int]:
        return [len(self.layer_items(layer)) for layer in range(1, self.n_layers + 1)]


def build_mdd(db: AttributedDatabase, specs: SequenceT[ConstraintSpec] = ()) -> Mdd:
    """Encode the database, imposing the pairwise-checkable specs as arc rules.

    Only gap and item_set specs shape the arc set; every other constraint is
    ignored here and handled by node information or by the miner.  The
    ordering attribute is strictly increasing in every sequence (the database
    rejects it otherwise), so the gap bounds ``[lo, hi]`` on it admit exactly
    the later positions ``k`` with ``x_j + lo <= x_k <= x_j + hi``: one
    contiguous window ``[a, b)`` of the column, found by two bisections.  A
    row is stored as ``range(a, b)``, and ``starts`` as ``range(length)``;
    only when an item set or a gap bound on another attribute is imposed is
    the window filtered by liveness and those bounds into a tuple.  With no
    item set every event is live, and no liveness is looked up.

    Along a sequence the windows' starts and ends never decrease: ``a`` is
    the larger of ``j + 1`` and the first position at or above
    ``x_j + lo``, ``b`` the larger of ``a`` and the first position above
    ``x_j + hi``, and each term grows with ``j``.  So rows that share an
    end are nested, which ``propagate``'s window walk relies on.

    Per-build tables, the unique table of decision diagrams, map each
    window's ends to one ``range``, and each filtered row and ``starts`` to
    the first equal one built, so the diagram holds one object per distinct
    row: on ``dense-index`` 1,801 for 90,723 rows, 5.04 -> 0.88 MB traced.
    A window found again is looked up, not rebuilt.
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
    allowed = rules.allowed_items
    filtered = allowed is not None or bool(others)
    windows: dict[tuple[int, int], range] = {}  # by their ends, never rebuilt
    shared: dict[SequenceT[int], SequenceT[int]] = {}  # filtered rows and starts

    for si, items in enumerate(db.items):
        length = len(items)
        ord_col = db.columns(ordering)[si] if ordering is not None else None
        checks = [(db.columns(attr)[si], lo, hi) for attr, lo, hi in others]
        # the live positions; only an item set leaves any out
        starts: SequenceT[int] = range(length)
        if allowed is not None:
            alive = [item in allowed for item in items]
            starts = tuple(j for j in starts if alive[j])
        succ_rows: list[SequenceT[int]] = [()] * length
        for j in starts:
            a, b = j + 1, length
            if ord_lo is not None:
                a = bisect_left(ord_col, ord_col[j] + ord_lo, a)
            if ord_hi is not None:
                b = bisect_right(ord_col, ord_col[j] + ord_hi, a)
            if filtered:
                row = tuple(
                    k for k in range(a, b) if (allowed is None or alive[k]) and all(
                        (lo is None or col[k] - col[j] >= lo)
                        and (hi is None or col[k] - col[j] <= hi)
                        for col, lo, hi in checks))
                succ_rows[j] = shared.setdefault(row, row)
            else:
                row = windows.get((a, b))
                if row is None:
                    row = windows[a, b] = range(a, b)
                succ_rows[j] = row
        mdd.succ.append(tuple(succ_rows))
        mdd.starts.append(shared.setdefault(starts, starts))
    return mdd


# --- validation ----------------------------------------------------------------

@dataclass
class MddValidationReport:
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def fail(self, message: str) -> None:
        self.problems.append(message)


def validate(mdd: Mdd) -> MddValidationReport:
    """Check the successor tables against ``mdd.db`` and the imposed specs.

    The successor tables are checked against the imposed specs directly,
    never through a second ``build_mdd``: ``k`` succeeds ``j`` exactly when
    ``j < k`` and every imposed spec passes ``check_occurrence`` on the
    occurrence ``[e_j, e_k]``, and an event starts a pattern (and is live)
    exactly when its one-event occurrence passes every imposed spec.  With
    nothing imposed this is complete forward reachability.  The nodes,
    labels and arcs are read from these tables and the columns, so they need
    no check of their own.
    """
    report = MddValidationReport()

    # successor tables and starts, one direct rule per sequence
    n_seq = len(mdd.db)
    if not len(mdd.succ) == len(mdd.starts) == n_seq:
        report.fail(f"successor tables do not cover the {n_seq} sequences")
        return report
    imposed = mdd.imposed

    def passes(seq, *positions: int) -> bool:
        return all(check_occurrence(seq, positions, spec) for spec in imposed)

    for si, seq in enumerate(mdd.db.sequences):
        n, sid = len(seq), si + 1
        if tuple(mdd.starts[si]) != tuple(j for j in range(n) if passes(seq, j)):
            report.fail(f"sid {sid}: start positions differ from the imposed rules")
        if len(mdd.succ[si]) != n:
            report.fail(f"sid {sid}: successor table has the wrong length")
            continue
        for j, nexts in enumerate(mdd.succ[si]):
            expected = tuple(k for k in range(j + 1, n) if passes(seq, j, k))
            forbidden = sorted(set(nexts) - set(expected))
            missing = sorted(set(expected) - set(nexts))
            for k in forbidden:
                report.fail(f"sid {sid}: forbidden arc {j + 1}->{k + 1}")
            for k in missing:
                report.fail(f"sid {sid}: missing arc {j + 1}->{k + 1}")
            if not forbidden and not missing and tuple(nexts) != expected:
                report.fail(f"sid {sid}: successors of {j + 1} not ascending")

    return report


# --- DOT export ----------------------------------------------------------------

def export_dot(mdd: Mdd) -> str:
    """Deterministic DOT rendering: solid consecutive arcs, dashed skip arcs."""
    lines = ["digraph mdd {", "  rankdir=LR;", '  r [label="r"];']
    for layer in range(1, mdd.n_layers + 1):
        for item in mdd.layer_items(layer):
            lines.append(f'  n{layer}_{item} [label="{item}@{layer}"];')
    lines.append('  t [label="t"];')

    def name(node: Node) -> str:
        layer, item = node
        if layer == 0:
            return "r"
        if layer > mdd.n_layers:
            return "t"
        return f"n{layer}_{item}"

    for (source, target), sids in mdd.arcs().items():
        skip = source[0] > 0 and source[0] + 1 < target[0] <= mdd.n_layers
        style = ", style=dashed" if skip else ""
        label = ",".join(map(str, sids))
        lines.append(f'  {name(source)} -> {name(target)} [label="{label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
