"""Walkthrough: from raw click sequences to a decision-diagram database.

Run with:  python3 demos/01_encode_database.py
"""
from mddmine import (
    attach_attributes,
    build_mdd,
    export_dot,
    parse_attribute_tsv,
    parse_constraint,
    parse_spmf,
    stats,
    validate,
)

# Three sessions in SPMF format: every itemset holds one item, -1 closes an
# itemset, -2 closes the line.  Items 1, 2, 3 are three products.
SPMF = """\
2 -1 2 -1 -2
2 -1 1 -1 2 -1 -2
3 -1 3 -1 1 -1 -2
"""

# Per-event attributes arrive as a separate tab-separated table keyed by
# (sequence id, 1-based position).
ATTRS = """\
sid	pos	time	price
1	1	1	5
1	2	3	3
2	1	3	3
2	2	8	1
2	3	9	3
3	1	2	1
3	2	5	2
3	3	8	3
"""

db = attach_attributes(
    parse_spmf(SPMF), parse_attribute_tsv(ATTRS), ordering_attribute="time"
)
s = stats(db)
print(f"{s.n_sequences} sequences, {s.n_items} items, "
      f"max length {s.max_len}, average length {s.avg_len}")

# The diagram has one node per (position, item): sequences that share an item
# at a position share the node, and per-sequence labels keep their attribute
# values apart.
mdd = build_mdd(db)
print("\nnodes per layer:", mdd.layer_sizes())
print("node 2@1 label (sid -> (time, price)):", mdd.labels(1, 2))
report = validate(mdd)
print("structure valid:", report.ok)

# Imposing a gap bound removes arcs at construction time.  Here, consecutive
# pattern items must be at least 3 time units apart: the B..B step inside the
# first sequence (times 1 and 3) disappears, while the layer-skipping B..B
# step of the second sequence (times 3 and 9) survives.
gapped = build_mdd(db, (parse_constraint("gap(time)>=3"),))
# A row is a window range(a, b) of later positions unless an item set or a
# gap bound on another attribute filters it; print the positions themselves.
def rows(table):
    return [list(row) for row in table]


print("\nsuccessors without the bound:", rows(mdd.succ[0]), rows(mdd.succ[1]))
print("successors with gap(time)>=3:", rows(gapped.succ[0]), rows(gapped.succ[1]))

# The DOT export draws layer-skipping arcs dashed, like the figures one draws
# by hand.  Feed it to graphviz: dot -Tpng -o mdd.png <file>
print("\n" + export_dot(gapped))
