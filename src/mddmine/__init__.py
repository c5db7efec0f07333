"""Constraint-based sequential pattern mining over a decision-diagram database.

The package encodes an attributed sequence database as a layered decision
diagram, augments its nodes with constraint-specific reachability
information, and mines frequent patterns under gap, span, length, item-set,
max/min, sum, average, and median constraints.  Two reference miners (raw
prefix projection with checks, and brute-force enumeration) provide ground
truth for equivalence testing.
"""
from .constraints import (
    GE,
    LE,
    ConstraintSpec,
    Kind,
    Monotonicity,
    check_occurrence,
    classify,
    format_constraint,
    parse_constraint,
    support_of,
)
from .mdd import Mdd, build_mdd, export_dot, validate
from .miner import (
    MiningCounters,
    Pattern,
    PatternSet,
    mine,
    mine_mpp,
    prop5_prune,
)
from .nodeinfo import (
    InfoStore,
    StatPlan,
    dump_info_tsv,
    propagate,
)
from .oracle import mine_bruteforce, mine_ppcc
from .seqdb import (
    AttributedDatabase,
    AttributeTable,
    DbStats,
    Sequence,
    attach_attributes,
    format_attribute_tsv,
    generate_attributes,
    generate_sessions,
    make_database,
    parse_attribute_tsv,
    parse_spmf,
    stats,
    to_spmf,
)

__all__ = [
    "AttributedDatabase", "AttributeTable", "ConstraintSpec", "DbStats",
    "GE", "InfoStore", "Kind", "LE", "Mdd", "MiningCounters",
    "Monotonicity", "Pattern", "PatternSet", "Sequence",
    "StatPlan", "attach_attributes", "build_mdd", "check_occurrence",
    "classify", "dump_info_tsv", "export_dot", "format_attribute_tsv",
    "format_constraint", "generate_attributes", "generate_sessions",
    "make_database", "mine", "mine_bruteforce", "mine_mpp", "mine_ppcc",
    "parse_attribute_tsv", "parse_constraint", "parse_spmf", "propagate",
    "prop5_prune", "stats", "support_of", "to_spmf", "validate",
]

__version__ = "0.1.0"
