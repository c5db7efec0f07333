"""Command-line interface: mining, attribute generation, stats, DOT export.

Subcommands::

    mddmine mine --db clicks.spmf --attrs clicks.tsv --min-sup 0.01 \\
        --constraint "gap(time)>=30" --constraint "avg(price)<=70" --miner mpp
    mddmine gen-attrs --db clicks.spmf --seed 7 --output clicks.tsv
    mddmine stats --db clicks.spmf
    mddmine export-dot --db clicks.spmf --attrs clicks.tsv --output clicks.dot

Minimum support is an absolute count, or a fraction of the sequence count
when it contains a decimal point or is written ``a/b`` (converted by
ceiling, so 0.04 or 1/25 of 80 rounds up to 4).  Scenario presets install
fixed constraint sets over time, price, and quality attributes.  With
``--emit-stats`` a run report (phase wall times, peak RSS in MB after
loading, indexing and mining, and miner counters, tab-separated) is written
next to the output; it leaves out what the selected miner does not measure:
``ppcc`` builds no diagram and propagates nothing, and ``brute`` keeps no
counters.  An option the selected path
would ignore (``--max-len`` without ``--miner brute``, ``--disable-prop5``
with it, ``--ordering-attr`` without ``--attrs``) is an argument error.
"""
from __future__ import annotations

import argparse
import math
import os
import resource
import sys
import tempfile
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .constraints import parse_constraint
from .mdd import build_mdd, export_dot
from .miner import MiningCounters, mine
from .nodeinfo import propagate
from .oracle import mine_bruteforce, mine_ppcc
from .seqdb import (
    DEFAULT_PROFILE,
    SeqDbError,
    attach_attributes,
    format_attribute_tsv,
    generate_attributes,
    parse_attribute_tsv,
    parse_spmf,
    stats,
)

SCENARIO_TIME = (
    "gap(time)>=30", "gap(time)<=900", "span(time)>=900", "span(time)<=3600",
)
SCENARIO_PRICE = (
    "avg(price)>=30", "avg(price)<=70", "med(price)>=40", "med(price)<=60",
)
SCENARIO_QUALITY = (
    "avg(quality)>=40", "avg(quality)<=60", "med(quality)>=30", "med(quality)<=70",
)
SCENARIOS = {
    1: SCENARIO_TIME,
    2: SCENARIO_TIME + SCENARIO_PRICE,
    3: SCENARIO_TIME + SCENARIO_PRICE + SCENARIO_QUALITY,
}


def _parse_min_support(text: str):
    """Return ("abs", n) or ("frac", fraction); raise ValueError if invalid."""
    if "." in text or "/" in text:
        try:
            frac = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"fractional minimum support {text!r} divides by zero") from None
        if not 0 < frac <= 1:
            raise ValueError("fractional minimum support must be in (0, 1]")
        return ("frac", frac)
    value = int(text)
    if value < 1:
        raise ValueError("absolute minimum support must be at least 1")
    return ("abs", value)


def _resolve_theta(min_support: str, n_sequences: int) -> int:
    kind, value = _parse_min_support(min_support)
    if kind == "abs":
        return value
    return max(1, math.ceil(value * n_sequences))


def _load_db(args: argparse.Namespace):
    db = parse_spmf(Path(args.db).read_text())
    if args.attrs:
        table = parse_attribute_tsv(Path(args.attrs).read_text())
        ordering = args.ordering_attr
        if ordering is None and "time" in table.names:
            ordering = "time"
        if ordering == "none":
            ordering = None
        db = attach_attributes(db, table, ordering_attribute=ordering)
    return db


def _specs_from(args: argparse.Namespace):
    texts = list(args.constraint)
    if args.scenario is not None:
        texts.extend(SCENARIOS[args.scenario])
    return tuple(parse_constraint(t) for t in texts)


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` or stdout; a file is replaced atomically.

    The text goes to a temporary file in the target's directory first and is
    then renamed onto the target, so a failed run never leaves a truncated
    output behind.
    """
    if path == "-":
        sys.stdout.write(text)
        return
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        # mkstemp creates the file private; give it the mode a plain write would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _cmd_mine(args: argparse.Namespace) -> int:
    db = _load_db(args)
    peaks = [("peak_rss_mb_load", _peak_rss_mb())]
    specs = _specs_from(args)
    theta = _resolve_theta(args.min_sup, len(db))
    counters: MiningCounters | None = MiningCounters()
    t0 = time.perf_counter()
    if args.miner == "mpp":
        mdd = build_mdd(db, specs)
        t1 = time.perf_counter()
        store = propagate(mdd, db, specs)
        peaks.append(("peak_rss_mb_index", _peak_rss_mb()))
        t2 = time.perf_counter()
        patterns = mine(
            mdd, store, db, specs, theta,
            use_prop5=not args.disable_prop5, counters=counters,
        )
        phases = [("mdd_build_seconds", t1 - t0), ("info_prop_seconds", t2 - t1),
                  ("mining_seconds", time.perf_counter() - t2)]
    elif args.miner == "ppcc":
        patterns = mine_ppcc(
            db, specs, theta,
            counters=counters, use_prop5=not args.disable_prop5,
        )
        phases = [("mining_seconds", time.perf_counter() - t0)]
    else:  # brute: --miner's choices admit nothing else
        patterns = mine_bruteforce(db, specs, theta, max_len=args.max_len)
        phases = [("mining_seconds", time.perf_counter() - t0)]
        counters = None
    peaks.append(("peak_rss_mb_mine", _peak_rss_mb()))

    _write(args.output, patterns.render())
    if args.emit_stats or args.report:  # --report implies --emit-stats
        report = _format_report(phases, peaks, counters, len(patterns))
        if args.report:
            _write(args.report, report)
        elif args.output != "-":
            _write(args.output + ".report.tsv", report)
        else:
            sys.stderr.write(report)
    return 0


def _peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MB; ``ru_maxrss``
    counts kilobytes on Linux and bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _format_report(phases, peaks, counters: MiningCounters | None, written: int) -> str:
    """The measured phase times, the peak RSS after each phase that ran, the
    counters unless the miner keeps none, and the number of patterns
    written."""
    rows = [(name, f"{seconds:.6f}") for name, seconds in phases]
    rows += [(name, f"{mb:.1f}") for name, mb in peaks]
    rows += asdict(counters).items() if counters is not None else []
    rows.append(("patterns_written", written))
    return "\n".join(f"{k}\t{v}" for k, v in rows) + "\n"


def _parse_profile(text: str):
    pairs = []
    for part in text.split(","):
        name, _, kind = part.partition(":")
        if not name or kind not in ("time", "uniform"):
            raise ValueError(
                f"bad profile entry {part!r}; expected name:time or name:uniform"
            )
        pairs.append((name, kind))
    return tuple(pairs)


def _cmd_gen_attrs(args: argparse.Namespace) -> int:
    db = parse_spmf(Path(args.db).read_text())
    table = generate_attributes(db, args.seed, _parse_profile(args.profile))
    _write(args.output, format_attribute_tsv(table))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    db = _load_db(args)
    s = stats(db)
    lines = [
        f"n_sequences\t{s.n_sequences}",
        f"n_items\t{s.n_items}",
        f"max_len\t{s.max_len}",
        f"avg_len\t{s.avg_len}",
    ]
    _write(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    db = _load_db(args)
    specs = _specs_from(args)
    mdd = build_mdd(db, specs)
    _write(args.output, export_dot(mdd))
    return 0


_COMMANDS = {
    "mine": _cmd_mine,
    "gen-attrs": _cmd_gen_attrs,
    "stats": _cmd_stats,
    "export-dot": _cmd_export_dot,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mddmine",
        description="Constraint-based sequential pattern mining.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--db", required=True, help="SPMF sequence file")
        p.add_argument("--attrs", help="attribute TSV to attach")
        p.add_argument("--ordering-attr",
                       help="ordering attribute name, or 'none' (default: "
                            "'time' when present); needs --attrs")
        p.add_argument("--output", default="-", help="output path, '-' for stdout")

    p = sub.add_parser("mine", help="mine frequent constrained patterns")
    add_common(p)
    p.add_argument("--min-sup", required=True,
                   help="absolute count, or fraction of N such as 0.01 or 1/100")
    p.add_argument("--constraint", action="append", default=[],
                   help="e.g. 'gap(time)>=30', 'itemset{1,5,9}'; repeatable")
    p.add_argument("--scenario", type=int, choices=sorted(SCENARIOS),
                   help="install a preset constraint set")
    p.add_argument("--miner", choices=("mpp", "ppcc", "brute"), default="mpp")
    p.add_argument("--disable-prop5", action="store_true",
                   help="disable early candidate abandonment (mpp and ppcc)")
    p.add_argument("--emit-stats", action="store_true",
                   help="write a run report (phase times and counters)")
    p.add_argument("--report", help="run report path (implies --emit-stats)")
    p.add_argument("--max-len", type=int, help="pattern length cap (--miner brute only)")

    p = sub.add_parser("gen-attrs", help="generate synthetic attributes")
    p.add_argument("--db", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", default=",".join(map(":".join, DEFAULT_PROFILE)),
                   help="comma list of name:time|uniform")
    p.add_argument("--output", default="-")

    p = sub.add_parser("stats", help="database statistics")
    add_common(p)

    p = sub.add_parser("export-dot", help="render the diagram as DOT")
    add_common(p)
    p.add_argument("--constraint", action="append", default=[])
    p.add_argument("--scenario", type=int, choices=sorted(SCENARIOS))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # an option the selected path would silently ignore is an argument error
    if getattr(args, "ordering_attr", None) is not None and args.attrs is None:
        parser.error("--ordering-attr needs --attrs")
    if args.command == "mine":
        try:
            _parse_min_support(args.min_sup)
        except ValueError as exc:
            parser.error(str(exc))
        if args.max_len is not None and args.miner != "brute":
            parser.error("--max-len applies only to --miner brute")
        if args.max_len is not None and args.max_len < 1:
            parser.error("--max-len must be at least 1")
        if args.disable_prop5 and args.miner == "brute":
            parser.error("--disable-prop5 has no effect with --miner brute")
    try:
        return _COMMANDS[args.command](args)
    except (SeqDbError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
