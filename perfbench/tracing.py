"""Spans recorded from outside the package, around the calls into each layer.

A span is (id, name, start, end, parent id, run id); its layer is the part
of the name before the first dot.  Spans are kept in memory and written out
once, when the traced job ends.  Only coarse calls are wrapped (about one
span per extension step); per-entry calls such as admission or occurrence
checks are never wrapped, so the trace costs little against mining.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from mddmine.miner import MppMiner


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        #: [id, name, start, end, parent]; end is None while the span is open
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [span_id, name, perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(span_id)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = {}
        for _, name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self, *roots: str) -> dict[str, float]:
        """Per-layer self time over the spans nested below spans named in ``roots``.

        A span's self time is its duration minus its children's durations;
        children of one span never overlap because jobs are single-threaded.
        """
        children: dict[int, list[list]] = {}
        for record in self.spans:
            if record[4] is not None:
                children.setdefault(record[4], []).append(record)
        out: dict[str, float] = {}

        def visit(record) -> None:
            kids = children.get(record[0], [])
            own = (record[3] - record[2]) - sum(k[3] - k[2] for k in kids)
            layer = record[1].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
            for kid in kids:
                visit(kid)

        for record in self.spans:
            if record[1] in roots:
                for kid in children.get(record[0], []):
                    visit(kid)
        return out

    def write(self, path: Path) -> None:
        """One JSON object per line and span."""
        lines = [
            json.dumps({"id": i, "name": n, "start": s, "end": e, "parent": p,
                        "run": self.run_id})
            for i, n, s, e, p in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")


class TracedMppMiner(MppMiner):
    """The package's miner with its root scan, extensions and emission timed.

    ``mine(..., threads=1)`` constructs an ``MppMiner`` with the same
    arguments and calls ``mine_patterns``; this subclass does the same, so
    its counters must equal an untraced run's.
    """

    def __init__(self, tracer: Tracer, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def root_candidates(self):
        with self.tracer.span("miner.root_scan"):
            return super().root_candidates()

    def extend(self, pdb):
        with self.tracer.span("miner.extend"):
            return super().extend(pdb)

    def _witness_support(self, pdb):
        with self.tracer.span("miner.emission"):
            return super()._witness_support(pdb)
