"""Spans around icgraph's layers, recorded from outside the library.

`install` replaces every public function of each icgraph module, wherever a
module holds a reference to it, with a wrapper that records a span; for a
generator function, each next() is a span.  The arithmetic helpers call each
other once per table entry, so inside `arith` only the call that enters the
layer records a span.

A span is [name, start, end, parent, calls, busy, has_children]; times are
perf_counter seconds (CLOCK_MONOTONIC, comparable across processes).
Consecutive leaf calls of one function under one parent are merged into a
single span that counts its calls and sums its busy time, which keeps a
sweep's millions of arithmetic calls in memory.  Self time is busy time
minus the busy time of the span's children; see `self_times`.

Run as a script, this traces one CLI invocation:

    PYTHONPATH=src python3 bench/spans.py --out spans.json -- mod4-sweep 2..40
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from collections import Counter, OrderedDict
from time import perf_counter

LAYERS = ("arith", "graphs", "sweep", "energy", "closed_forms", "families", "oracle", "cli")
FLAT = "arith"  # calls within this layer record no span of their own
FIELDS = ("run_id", "name", "start", "end", "parent", "calls", "busy_s")

NAME, START, END, PARENT, CALLS, BUSY, HAS_CHILDREN = range(7)


class Tracer:
    def __init__(self) -> None:
        self.run_id = os.urandom(8).hex()
        self.spans: list[list] = []
        # frames: [span index, module, index of last child span, parent frame]
        self.stack: list[list] = []
        self.yields: Counter = Counter()  # (generator, parent span name) -> items
        self.trig_specs: list[tuple[int, tuple[int, ...]]] = []
        self.row_bytes: OrderedDict = OrderedDict()  # (n, d) -> bytes, LRU order

    def enter(self, name: str, module: str) -> list:
        parent = self.stack[-1]
        idx = len(self.spans)
        self.spans[parent[0]][HAS_CHILDREN] = True
        frame = [idx, module, None, parent]
        self.stack.append(frame)
        self.spans.append([name, 0.0, 0.0, parent[0], 1, 0.0, False])
        self.spans[idx][START] = perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        t1 = perf_counter()
        self.stack.pop()
        spans = self.spans
        rec = spans[frame[0]]
        busy = t1 - rec[START]
        rec[END], rec[BUSY] = t1, busy
        parent = frame[3]
        prev = parent[2]
        if (not rec[HAS_CHILDREN] and prev is not None and spans[prev][NAME] == rec[NAME]
                and not spans[prev][HAS_CHILDREN]):
            merged = spans[prev]
            merged[END] = t1
            merged[CALLS] += 1
            merged[BUSY] += busy
            spans.pop()  # a leaf is always the newest span
        else:
            parent[2] = frame[0]

    def open_root(self, name: str) -> list:
        self.spans.append([name, perf_counter(), 0.0, -1, 1, 0.0, False])
        frame = [0, "bench", None, None]
        self.stack.append(frame)
        return frame

    def close_root(self, frame: list) -> None:
        rec = self.spans[frame[0]]
        rec[END] = perf_counter()
        rec[BUSY] = rec[END] - rec[START]
        self.stack.pop()

    def dump(self, path: str, extra: dict) -> None:
        doc = {
            "run_id": self.run_id,
            "fields": FIELDS,
            "spans": [[self.run_id, *s[:HAS_CHILDREN]] for s in self.spans],
            "yields": [[g, p, c] for (g, p), c in self.yields.items()],
            **extra,
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span in the dumped form (see FIELDS)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[6]
    return [s[6] - c for s, c in zip(spans, child)]


class _TracedIter:
    def __init__(self, tracer, name, it):
        self.tracer, self.name, self.it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        frame = tracer.enter(self.name, self.name.partition(".")[0])
        try:
            item = next(self.it)
        finally:
            tracer.exit(frame)
        tracer.yields[(self.name, tracer.spans[frame[3][0]][NAME])] += 1
        return item


def _wrap(tracer: Tracer, module: str, fname: str, fn):
    name = f"{module}.{fname}"
    if inspect.isgeneratorfunction(fn):
        def traced(*args, **kwargs):
            return _TracedIter(tracer, name, fn(*args, **kwargs))
    else:
        def traced(*args, **kwargs):
            if module == FLAT and tracer.stack[-1][1] == FLAT:
                return fn(*args, **kwargs)
            frame = tracer.enter(name, module)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
    traced.__wrapped__ = fn
    return traced


def _rebind(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> dict:
    """Wrap icgraph's public functions; returns counters read after the run."""
    pkg = importlib.import_module("icgraph")
    modules = {m: importlib.import_module(f"icgraph.{m}") for m in LAYERS}
    everything = [pkg, *modules.values()]
    for short, mod in modules.items():
        for fname, fn in list(vars(mod).items()):
            if (fname.startswith("_") or isinstance(fn, type) or not callable(fn)
                    or getattr(fn, "__module__", None) != mod.__name__):
                continue
            _rebind(everything, fn, _wrap(tracer, short, fname, fn))

    trig = getattr(modules["oracle"], "spectrum_trig", None)
    if trig is not None:
        def note_trig(spec, *args, **kwargs):
            tracer.trig_specs.append((spec.n, spec.divisors))
            return trig(spec, *args, **kwargs)
        _rebind(everything, trig, note_trig)

    # The row cache is private; count its rows and bytes if it exists.
    rows = getattr(modules["graphs"], "_divisor_eigenrow", None)
    if rows is not None and hasattr(rows, "cache_info"):
        def note_row(*args):
            row = rows(*args)
            tracer.row_bytes[args] = row.nbytes
            tracer.row_bytes.move_to_end(args)
            return row
        _rebind(everything, rows, note_row)
    return {"row_cache": rows}


def counters(tracer: Tracer, hooks: dict) -> dict:
    """Counts read from the tracer and the program once the run is over."""
    from inputs import phi

    cache = hooks["row_cache"]
    cached = cache.cache_info().currsize if cache is not None else 0
    row_bytes = list(tracer.row_bytes.values())[-cached:] if cached else []
    return {
        "row_cache_rows": cached,
        "row_cache_bytes": sum(row_bytes),
        "trig_terms": sum(n * sum(phi(n // d) for d in divs) for n, divs in tracer.trig_specs),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: spans.py --out PATH -- VERB ARGS...", file=sys.stderr)
        return 1
    tracer = Tracer()
    hooks = install(tracer)
    cli = importlib.import_module("icgraph.cli")
    root = tracer.open_root("bench.cli")
    try:
        code = cli.main(argv[3:])
    finally:
        tracer.close_root(root)
    sys.stdout.flush()
    tracer.dump(argv[1], {"exit": code, **counters(tracer, hooks)})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
