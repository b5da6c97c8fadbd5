"""Point queries: one child process answering a block of single-graph queries.

Reads a JSON list of queries ({"n", "D", "shape", "params"}) on stdin.  Each
query runs `energy_report`; a {1, p^gamma} or {p, q} query also evaluates
its closed-form energy.  Prints one JSON row per query, with the query's
latency in milliseconds, after the last query.

    PYTHONPATH=src python3 bench/point.py [--trace spans.json] < queries.json
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter, process_time

from icgraph.graphs import IcgSpec

# `import icgraph.energy` would bind the package's `energy` function instead.
closed_forms = importlib.import_module("icgraph.closed_forms")
energy = importlib.import_module("icgraph.energy")


def answer(q: dict) -> dict:
    # Module attributes are looked up per call, so a traced run sees the wrappers.
    n = q["n"]
    row = energy.energy_report(IcgSpec(n, tuple(q["D"]))).to_json_dict()
    if q["shape"] == "power":
        row["closed"] = closed_forms.energy_one_prime_power(n, *q["params"])
    elif q["shape"] == "pair":
        row["closed"] = closed_forms.energy_two_primes(n, *q["params"])
    return row


def main(argv: list[str]) -> int:
    queries = json.load(sys.stdin)
    tracer = None
    if argv[:1] == ["--trace"]:
        import spans

        tracer = spans.Tracer()
        hooks = spans.install(tracer)
        root = tracer.open_root("bench.point")
    rows = []
    for q in queries:
        t0, c0 = perf_counter(), process_time()
        row = answer(q)
        row["ms"] = (perf_counter() - t0) * 1e3
        row["cpu_ms"] = (process_time() - c0) * 1e3
        rows.append(row)
    if tracer is not None:
        tracer.close_root(root)
        tracer.dump(argv[1], {"exit": 0, **spans.counters(tracer, hooks)})
    sys.stdout.write("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
