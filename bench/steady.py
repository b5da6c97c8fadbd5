"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 bench/steady.py --workloads mod4-cli point --seeds 10 [--first-seed 1]
                            [--seconds 20] [--out bench/baseline.json]

For each workload, runs bench/run.py once per seed and prints, for each
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
from `statistics.quantiles(values, n=4)`, next to a third of the metric's
bound.  With --out, writes the medians and spreads as a baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def first_stamp(workload: str, seed: int) -> dict | None:
    """The stamp (git sha, source digest, machine) of the first run's record."""
    path = ROOT / ".bench_out" / f"result-{workload}-{seed}-trace0.json"
    return json.loads(path.read_text())["stamp"] if path.exists() else None


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = perf_counter()
            res = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                                  workload, "--seed", str(seed), "--seconds", str(args.seconds),
                                  "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            walls.append(perf_counter() - t0)
            last = json.loads(res.stdout.splitlines()[-1]) if res.stdout.strip() else {}
            if res.returncode != 0 or not last.get("correct"):
                print(f"{workload} seed {seed}: exit {res.returncode}\n{res.stderr[-2000:]}")
                ok = False
                continue
            for m in bounds:
                values[m].append(last["metrics"][m]["value"])
        summary[workload] = {"seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                             "seconds": args.seconds, "stamp": first_stamp(workload, args.first_seed)}
        print(f"{workload}: {len(walls)} runs, wall per run {min(walls):.1f}..{max(walls):.1f} s")
        for m, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[workload][m] = {"median": med, "spread": spread, "runs": len(vals)}
            flag = "" if spread < bounds[m] / 3 else "  <-- above a third of the bound"
            print(f"  {m:14s} median {med:14.6g}  spread {spread:7.4f}  bound/3 "
                  f"{bounds[m] / 3:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
