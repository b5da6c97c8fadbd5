"""icgraph benchmark: one workload per call, every output checked.

    python3 bench/run.py --workload mod4-cli --seed 1 --seconds 30 --trace 0

Runs the workload's operations one child process at a time, each in a fresh
interpreter with PYTHONPATH=src, as long as the next one is expected to end
within `--seconds`, and checks each with check.py.  With `--trace 0` it
reports the end-to-end metrics of BENCHMARK.json, throughput and latency in
CPU time of the children (on a shared host the wall time also holds the time
the hypervisor gives to other guests; it is printed and recorded as well);
with `--trace 1` it runs the first operation untraced and traced in turn
and reports the per-layer metrics from the spans (spans.py).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Details, stamps and spans go to .bench_out/.

`--workload all` runs every workload in turn.  `--scale tiny` shrinks every
operation for the smoke test (bench/test_bench.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import check
from inputs import SCALES, connected_count, operations, subset_count
from spans import self_times

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
PY = sys.executable
MB = float(1 << 20)
SETUP_MIN = 5
SETUP_EVERY_S = 4.0
SETUP_ARGV = [PY, "-c", "import icgraph.cli; icgraph.cli.build_parser()"]
# Counts the benchmark computes itself; they repeat exactly for one seed.
COMPUTED = {"sweep.sets", "oracle.trig_terms", "families.keys_mb", "graphs.row_cache_mb",
            "cli.stdout_mb"}


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: bytes
    err: str


@dataclass
class Op:
    """One timed operation: its children, the graphs it checked, its failures."""

    children: list[Child]
    sets: int
    latencies_ms: list[float]  # wall time per query
    cpu_ms: list[float]  # CPU time per query
    attempted: int
    failures: list[str]
    failed: int
    traces: list[Path]
    slots: list[str]  # each query's name; a run repeats every name

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.children)

    @property
    def cpu(self) -> float:
        return sum(c.cpu for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + extra if extra else "")
    return env


class Launcher:
    """Runs children through bench/launch.py, which stays small (see there)."""

    def __init__(self) -> None:
        # Its own process group, so that one signal stops it and any child it runs.
        self.proc = subprocess.Popen([PY, str(BENCH / "launch.py")], cwd=ROOT, env=child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.stdin.close()
        self.proc.wait()

    def spawn(self, argv: list[str], stdin: bytes | None = None) -> Child:
        """Run a child to completion: wall time from spawn to reap, and its peak RSS."""
        files = {k: OUT / f"child.{k}" for k in ("stdin", "stdout", "stderr")}
        if stdin is not None:
            files["stdin"].write_bytes(stdin)
        req = {k: str(p) for k, p in files.items()}
        req["stdin"] = req["stdin"] if stdin is not None else None
        self.proc.stdin.write(json.dumps({"argv": argv, **req}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Child(reply["wall_s"], reply["cpu_s"], reply["rss_kb"] / 1024, reply["code"],
                     files["stdout"].read_bytes(),
                     files["stderr"].read_text(errors="replace"))


def cli_argv(trace: Path | None, verb: str, a: int, b: int, *extra: str) -> list[str]:
    args = [verb, f"{a}..{b}", *extra]
    if trace is None:
        return [PY, "-m", "icgraph", *args]
    return [PY, str(BENCH / "spans.py"), "--out", str(trace), "--", *args]


def exit_failures(*children: Child) -> list[str]:
    return [f"exit {c.code}: {c.err.strip()[-300:]}" for c in children if c.code != 0]


def run_op(spawn, workload: str, op, rng: random.Random, scale: str,
           trace: Path | None) -> Op:
    """Run one operation and check its outputs (the check is not timed)."""
    tr = [trace.with_suffix(f".{i}.json") if trace else None for i in range(2)]
    if workload == "point":
        c = spawn([PY, str(BENCH / "point.py"), *(["--trace", str(tr[0])] if trace else [])],
                  stdin=json.dumps(op).encode())
        rows = []
        if c.code != 0:
            per_query = [exit_failures(c) for _ in op]
        else:
            try:
                rows = [json.loads(line) for line in c.out.splitlines()]
                per_query = check.point_rows(op, rows, rng)
            except ValueError as e:
                per_query = [[f"unparsable point output: {e}"] for _ in op]
        lat = [r["ms"] for r in rows if isinstance(r.get("ms"), float)] or [c.wall * 1e3]
        cpu = [r["cpu_ms"] for r in rows if isinstance(r.get("cpu_ms"), float)] or [c.cpu * 1e3]
        fails = [m for q in per_query for m in q]
        return Op([c], len(op), lat, cpu, len(op), fails, sum(1 for q in per_query if q),
                  [p for p in tr[:1] if p], [q["slot"] for q in op])

    a, b = op
    if workload == "mod4-cli":
        c = spawn(cli_argv(tr[0], "mod4-sweep", a, b))
        fails = exit_failures(c) or check.mod4_sweep(a, b, c.out, rng)
        children, sets = [c], c.out.count(b"\n")
    elif workload == "census":
        so = spawn(cli_argv(tr[0], "so-check", a, b))
        me = spawn(cli_argv(tr[1], "min-energy", a, b))
        fails = (exit_failures(so, me) or check.so_check(a, b, so.out)
                 + check.min_energy(a, b, me.out))
        children, sets = [so, me], 2 * sum(subset_count(n) for n in range(a, b + 1))
    else:
        budget = SCALES[scale]["oracle"]["budget"]
        c = spawn(cli_argv(tr[0], "verify-oracle", a, b, "--budget", str(budget)))
        fails = exit_failures(c) or check.verify_oracle(a, b, budget, c.out)
        children = [c]
        sets = sum(min(subset_count(n), budget) for n in range(a, b + 1))
    return Op(children, sets, [sum(c.wall for c in children) * 1e3],
              [sum(c.cpu for c in children) * 1e3], 1, fails, int(bool(fails)),
              [p for p in tr[:len(children)] if p], [f"{a}..{b}"])


def timings(ops: list[Op], per_query: str) -> tuple[float, float, float]:
    """Sets per second and the p50 and p90 of query latency, from each query's
    time in ms (attribute `per_query`).

    The shared host runs the same code at one speed most of the time and, in
    stretches of seconds to minutes, up to twice as fast; how much of a run
    such stretches cover varies from run to run, and a mean or median over
    the run moves with it.  So the figures are taken at the usual speed:
    every query repeats within a run (a sweep window, a point size; see
    inputs.py), a query's latency is the slowest of its repeats, p50 and p90
    are taken over the queries, and sets per second is their sets over
    their summed latency."""
    latency: dict[str, float] = {}
    sets: dict[str, float] = {}
    for o in ops:
        for slot, ms in zip(o.slots, getattr(o, per_query)):
            latency[slot] = max(latency.get(slot, 0.0), ms)
            sets[slot] = o.sets / len(o.slots)
    lat = list(latency.values())
    rate = sum(sets.values()) / (sum(lat) / 1e3)
    return rate, float(np.percentile(lat, 50)), float(np.percentile(lat, 90))


def end_to_end(ops: list[Op], setup: list[float]) -> dict:
    """Throughput and latency in CPU time (user + system) of the children, see
    timings(); set-up in wall time.  The wall-time figures go along under
    "wall"."""
    rate, p50, p90 = timings(ops, "cpu_ms")
    wall_rate, wall50, wall90 = timings(ops, "latencies_ms")
    return {
        "sets_per_cpu_s": rate,
        "peak_rss_mb": statistics.median(o.rss_mb for o in ops),
        "setup_s": statistics.median(setup),
        "query_cpu_p50_ms": p50,
        "query_cpu_p90_ms": p90,
        "wall": {"sets_per_s": wall_rate, "query_p50_ms": wall50, "query_p90_ms": wall90},
    }


def per_layer(workload: str, op, traced: Op) -> dict:
    """Per-layer metrics of one traced operation, derived from its spans."""
    calls, self_by_name, mod_calls, mod_self = Counter(), Counter(), Counter(), Counter()
    yields: Counter = Counter()
    exact = wall = 0.0
    n_spans = row_cache = row_bytes = trig_terms = 0
    for path in traced.traces:
        doc = json.loads(path.read_text())
        spans = doc["spans"]
        for s, own in zip(spans, self_times(spans)):
            name = s[1]
            module = name.split(".")[0]
            calls[name] += s[5]
            self_by_name[name] += own
            mod_calls[module] += s[5]
            mod_self[module] += own
            if (name in ("graphs.spectrum", "sweep.iter_subset_spectra") and s[4] >= 0
                    and spans[s[4]][1].startswith("oracle.")):
                exact += s[6]
        wall += spans[0][6]
        n_spans += len(spans)
        for gen, parent, count in doc["yields"]:
            yields[(gen, parent)] += count
        row_cache += doc["row_cache_rows"]
        row_bytes += doc["row_cache_bytes"]
        trig_terms += doc["trig_terms"]
    stdout = b"".join(c.out for c in traced.children) if workload != "point" else b""
    deviations = ([json.loads(line)["max_deviation"] for line in stdout.splitlines()]
                  if workload == "oracle" else [])
    window = range(op[0], op[1] + 1) if workload != "point" else range(0)
    enumerated = yields[("sweep.iter_subset_spectra", "families.min_energy_search")]
    return {
        "arith.calls": mod_calls["arith"],
        "arith.busy_s": mod_self["arith"],
        "graphs.spectrum_calls": calls["graphs.spectrum"],
        "graphs.spectrum_s": self_by_name["graphs.spectrum"],
        "graphs.row_cache_rows": row_cache,
        "graphs.row_cache_mb": row_bytes / MB,
        "graphs.self_s": mod_self["graphs"],
        "sweep.sets": sum(c for (gen, _), c in yields.items() if gen == "sweep.iter_subset_spectra"),
        "sweep.busy_s": mod_self["sweep"],
        "energy.reduce_s": self_by_name["energy.mod4_rows"],
        "energy.self_s": mod_self["energy"],
        "families.so_s": self_by_name["families.so_conjecture_check"],
        "families.min_energy_s": self_by_name["families.min_energy_search"],
        "families.keys_mb": max((subset_count(n) * n * 8 for n in window), default=0) / MB
        if workload == "census" else 0.0,
        "families.useful_frac": sum(connected_count(n) for n in window) / enumerated
        if enumerated else 0.0,
        "families.self_s": mod_self["families"],
        "oracle.trig_calls": calls["oracle.spectrum_trig"],
        "oracle.trig_s": self_by_name["oracle.spectrum_trig"],
        "oracle.trig_terms": trig_terms,
        "oracle.exact_s": exact,
        "oracle.max_deviation": max(deviations, default=0.0),
        "oracle.self_s": mod_self["oracle"],
        "closed_forms.cases": calls["closed_forms.energy_one_prime_power"]
        + calls["closed_forms.energy_two_primes"],
        "closed_forms.busy_s": mod_self["closed_forms"],
        "cli.rows": stdout.count(b"\n"),
        "cli.stdout_mb": len(stdout) / MB,
        "cli.emit_s": mod_self["cli"],
        "trace.wall_s": wall,
        "trace.unattributed_frac": mod_self["bench"] / wall,
        "trace.spans": n_spans,
    }


def stamp(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            sha = res.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text()
                .splitlines() if line.startswith("model name")), platform.processor())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
    }


def room_for_more(start: float, lengths: list[float], seconds: float) -> bool:
    """Whether one more loop iteration, as long as the median one so far,
    ends within `seconds` of `start`.  The first iteration always runs."""
    return not lengths or perf_counter() - start + statistics.median(lengths) <= seconds


def run_workload(spawn, workload: str, seed: int, seconds: float, traced: bool, scale: str,
                 units: dict) -> dict:
    info = stamp(seed)
    stream = operations(workload, seed, scale)
    rng = random.Random(f"check:{workload}:{seed}")
    t_start = perf_counter()
    details = []
    if traced:
        op = next(stream)
        layers, overheads, ops, lengths = [], [], [], []
        while room_for_more(t_start, lengths, seconds):
            t_iter = perf_counter()
            plain = run_op(spawn, workload, op, rng, scale, None)
            traced_op = run_op(spawn, workload, op, rng, scale, OUT / f"spans-{workload}-{seed}")
            ops += [plain, traced_op]
            overheads.append(traced_op.wall / plain.wall - 1)
            layers.append(per_layer(workload, op, traced_op))
            lengths.append(perf_counter() - t_iter)
        metrics = {m: statistics.median_low(d[m] for d in layers) for m in layers[0]}
        metrics["trace.overhead_frac"] = statistics.median(overheads)
        details = [{"op": op, "wall_s": o.wall, "failures": o.failures[:5]} for o in ops]
    else:
        # Set-up runs are spread over the run, one per SETUP_EVERY_S seconds, so
        # they see the same machine as the operations do.
        setup = []
        spawn(SETUP_ARGV)  # compiles the bytecode that later runs reuse
        ops, lengths = [], []
        t_start = perf_counter()
        while room_for_more(t_start, lengths, seconds):
            t_iter = perf_counter()
            op = next(stream)
            ops.append(run_op(spawn, workload, op, rng, scale, None))
            for c in ops[-1].children:
                c.out = b""  # checked; keep run.py small
            details.append({"op": op, "wall_s": ops[-1].wall, "cpu_s": ops[-1].cpu,
                            "rss_mb": ops[-1].rss_mb, "sets": ops[-1].sets,
                            "query_cpu_ms": ops[-1].cpu_ms, "failures": ops[-1].failures[:5]})
            while len(setup) < SETUP_MIN or len(setup) < (perf_counter() - t_start) / SETUP_EVERY_S:
                c = spawn(SETUP_ARGV)
                if c.code != 0:
                    raise RuntimeError(f"set-up child failed: {c.err.strip()[-300:]}")
                setup.append(c.wall)
            lengths.append(perf_counter() - t_iter)
        metrics = end_to_end(ops, setup)
        metrics["setup_runs"] = setup
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    info["loadavg_end"] = os.getloadavg()
    samples = sum(len(o.latencies_ms) for o in ops)
    record = {"workload": workload, "trace": int(traced), "seconds": seconds, "scale": scale,
              "stamp": info, "attempted": attempted, "failed": failed,
              "query_samples": samples, "metrics": metrics, "ops": details}
    (OUT / f"result-{workload}-{seed}-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# {workload} seed={seed} trace={int(traced)} ops={len(ops)} "
          f"query_samples={samples} failed_frac={failed / attempted}")
    print("# stamp " + json.dumps(info))
    if "wall" in metrics:
        print("# wall time " + json.dumps(metrics["wall"]))
    for o in ops:
        for msg in o.failures[:3]:
            print(f"# FAIL {msg[:300]}")
    result = {}
    for name, unit in units.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name:28s} {metrics[name]!r:>24} {unit}{label}")
        result[name] = {"value": metrics[name], "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*names, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "icgraph" / "__init__.py").is_file():
        print(f"run.py: no icgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads = names if args.workload == "all" else [args.workload]
    with Launcher() as launcher:
        results = {w: run_workload(launcher.spawn, w, args.seed, args.seconds, bool(args.trace),
                                   args.scale, units) for w in workloads}
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
