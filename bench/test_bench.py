"""Smoke test of the benchmark itself, on tiny windows (about a minute).

    python3 -m pytest -q bench/test_bench.py

Checks that every metric of BENCHMARK.json prints by name with its unit,
that nothing fails on this commit, that a seed regenerates identical
inputs, and that the independent check rejects a wrong output.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def icgraph(*args: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "icgraph", *args], env=env,
                          capture_output=True, check=True).stdout


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace, group):
    res = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace),
                "--scale", "tiny")
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    lines = res.stdout.splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert re.search(r"\bfailed_frac=0\.0\b", res.stdout)
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in final["metrics"].items()} == expected
    for name, unit in expected.items():
        value = final["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and value == value  # not NaN
        assert any(re.match(rf"{re.escape(name)}\s+\S+\s+{re.escape(unit)}\b", line)
                   for line in lines), f"{name} is not printed with {unit}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    def take(seed):
        return list(itertools.islice(inputs.operations(workload, seed), 6))

    assert take(5) == take(5)
    assert take(5) != take(6)


def test_check_rejects_wrong_outputs():
    out = icgraph("mod4-sweep", "20..30")
    rows = out.splitlines()
    assert check.mod4_sweep(20, 30, out, random.Random(0), sample=len(rows)) == []
    # An energy off by 4 keeps its residue, so only the FFT can see it.
    row = json.loads(rows[7])
    row["energy"] += 4
    bad = b"\n".join([*rows[:7], json.dumps(row).encode(), *rows[8:]])
    assert check.mod4_sweep(20, 30, bad, random.Random(0), sample=len(rows))
    assert check.mod4_sweep(20, 30, b"\n".join(rows[:-1]), random.Random(0))

    so = icgraph("so-check", "20..24")
    assert check.so_check(20, 24, so) == []
    assert check.so_check(20, 24, so.replace(b'"collisions":[]', b'"collisions":[["x"]]', 1))

    low = icgraph("min-energy", "20..24")
    assert check.min_energy(20, 24, low) == []
    assert check.min_energy(20, 24, low.replace(b'"min_energy":20', b'"min_energy":18', 1))

    query = {"n": 12, "D": [1, 4], "shape": "power", "params": [2, 2]}
    good = json.loads(icgraph("report", "12:1,4"))
    good["closed"] = json.loads(icgraph("closed-form", "12", "--power", "2,2"))["energy"]
    e = good["energy"]
    assert check.point_rows([query], [good], random.Random(0)) == [[]]
    assert check.point_rows([query], [dict(good, closed=e + 4)], random.Random(0)) != [[]]
    assert check.point_rows([query], [dict(good, energy=e + 4, closed=e + 4)],
                            random.Random(0)) != [[]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout == ""
