"""Seeded workload inputs, built with the benchmark's own number theory.

Nothing here imports icgraph, so the checker in check.py, which builds on
these helpers, shares no code with the program it checks.

Every workload is a stream of operations drawn from `--seed`, and every
query in it repeats within a run, so that run.py can time each query more
than once.  A sweep operation is one window a..b of orders; the seed picks
SWEEP_WINDOWS windows from a pool of windows whose divisor-set totals lie
within a few percent of a fixed target and whose mean order (weighted by
sets) lies within a few percent of the pool's median, so every operation
does about the same work, and the stream cycles through them.  A point
operation is one block of single-graph queries on a fixed grid of sizes,
each size moved by the seed, so every block does about the same work.
"""

from __future__ import annotations

import random
import statistics
from functools import lru_cache
from math import gcd

POINT_SHAPES = ("power", "pair", "mixed")
POINT_JITTER = 0.01
# Offsets within a slice; {1, p} and {1, d1, d2} cost about the same per n,
# so they sit apart.
POINT_OFFSETS = {"power": 0.25, "pair": 0.5, "mixed": 0.75}
PAIR_MIN_PRIME = 50
SWEEP_WINDOWS = 3


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """((p, a), ...) with p ascending, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    ds = [1]
    for p, a in factorize(n):
        ds = [d * p ** e for d in ds for e in range(a + 1)]
    return tuple(sorted(ds))


def proper_divisors(n: int) -> tuple[int, ...]:
    return divisors(n)[:-1]


def subset_count(n: int) -> int:
    """Nonempty divisor sets of n: 2^tau'(n) - 1."""
    return (1 << (len(divisors(n)) - 1)) - 1


def phi(n: int) -> int:
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def connected_count(n: int) -> int:
    """Divisor sets of n whose gcd is 1, i.e. connected graphs."""
    # counts[g] = number of nonempty subsets seen so far with gcd g
    counts: dict[int, int] = {}
    for d in proper_divisors(n):
        for g, c in list(counts.items()):
            h = gcd(g, d)
            counts[h] = counts.get(h, 0) + c
        counts[d] = counts.get(d, 0) + 1
    return counts.get(1, 0)


# Scale of one operation per workload.  `tiny` keeps the smoke test fast.
SCALES = {
    "full": {
        "mod4-cli": dict(target=40_000, tol=0.02, lo=60, hi=179),
        "census": dict(target=145_000, tol=0.02, lo=150, hi=239, must=180),
        "oracle": dict(target=6_000, tol=0.03, lo=80, hi=150, budget=1024),
        "point": dict(queries=24, lo_exp=3.9, hi_exp=5.9),
    },
    "tiny": {
        "mod4-cli": dict(target=300, tol=0.2, lo=20, hi=60),
        "census": dict(target=300, tol=0.1, lo=20, hi=60, must=24),
        "oracle": dict(target=200, tol=0.1, lo=20, hi=60, budget=32),
        "point": dict(queries=6, lo_exp=2.0, hi_exp=4.0),
    },
}


def window_pool(count, target: int, tol: float, lo: int, hi: int, keep) -> list[tuple[int, int]]:
    """All windows a..b in [lo, hi] whose shortest prefix reaching `target`
    sets stays below target * (1 + tol), filtered by keep(a, b), and whose
    set-weighted mean order is within `tol` of the median one: a set of
    order n costs about n, so such windows cost about the same."""
    pool = []
    for a in range(lo, hi + 1):
        total = 0
        for b in range(a, hi + 1):
            total += count(b)
            if total >= target:
                break
        if target <= total <= target * (1 + tol) and keep(a, b):
            pool.append((a, b))
    if not pool:
        raise ValueError(f"no window in {lo}..{hi} holds {target} sets within {tol:.0%}")
    mean_n = {w: sum(count(n) * n for n in range(w[0], w[1] + 1))
              / sum(count(n) for n in range(w[0], w[1] + 1)) for w in pool}
    mid = statistics.median_low(mean_n.values())
    return [w for w in pool if abs(mean_n[w] - mid) <= tol * mid]


def sweep_pool(workload: str, scale: str) -> list[tuple[int, int]]:
    cfg = SCALES[scale][workload]
    if workload == "mod4-cli":
        return window_pool(subset_count, cfg["target"], cfg["tol"], cfg["lo"], cfg["hi"],
                           lambda a, b: True)
    if workload == "census":
        must = cfg["must"]
        return window_pool(subset_count, cfg["target"], cfg["tol"], cfg["lo"], cfg["hi"],
                           lambda a, b: a <= must <= b)
    budget = cfg["budget"]

    def mixed(a, b):
        sampled = [subset_count(n) > budget for n in range(a, b + 1)]
        return any(sampled) and not all(sampled)

    return window_pool(lambda n: min(subset_count(n), budget), cfg["target"], cfg["tol"],
                       cfg["lo"], cfg["hi"], mixed)


def _prime_powers(n: int) -> list[tuple[int, int, int]]:
    """(p^gamma, p, gamma) for the prime powers that are proper divisors of n, ascending."""
    return sorted((p ** g, p, g) for p, a in factorize(n) for g in range(1, a + 1) if p ** g < n)


def _large_divisors(n: int) -> tuple[int, ...]:
    """Proper divisors above sqrt(n); their rows are short, so they add little work."""
    return tuple(d for d in proper_divisors(n) if d * d > n)


def _two_largest_primes(n: int) -> list[int]:
    return [p for p, _ in factorize(n)][-2:]


def _feasible(n: int, shape: str) -> bool:
    # Square-free n only: c(k, m) costs less when m / gcd(k, m) has a square
    # factor, so a query's work per n would otherwise vary with n's exponents.
    if any(a > 1 for _, a in factorize(n)):
        return False
    if shape == "power":
        return bool(_prime_powers(n))
    if shape == "pair":
        # Both primes large, so the rows for p and q (n/p + n/q Ramanujan
        # sums) stay small next to the O(n) work every query does.
        primes = _two_largest_primes(n)
        return len(primes) == 2 and primes[0] >= PAIR_MIN_PRIME
    return len(_large_divisors(n)) >= 2


def _query(rng: random.Random, n: int, shape: str) -> dict:
    # Each shape's work is close to a fixed multiple of n: the divisor-1 row
    # costs n Ramanujan sums, a row for d costs n/d.
    if shape == "power":
        top, p, gamma = _prime_powers(n)[-1]
        return {"n": n, "D": [1, top], "shape": shape, "params": [p, gamma]}
    if shape == "pair":
        p, q = _two_largest_primes(n)
        return {"n": n, "D": [p, q], "shape": shape, "params": [p, q]}
    others = rng.sample(_large_divisors(n), 2)
    return {"n": n, "D": sorted([1, *others]), "shape": shape, "params": []}


def point_block(rng: random.Random, queries: int, lo_exp: float, hi_exp: float) -> list[dict]:
    """One block of queries.  [10^lo_exp, 10^hi_exp] is cut into queries/3
    equal slices in log scale, and each shape, {1, p^gamma}, {p, q} and
    {1, d1, d2}, gets one query per slice, at a fixed offset within it, so
    every block holds the same sizes, each query named by its slot
    ("pair-3"), and run.py takes latency per size over the blocks.  The
    seed moves each n by up to POINT_JITTER of n (then up to the next
    square-free n that has the shape, so gamma = 1) and shuffles the block,
    so that a slow second of the machine hits queries of every size alike,
    not the few sizes that happen to run in it."""
    per_shape = queries // len(POINT_SHAPES)
    block = []
    for shape in POINT_SHAPES:
        for j in range(per_shape):
            pos = (j + POINT_OFFSETS[shape]) / per_shape
            centre = 10 ** (lo_exp + (hi_exp - lo_exp) * pos)
            n = max(int(centre * (1 + rng.uniform(-POINT_JITTER, POINT_JITTER))), 4)
            while not _feasible(n, shape):
                n += 1
            block.append({**_query(rng, n, shape), "slot": f"{shape}-{j}"})
    rng.shuffle(block)
    return block


def operations(workload: str, seed: int, scale: str = "full"):
    """Endless, seed-determined stream of operation inputs for a workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "point":
        cfg = SCALES[scale]["point"]
        while True:
            yield point_block(rng, cfg["queries"], cfg["lo_exp"], cfg["hi_exp"])
    pool = sweep_pool(workload, scale)
    windows = rng.sample(pool, min(SWEEP_WINDOWS, len(pool)))
    while True:
        yield from windows
