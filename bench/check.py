"""Independent check of icgraph's outputs.

Eigenvalues come from numpy's FFT of the symbol-set indicator (a circulant
is diagonalised by the DFT), and the arithmetic from inputs.py.  Nothing is
imported from icgraph, so a bug there cannot hide itself here.

Each function takes one operation's raw output and returns a list of
failure messages; an empty list means the operation is correct.
"""

from __future__ import annotations

import json
import random
from math import gcd

import numpy as np

from inputs import factorize, proper_divisors, subset_count

ROUND_TOL = 1e-3
ORACLE_TOL = 1e-6


def half_spectrum(n: int, divs) -> np.ndarray:
    """lambda_0 .. lambda_{n//2} of ICG_n(D), as exact integers.

    The spectrum is symmetric (lambda_k = lambda_{n-k}), so the real FFT's
    half holds all of it.
    """
    g = np.gcd(np.arange(n), n)
    indicator = np.isin(g, np.asarray(divs)).astype(np.float64)
    lam = np.fft.rfft(indicator).real
    rounded = np.rint(lam)
    err = float(np.max(np.abs(lam - rounded)))
    if err > ROUND_TOL:
        raise ArithmeticError(f"{n}:{divs} FFT eigenvalue off an integer by {err}")
    return rounded.astype(np.int64)


def energy_of(n: int, lam: np.ndarray) -> int:
    """Energy from a half spectrum: interior indices stand for two eigenvalues."""
    weights = np.full(len(lam), 2, dtype=np.int64)
    weights[0] = 1
    if n % 2 == 0:
        weights[-1] = 1
    return int(np.abs(lam) @ weights)


def predicted4(n: int, divs, lam: np.ndarray) -> int:
    """The mod-4 rule: 2 iff n is even, n/2 is in D and lambda_{n/2} < 0."""
    return 2 if n % 2 == 0 and n // 2 in divs and lam[n // 2] < 0 else 0


def _parse_rows(out: bytes, failures: list) -> list[dict]:
    try:
        return json.loads(b"[" + b",".join(out.splitlines()) + b"]")
    except ValueError:
        pass
    rows = []
    for i, line in enumerate(out.splitlines()):
        try:
            rows.append(json.loads(line))
        except ValueError:
            failures.append(f"row {i} is not JSON: {line[:80]!r}")
    return rows


def _parse_spec(text: str) -> tuple[int, list[int]]:
    head, _, tail = text.partition(":")
    return int(head), [int(d) for d in tail.split(",")]


def _orders(rows, a, b, failures, what) -> bool:
    if [r.get("n") for r in rows] != list(range(a, b + 1)):
        failures.append(f"{what}: rows do not cover n = {a}..{b} in order")
        return False
    return True


def mod4_sweep(a: int, b: int, out: bytes, rng: random.Random, sample: int = 48) -> list[str]:
    """mod4-sweep a..b: each divisor set once, every rule matched."""
    failures: list[str] = []
    rows = _parse_rows(out, failures)
    per_n: dict[str, int] = {}
    for r in rows:
        try:
            ok = (r["match"] is True and r["residue4"] == r["energy"] % 4
                  and r["predicted4"] == r["residue4"])
            head = r["spec"].partition(":")[0]
        except (KeyError, TypeError, AttributeError):
            ok, head = False, ""
        if not ok:
            failures.append(f"mod4-sweep row fails: {r}")
        per_n[head] = per_n.get(head, 0) + 1
    if per_n != {str(n): subset_count(n) for n in range(a, b + 1)}:
        failures.append(f"mod4-sweep {a}..{b}: row counts per n differ from 2^tau'(n) - 1")
    if len({r.get("spec") for r in rows}) != len(rows):
        failures.append(f"mod4-sweep {a}..{b}: repeated divisor sets")
    for r in rng.sample(rows, min(sample, len(rows))):
        try:
            n, divs = _parse_spec(r["spec"])
        except (KeyError, ValueError):
            continue  # already reported above
        if not set(divs) <= set(proper_divisors(n)):
            failures.append(f"mod4-sweep row names a non-divisor: {r}")
            continue
        lam = half_spectrum(n, divs)
        if energy_of(n, lam) != r.get("energy") or predicted4(n, divs, lam) != r.get("predicted4"):
            failures.append(f"mod4-sweep row disagrees with FFT: {r}")
    return failures


def so_check(a: int, b: int, out: bytes) -> list[str]:
    """so-check a..b: every set counted, no cospectral collision."""
    failures: list[str] = []
    rows = _parse_rows(out, failures)
    if _orders(rows, a, b, failures, "so-check"):
        for r in rows:
            if r.get("sets") != subset_count(r["n"]) or r.get("collisions") != []:
                failures.append(f"so-check row fails: {r}")
    return failures


def min_energy(a: int, b: int, out: bytes) -> list[str]:
    """min-energy a..b: minimum is n (even n) or 2n(1 - 1/p) (odd n), and
    every reported minimiser is connected with that energy by FFT."""
    failures: list[str] = []
    rows = _parse_rows(out, failures)
    if not _orders(rows, a, b, failures, "min-energy"):
        return failures
    for r in rows:
        n = r["n"]
        p = factorize(n)[0][0]
        want = n if n % 2 == 0 else 2 * n - 2 * (n // p)
        ok = (r.get("min_energy") == want and r.get("conjecture_value") == want
              and r.get("conjecture_holds") is True and r.get("argmin_sets"))
        for divs in r.get("argmin_sets") or []:
            g = 0
            for d in divs:
                g = gcd(g, d)
            ok = ok and g == 1 and energy_of(n, half_spectrum(n, divs)) == want
        if not ok:
            failures.append(f"min-energy row fails: {r}")
    return failures


def verify_oracle(a: int, b: int, budget: int, out: bytes) -> list[str]:
    """verify-oracle a..b: right set counts, no failure, deviation in tolerance."""
    failures: list[str] = []
    rows = _parse_rows(out, failures)
    if not _orders(rows, a, b, failures, "verify-oracle"):
        return failures
    for r in rows:
        total = subset_count(r["n"])
        exhaustive = total <= budget
        dev = r.get("max_deviation")
        ok = (r.get("exhaustive") is exhaustive
              and r.get("sets") == (total if exhaustive else budget)
              and r.get("ok") is True and r.get("failures") == []
              and isinstance(dev, float) and 0.0 <= dev <= ORACLE_TOL)
        if not ok:
            failures.append(f"verify-oracle row fails: {r}")
    return failures


def point_rows(queries: list[dict], rows: list[dict], rng: random.Random,
               sample: int = 12) -> list[list[str]]:
    """Per-query failures for one block of point queries.

    Every row: closed form equals direct energy, residue and hyperenergy
    are consistent.  A seeded sample is also checked against the FFT.
    """
    per_query: list[list[str]] = [[] for _ in queries]
    if len(rows) != len(queries):
        return [[f"point: {len(rows)} rows for {len(queries)} queries"] for _ in queries]
    picked = set(rng.sample(range(len(queries)), min(sample, len(queries))))
    for i, (q, r) in enumerate(zip(queries, rows)):
        n, divs = q["n"], q["D"]
        try:
            e = r["energy"]
            ok = (r["spec"] == f"{n}:{','.join(map(str, divs))}"
                  and r["residue4"] == e % 4 and r["predicted4"] == r["residue4"]
                  and r["hyperenergetic"] == (e > 2 * n - 2)
                  and r["half_in_D"] == (n % 2 == 0 and n // 2 in divs)
                  and (q["shape"] == "mixed" or r["closed"] == e))
            if ok and i in picked:
                lam = half_spectrum(n, divs)
                ok = (energy_of(n, lam) == e and predicted4(n, divs, lam) == r["predicted4"]
                      and (n % 2 or r["lambda_half"] == lam[n // 2]))
        except (KeyError, TypeError):
            ok = False
        if not ok:
            per_query[i].append(f"point query fails: {q} -> {r}")
    return per_query
