"""Independent cross-checks for the exact spectra.

Two consistency routes that do not share code with the Ramanujan-sum path:

* a trigonometric oracle that evaluates circulant eigenvalues directly as
  cosine sums over the connection set, and
* spectral-moment identities (edge and 4-cycle counts) that tie the
  spectrum back to countable graph structure.

The trig oracle is floating point, so comparisons carry an explicit
tolerance; everything else is exact integer arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt
from typing import TYPE_CHECKING

from .graphs import IcgSpec, Spectrum, adjacency, spectrum, symbol_set
from .sweep import iter_subset_spectra, mask_divisors, proper_divisors, subset_count

if TYPE_CHECKING:
    import numpy as np

TRIG_MAX_N = 100_000


@lru_cache(maxsize=64)
def _costab(n: int) -> np.ndarray:
    import numpy as np

    tab = np.cos(2.0 * np.pi * np.arange(n) / n)
    tab.setflags(write=False)
    return tab


def spectrum_trig(spec: IcgSpec) -> np.ndarray:
    """Eigenvalues lambda_j = sum over the connection set of cos(2*pi*j*s/n).

    Returns an index-ordered float array.  Summation order is fixed
    (ascending s), so results are deterministic run to run.
    """
    import numpy as np

    n = spec.n
    if n > TRIG_MAX_N:
        raise ValueError(f"trig oracle limited to n <= {TRIG_MAX_N}, got {n}")
    costab = _costab(n)
    syms = np.array(sorted(symbol_set(spec)), dtype=np.int64)
    out = np.empty(n, dtype=np.float64)
    chunk = max(1, 2_000_000 // max(1, len(syms)))
    for start in range(0, n, chunk):
        js = np.arange(start, min(start + chunk, n), dtype=np.int64)
        out[start : start + len(js)] = costab[(js[:, None] * syms) % n].sum(axis=1)
    return out


@dataclass(frozen=True)
class SpectrumComparison:
    max_deviation: float
    worst_index: int
    ok: bool


def compare_spectra(exact, approx, tol: float = 1e-6) -> SpectrumComparison:
    """Componentwise comparison of an integer spectrum against a float one."""
    import numpy as np

    values = exact.values if isinstance(exact, Spectrum) else tuple(exact)
    if len(values) != len(approx):
        raise ValueError(f"length mismatch: {len(values)} vs {len(approx)}")
    dev = np.abs(np.asarray(values, dtype=np.float64) - np.asarray(approx))
    worst = int(np.argmax(dev))
    return SpectrumComparison(float(dev[worst]), worst, bool(dev[worst] <= tol))


@dataclass(frozen=True)
class OracleReport:
    n: int
    sets: int
    exhaustive: bool
    max_deviation: float
    ok: bool
    failures: tuple[str, ...]


def verify_against_trig(n: int, tol: float = 1e-6, budget: int = 2048) -> OracleReport:
    """Compare exact and trig spectra across divisor subsets of n.

    Exhaustive when n has at most `budget` nonempty subsets; otherwise a
    deterministic sample of `budget` subsets (seeded by n) is used.
    """
    divs = proper_divisors(n)
    total = subset_count(n)
    worst = 0.0
    failures: list[str] = []

    def check(mask: int, vec) -> None:
        nonlocal worst
        spec = IcgSpec(n, mask_divisors(mask, divs))
        cmp = compare_spectra(tuple(int(v) for v in vec), spectrum_trig(spec), tol)
        if cmp.max_deviation > worst:
            worst = cmp.max_deviation
        if not cmp.ok:
            failures.append(spec.canonical())

    if total <= budget:
        for mask, vec in iter_subset_spectra(n):
            check(mask, vec)
        checked, exhaustive = total, True
    else:
        rng = random.Random(n)
        masks = rng.sample(range(1, total + 1), budget)
        for mask in sorted(masks):
            check(mask, spectrum(IcgSpec(n, mask_divisors(mask, divs))).values)
        checked, exhaustive = budget, False

    return OracleReport(n, checked, exhaustive, worst, not failures, tuple(failures))


@dataclass(frozen=True)
class MomentReport:
    n: int
    m: int
    M2: int
    M4: int
    q: int


def moments(spec: IcgSpec) -> MomentReport:
    """Spectral moments M2, M4 and the counts they encode.

    For an r-regular graph, M2 = sum lambda^2 = 2m (twice the edges) and
    M4 = 8q - 2m + 2nr^2 where q is the number of 4-cycles.  Both counts
    are solved for and checked to be consistent integers; a failure here
    would mean the spectrum itself is wrong, so it raises.
    """
    s = spectrum(spec)
    r = s.at(spec.n)
    M2 = s.moment(2)
    M4 = s.moment(4)
    if M2 != spec.n * r:
        raise ArithmeticError(f"moment identity broken: M2={M2} != n*r={spec.n * r}")
    m = M2 // 2
    num = M4 + 2 * m - 2 * spec.n * r * r
    if num % 8 or num < 0:
        raise ArithmeticError(f"4-cycle count from M4 is not a nonnegative integer: {num}/8")
    return MomentReport(spec.n, m, M2, M4, num // 8)


def count_four_cycles(spec: IcgSpec) -> int:
    """4-cycle count straight from the adjacency matrix.

    Every quadrilateral is determined by its two diagonal pairs, so
    q = (1/2) * sum over vertex pairs of C(codegree, 2).
    """
    import numpy as np

    A = adjacency(spec).astype(np.int64)
    codeg = A @ A
    np.fill_diagonal(codeg, 0)
    pairs = codeg * (codeg - 1) // 2
    # pairs.sum() counts ordered diagonal pairs, and each 4-cycle has two of them
    return int(pairs.sum()) // 4


def energy_lower_bounds(spec: IcgSpec) -> tuple[float, int]:
    """Two lower bounds on the energy: the moment bound and the order n.

    The moment bound is M2 * sqrt(M2 / M4); the bound E >= n holds for any
    regular graph of positive degree.
    """
    rep = moments(spec)
    return rep.M2 * sqrt(rep.M2 / rep.M4), spec.n
