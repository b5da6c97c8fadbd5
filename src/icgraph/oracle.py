"""Independent cross-checks for the exact spectra.

Two consistency routes that do not share code with the Ramanujan-sum path:

* a trigonometric oracle: a circulant is diagonalised by the DFT, so the
  eigenvalues of ICG_n(D) are the FFT of the 0/1 indicator of its
  connection set {k : gcd(k, n) in D} (R. M. Gray, Toeplitz and Circulant
  Matrices: A Review, 2006); and
* spectral-moment identities that tie the spectrum back to countable graph
  structure: edges, and 4-cycles counted from the exact integer cyclic
  autocorrelation of the same indicator.

Neither route calls a Ramanujan sum, graphs.spectrum or the divisor-class
tables.  verify_against_trig checks the class eigenvalues that the sweeps
themselves read, a bounded block of divisor sets at a time:
sweep.class_block takes each set's low bits from the low table
(sweep.low_table) that the sweeps slice, and adds the class_table rows of
its high bits.  The trig oracle is floating point, so comparisons carry an
explicit tolerance; everything else is exact integer arithmetic.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from math import sqrt
from typing import TYPE_CHECKING

from .graphs import IcgSpec, class_index, spectrum
from .sweep import (
    BLOCK,
    class_block,
    class_table,
    low_table,
    mask_bits,
    mask_divisors,
    proper_divisors,
    subset_count,
)

if TYPE_CHECKING:
    import numpy as np

TRIG_MAX_N = 100_000
FFT_CELLS = 1 << 14  # rows x n of one FFT block in verify_against_trig


def _spec_mask(spec: IcgSpec) -> int:
    divs = proper_divisors(spec.n)
    return sum(1 << divs.index(d) for d in spec.divisors)


def _indicators(n: int, masks) -> np.ndarray:
    """0/1 rows: entry k of row i is 1 when gcd(k, n) is a divisor named by masks[i]."""
    import numpy as np

    divs = proper_divisors(n)
    slot = np.zeros(n + 1, dtype=np.intp)  # slot 0: gcd(0, n) = n, never in D
    slot[list(divs)] = np.arange(1, len(divs) + 1)
    bits = np.zeros((len(masks), len(divs) + 1), dtype=np.uint8)
    bits[:, 1:] = mask_bits(masks, len(divs))
    return bits[:, slot[np.gcd(np.arange(n), n)]]


def check_trig_n(n: int) -> None:
    """Raise ValueError when n is too large for the trig oracle."""
    if n > TRIG_MAX_N:
        raise ValueError(f"trig oracle limited to n <= {TRIG_MAX_N}, got {n}")


def _trig_block(n: int, masks) -> np.ndarray:
    """Index-ordered eigenvalues of ICG_n(D) for each mask, as float rows (the DFT)."""
    import numpy as np

    check_trig_n(n)
    return np.fft.fft(_indicators(n, masks), axis=1).real


def spectrum_trig(spec: IcgSpec) -> np.ndarray:
    """Eigenvalues lambda_j = sum over the connection set S of cos(2*pi*j*s/n).

    Computed as the FFT of the indicator of S; returns an index-ordered
    float array, the same run to run.
    """
    return _trig_block(spec.n, [_spec_mask(spec)])[0]


@dataclass(frozen=True)
class SpectrumComparison:
    max_deviation: float
    worst_index: int
    ok: bool


def compare_spectra(exact, approx, tol: float = 1e-6) -> SpectrumComparison:
    """Componentwise comparison of an integer spectrum against a float one."""
    import numpy as np

    values = tuple(exact)
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
    worst_spec: str | None  # the graph and eigenvalue index where max_deviation occurs
    worst_index: int


def _sample_masks(n: int, total: int, budget: int) -> list[int]:
    """budget distinct masks in 1..total, ascending, drawn by random.Random(n)."""
    rng = random.Random(n)
    if total <= sys.maxsize:
        return sorted(rng.sample(range(1, total + 1), budget))
    # len(range) overflows here; draw as random.sample does for large populations
    picked: set[int] = set()
    while len(picked) < budget:
        picked.add(rng.randrange(1, total + 1))
    return sorted(picked)


def verify_against_trig(n: int, tol: float = 1e-6, budget: int = 2048) -> OracleReport:
    """Compare exact and trig spectra across divisor subsets of n.

    Exhaustive when n has at most `budget` nonempty subsets; otherwise a
    deterministic sample of `budget` subsets (seeded by n) is used.  The
    masks go in parts of at most BLOCK masks and FFT_CELLS cells; the exact
    side of a part is its class-eigenvalue block, expanded to index order,
    and the trig side is one FFT.
    """
    import numpy as np

    divs = proper_divisors(n)
    total = subset_count(n)
    exhaustive = total <= budget
    masks = np.arange(1, total + 1) if exhaustive else _sample_masks(n, total, budget)
    table = class_table(n)
    low = low_table(table)

    def name(mask) -> str:
        return IcgSpec(n, mask_divisors(int(mask), divs)).canonical()

    index = class_index(n)
    rows = min(BLOCK, max(1, FFT_CELLS // n))
    worst, worst_spec, worst_index = 0.0, None, 0
    failures: list[str] = []
    for lo in range(0, len(masks), rows):
        part = masks[lo : lo + rows]
        dev = np.abs(class_block(part, table, low)[:, index] - _trig_block(n, part))
        cols = dev.argmax(axis=1)
        row_dev = dev[np.arange(len(cols)), cols]
        r = int(row_dev.argmax())
        if row_dev[r] > worst or worst_spec is None:
            worst, worst_spec, worst_index = float(row_dev[r]), name(part[r]), int(cols[r])
        failures += [name(part[r]) for r in np.flatnonzero(~(row_dev <= tol))]

    return OracleReport(n, len(masks), exhaustive, worst, not failures, tuple(failures),
                        worst_spec, worst_index)


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
    """4-cycle count from the connection set S, in exact integers.

    Every quadrilateral is determined by its two diagonal pairs, so
    q = (1/2) * sum over vertex pairs of C(codegree, 2).  Vertices a and
    a + j have c_j = |S & (S + j)| common neighbours, the cyclic
    autocorrelation of the indicator of S, so q = n * sum_{j != 0} C(c_j, 2) / 4.
    """
    import numpy as np

    x = _indicators(spec.n, [_spec_mask(spec)])[0].astype(np.int64)
    c = np.correlate(np.concatenate((x, x)), x, "valid")[1 : spec.n]
    return spec.n * int((c * (c - 1) // 2).sum()) // 4


def energy_lower_bounds(spec: IcgSpec) -> tuple[float, int]:
    """Two lower bounds on the energy: the moment bound and the order n.

    The moment bound is M2 * sqrt(M2 / M4); the bound E >= n holds for any
    regular graph of positive degree.
    """
    rep = moments(spec)
    return rep.M2 * sqrt(rep.M2 / rep.M4), spec.n
