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
tables, and a single graph's indicator is read from gcd(k, n) and D alone,
without the per-n divisor table (arith.phi_mu_table) that lists the
divisors of n.  verify_against_trig checks the class eigenvalues that the
sweeps themselves read, a bounded block of divisor sets at a time.  A set
travels as its mask (sweep.divisor_mask), a Python int of any size; the
exact side is sweep.class_block, one row of each digit table
(sweep.digit_tables) that the sweeps slice, and the trig side decodes the
same mask with its own mask_bits.  The trig oracle is floating point, so
comparisons carry an explicit tolerance; everything else is exact integer
arithmetic.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from math import sqrt
from typing import TYPE_CHECKING

from .graphs import IcgSpec, class_index, spectrum
from .sweep import class_block, digit_tables, mask_divisors, proper_divisors, subset_count

if TYPE_CHECKING:
    import numpy as np

TRIG_MAX_N = 100_000
FFT_CELLS = 1 << 14  # rows x n of one FFT block in verify_against_trig


def mask_bits(masks, width: int) -> np.ndarray:
    """0/1 uint8 matrix whose row i holds bits 0..width-1 of masks[i].

    masks is any sequence of masks: Python ints of any size, or an int64 array.
    """
    import numpy as np

    nbytes = (width + 7) // 8
    raw = np.frombuffer(b"".join(int(m).to_bytes(nbytes, "little") for m in masks), np.uint8)
    return np.unpackbits(raw.reshape(-1, nbytes), axis=1, count=width, bitorder="little")


def _indicators(n: int, masks) -> np.ndarray:
    """0/1 rows: entry k of row i is 1 when gcd(k, n) is a divisor named by masks[i]."""
    import numpy as np

    divs = proper_divisors(n)
    slot = np.zeros(n + 1, dtype=np.intp)  # slot 0: gcd(0, n) = n, never in D
    slot[list(divs)] = np.arange(1, len(divs) + 1)
    bits = np.zeros((len(masks), len(divs) + 1), dtype=np.uint8)
    bits[:, 1:] = mask_bits(masks, len(divs))
    return bits[:, slot[np.gcd(np.arange(n), n)]]


def _indicator(spec: IcgSpec) -> np.ndarray:
    """The 0/1 row of ICG_n(D) alone, from gcd(k, n) and D, with no divisor list of n."""
    import numpy as np

    return np.isin(np.gcd(np.arange(spec.n), spec.n), spec.divisors).astype(np.uint8)


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
    import numpy as np

    check_trig_n(spec.n)
    return np.fft.fft(_indicator(spec)).real


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
    masks go in parts of max(1, FFT_CELLS // n); the exact side of a part
    is its class-eigenvalue block in index order, the trig side one FFT.
    Sets are named through IcgSpec, not the sweep's text tables.  Raises
    ValueError when budget < 1 or when n is too large for the trig oracle,
    before any table is built.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    check_trig_n(n)
    import numpy as np

    divs = proper_divisors(n)
    total = subset_count(n)
    exhaustive = total <= budget
    masks = range(1, total + 1) if exhaustive else _sample_masks(n, total, budget)
    tables = digit_tables(n)

    def name(mask: int) -> str:
        return IcgSpec(n, mask_divisors(mask, divs)).canonical()

    index = class_index(n)
    rows = max(1, FFT_CELLS // n)
    worst, worst_spec, worst_index = 0.0, None, 0
    failures: list[str] = []
    for lo in range(0, len(masks), rows):
        part = masks[lo : lo + rows]
        dev = np.abs(class_block(part, tables)[:, index] - _trig_block(n, part))
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

    x = _indicator(spec).astype(np.int64)
    c = np.correlate(np.concatenate((x, x)), x, "valid")[1 : spec.n]
    return spec.n * int((c * (c - 1) // 2).sum()) // 4


def energy_lower_bounds(spec: IcgSpec) -> tuple[float, int]:
    """Two lower bounds on the energy: the moment bound and the order n.

    The moment bound is M2 * sqrt(M2 / M4); the bound E >= n holds for any
    regular graph of positive degree.
    """
    rep = moments(spec)
    return rep.M2 * sqrt(rep.M2 / rep.M4), spec.n
