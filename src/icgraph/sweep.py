"""Exhaustive enumeration of divisor subsets, a block of subsets at a time.

Desk-scale checks (mod-4 sweeps, cospectrality searches, minimum-energy
scans) all walk every nonempty subset of the proper divisors of n.  Spectra
are additive over divisors, and each divisor's contribution is one row of
the tau'(n) x tau(n) table R[i, j] = c(e_j, n/d_i) (proper divisors d_i,
divisors e_j).  So a block of subset masks, written as a 0/1 matrix of
bits, gets the class eigenvalues of all its graphs as one product bits @ R.
Blocks have a fixed number of masks, so memory stays bounded by n.

Everything is deterministic: masks ascend 1, 2, 3, ..., and bit i of a mask
refers to the i-th smallest proper divisor.
"""

from __future__ import annotations

from math import gcd

from .arith import divisors
from .graphs import class_index, divisor_class_row

DEFAULT_BUDGET = 1 << 20
BLOCK = 1024  # masks per block


class BudgetExceeded(RuntimeError):
    """Raised when an exhaustive sweep would enumerate more subsets than allowed."""


def proper_divisors(n: int) -> tuple[int, ...]:
    """Divisors d of n with 1 <= d < n, ascending."""
    return divisors(n)[:-1]


def subset_count(n: int) -> int:
    """Number of nonempty divisor subsets, i.e. 2^tau'(n) - 1."""
    return (1 << len(proper_divisors(n))) - 1


def check_budget(n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Return subset_count(n), raising BudgetExceeded if it is over budget."""
    count = subset_count(n)
    if count > budget:
        raise BudgetExceeded(
            f"n={n} has {count} divisor subsets, over the budget of {budget}"
        )
    return count


def mask_divisors(mask: int, divs: tuple[int, ...]) -> tuple[int, ...]:
    """Decode a bitmask into the divisor subset it names."""
    return tuple(d for i, d in enumerate(divs) if mask >> i & 1)


def iter_class_blocks(n: int, budget: int = DEFAULT_BUDGET):
    """Yield (masks, L) for every nonempty divisor subset of n, BLOCK masks at a time.

    masks is an ascending int64 array; row i of the int64 array L holds the
    class eigenvalues (Spectrum.classes) of ICG_n(D) for
    D = mask_divisors(masks[i], proper_divisors(n)).
    """
    import numpy as np

    total = check_budget(n, budget)
    table = np.array([divisor_class_row(n, d) for d in proper_divisors(n)], dtype=np.int64)
    shifts = np.arange(len(table))
    for lo in range(1, total + 1, BLOCK):
        masks = np.arange(lo, min(lo + BLOCK, total + 1))
        yield masks, (masks[:, None] >> shifts & 1) @ table


def iter_subset_spectra(n: int, budget: int = DEFAULT_BUDGET):
    """Yield (mask, spectrum_vector) for every nonempty divisor subset of n.

    The vector is an int64 array of length n holding the index-ordered
    spectrum of ICG_n(D) for D = mask_divisors(mask, proper_divisors(n)).
    It is reused between yields; callers must copy it to keep it.
    """
    import numpy as np

    index = class_index(n)
    vec = np.empty(n, dtype=np.int64)
    for masks, L in iter_class_blocks(n, budget):
        for mask, row in zip(masks.tolist(), L):
            yield mask, np.take(row, index, out=vec)


def subset_gcd_table(divs: tuple[int, ...]) -> list[int]:
    """gcds of all divisor subsets, indexed by mask (entry 0 is 0).

    table[m] = gcd of the divisors selected by m; a subset is connected as
    an ICG divisor set exactly when its entry is 1.
    """
    table = [0] * (1 << len(divs))
    for mask in range(1, len(table)):
        low = mask & -mask
        table[mask] = gcd(table[mask ^ low], divs[low.bit_length() - 1])
    return table
