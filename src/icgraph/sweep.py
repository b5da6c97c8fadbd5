"""Exhaustive enumeration of divisor subsets, a block of subsets at a time.

Desk-scale checks (mod-4 sweeps, cospectrality searches, minimum-energy
scans) all walk every nonempty subset of the proper divisors of n.  Spectra
are additive over divisors, and each divisor's contribution is one row of
the tau'(n) x tau(n) table R[i, j] = c(e_j, n/d_i) (proper divisors d_i,
divisors e_j).  R is cut into digits of LOW_BITS rows, and digit table k,
built once per n, holds the sum of the R rows of every combination of the
divisors in digit k.  The class eigenvalues of any mask are the sum, over
k, of row (mask >> k * LOW_BITS) & (BLOCK - 1) of digit table k.  Blocks
have at most BLOCK masks and start at multiples of BLOCK, so the masks of a
block share every digit but the lowest: the class eigenvalues of a block
are a slice of digit table 0 plus one row per higher digit, with no
per-set product.  Memory stays bounded by one block and the digit tables:
the enumeration keeps nothing per set beyond the block.

Everything is deterministic: masks ascend 1, 2, 3, ..., and bit i of a mask
refers to the i-th smallest proper divisor.  divisor_mask is the one encoder
of that rule and mask_divisors its decoder; a mask is a Python int of any size.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .arith import TABLE_CACHE_SIZE, divisors, ramanujan_totals

if TYPE_CHECKING:
    import numpy as np

DEFAULT_BUDGET = 1 << 20
BLOCK = 1024  # masks per block
LOW_BITS = BLOCK.bit_length() - 1  # the masks of one block differ only in these bits


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


def divisor_mask(n: int, divisor_set) -> int:
    """The mask of a set of proper divisors of n; mask_divisors inverts it."""
    divs = proper_divisors(n)
    mask = 0
    for d in set(divisor_set):
        if d not in divs:
            raise ValueError(f"{d!r} is not a proper divisor of n={n}")
        mask |= 1 << divs.index(d)
    return mask


def class_table(n: int) -> np.ndarray:
    """The int64 table R[i, j] = c(e_j, n/d_i): one ramanujan_totals row per proper divisor d_i."""
    import numpy as np

    if n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    divs = divisors(n)
    return np.array([ramanujan_totals(divs, (n // d,), n) for d in divs[:-1]], dtype=np.int64)


def digit_tables(n: int) -> list[np.ndarray]:
    """The digit tables of n, one per LOW_BITS rows of class_table(n).

    Row m of table k is the sum of the class_table rows k * LOW_BITS + i for
    the bits i of m.  Table k has 2^r rows, r <= LOW_BITS the number of
    class_table rows in digit k, built in r doubling steps.
    """
    import numpy as np

    table = class_table(n)
    tables = []
    for first in range(0, len(table), LOW_BITS):
        digit = table[first : first + LOW_BITS]
        t = np.zeros((1 << len(digit), table.shape[1]), dtype=np.int64)
        for i, row in enumerate(digit):
            t[1 << i : 2 << i] = t[: 1 << i] + row
        tables.append(t)
    return tables


def class_block(masks, tables: list[np.ndarray]) -> np.ndarray:
    """Class eigenvalues of the graphs named by masks, one row per mask.

    Row i is the sum, over digits k, of row (masks[i] >> k * LOW_BITS) & (BLOCK - 1)
    of tables[k]; tables is digit_tables(n).  masks is any sequence of masks:
    Python ints of any size, or an int64 array.
    """
    return sum(t[[m >> k * LOW_BITS & (BLOCK - 1) for m in masks]] for k, t in enumerate(tables))


def iter_class_blocks(n: int, budget: int = DEFAULT_BUDGET):
    """Yield (masks, L) for every nonempty divisor subset of n, BLOCK masks at a time.

    masks is an ascending int64 array of the masks in [k * BLOCK, (k + 1) * BLOCK)
    for one k (mask 0, the empty set, is left out); row i of the int64 array
    L holds the class eigenvalues (Spectrum.classes) of ICG_n(D) for
    D = mask_divisors(masks[i], proper_divisors(n)).  L is the slice of digit
    table 0 for the block's lowest digit plus, as in class_block, one row of
    each higher digit table for the digits of k * BLOCK that the block shares.
    """
    import numpy as np

    total = check_budget(n, budget)
    low, *high = digit_tables(n)
    for lo in range(0, total + 1, BLOCK):
        start, stop = lo or 1, min(lo + BLOCK, total + 1)
        shared = sum(t[lo >> k * LOW_BITS & (BLOCK - 1)] for k, t in enumerate(high, 1))
        yield np.arange(start, stop), low[start - lo : stop - lo] + shared


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _low_texts(divs: tuple[int, ...]) -> tuple[str, ...]:
    """The text d1,d2,... of the divisors each mask selects, by mask; built like a digit table."""
    texts = [""]
    for d in map(str, divs):
        texts += [f"{t},{d}" if t else d for t in texts]
    return tuple(texts)


def spec_names(n: int, masks) -> list[str]:
    """Canonical text "n:d1,d2,..." of the divisor set of each mask of one block.

    The masks must share their bits above the low LOW_BITS, as any subset of
    one iter_class_blocks block does (none: no names).  The text of the low
    bits comes from a table of 2^LOW_BITS strings per n, the high bits once.
    """
    if not len(masks):
        return []
    divs = proper_divisors(n)
    low = _low_texts(divs[:LOW_BITS])
    lows = (masks & (BLOCK - 1)).tolist()
    high = ",".join(map(str, mask_divisors(int(masks[0]) >> LOW_BITS, divs[LOW_BITS:])))
    head = f"{n}:"
    if not high:
        return [head + low[m] for m in lows]
    return [f"{head}{low[m]},{high}" if m else head + high for m in lows]
