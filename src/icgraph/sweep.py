"""Exhaustive enumeration of divisor subsets, a block of subsets at a time.

Desk-scale checks (mod-4 sweeps, cospectrality searches, minimum-energy
scans) all walk every nonempty subset of the proper divisors of n.  Spectra
are additive over divisors, and each divisor's contribution is one row of
the tau'(n) x tau(n) table R[i, j] = c(e_j, n/d_i) (proper divisors d_i,
divisors e_j).  The low table T_low, built once per n, holds the sum of the
R rows of every combination of the first LOW_BITS divisors.  Blocks have at
most BLOCK masks and start at multiples of BLOCK, so the masks of a block
share every bit above the low LOW_BITS: the class eigenvalues of a block
are a slice of T_low plus one row for the shared high bits, with no
per-set product.  Memory stays bounded by one block: the enumeration keeps
nothing per set beyond it.

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


def mask_bits(masks, width: int) -> np.ndarray:
    """0/1 uint8 matrix whose row i holds bits 0..width-1 of masks[i].

    masks is any sequence of masks: Python ints of any size, or an int64 array.
    """
    import numpy as np

    nbytes = (width + 7) // 8
    raw = np.frombuffer(b"".join(int(m).to_bytes(nbytes, "little") for m in masks), np.uint8)
    return np.unpackbits(raw.reshape(-1, nbytes), axis=1, count=width, bitorder="little")


def class_table(n: int) -> np.ndarray:
    """The int64 table R[i, j] = c(e_j, n/d_i): one ramanujan_totals row per proper divisor d_i."""
    import numpy as np

    if n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    divs = divisors(n)
    return np.array([ramanujan_totals(divs, (n // d,), n) for d in divs[:-1]], dtype=np.int64)


def low_table(table: np.ndarray) -> np.ndarray:
    """T_low: row m is the sum of the rows table[i] for the bits i of m.

    table is class_table(n).  The 2^min(tau'(n), LOW_BITS) rows are built in
    as many doubling steps as there are bits.
    """
    import numpy as np

    bits = min(len(table), LOW_BITS)
    low = np.zeros((1 << bits, table.shape[1]), dtype=np.int64)
    for i in range(bits):
        low[1 << i : 2 << i] = low[: 1 << i] + table[i]
    return low


def class_block(masks, table: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Class eigenvalues of the graphs named by masks, one row per mask.

    Row i is low[masks[i] & (BLOCK - 1)] plus the rows of table for the bits
    of masks[i] above LOW_BITS.  table is class_table(n), low is
    low_table(table); masks is any sequence of masks, as for mask_bits.
    """
    rows = low[[m & (BLOCK - 1) for m in masks]]
    if len(table) > LOW_BITS:
        rows += mask_bits([m >> LOW_BITS for m in masks], len(table) - LOW_BITS) @ table[LOW_BITS:]
    return rows


def iter_class_blocks(n: int, budget: int = DEFAULT_BUDGET):
    """Yield (masks, L) for every nonempty divisor subset of n, BLOCK masks at a time.

    masks is an ascending int64 array of the masks in [k * BLOCK, (k + 1) * BLOCK)
    for one k (mask 0, the empty set, is left out); row i of the int64 array
    L holds the class eigenvalues (Spectrum.classes) of ICG_n(D) for
    D = mask_divisors(masks[i], proper_divisors(n)).  L is the slice of the
    low table for the block's low bits plus class_block of the block's
    first mask k * BLOCK, whose low bits are all zero.
    """
    import numpy as np

    total = check_budget(n, budget)
    table = class_table(n)
    low = low_table(table)
    for lo in range(0, total + 1, BLOCK):
        start, stop = lo or 1, min(lo + BLOCK, total + 1)
        yield np.arange(start, stop), low[start - lo : stop - lo] + class_block([lo], table, low)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _low_texts(divs: tuple[int, ...]) -> tuple[str, ...]:
    """The text d1,d2,... of the divisors each mask selects, by mask; built like low_table."""
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
