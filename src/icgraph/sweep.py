"""Exhaustive enumeration of divisor subsets, a block of subsets at a time.

Desk-scale checks (mod-4 sweeps, cospectrality searches, minimum-energy
scans) all walk every nonempty subset of the proper divisors of n.  Spectra
are additive over divisors, and each divisor's contribution is one row of
the tau'(n) x tau(n) table R[i, j] = c(e_j, n/d_i) (proper divisors d_i,
divisors e_j).  So a block of subset masks, written as a 0/1 matrix of
bits, gets the class eigenvalues of all its graphs as one product bits @ R.
Blocks have at most BLOCK masks and start at multiples of BLOCK, so the
masks of a block share every bit above the low LOW_BITS, and memory stays
bounded by one block: the enumeration keeps nothing per set beyond it.

Everything is deterministic: masks ascend 1, 2, 3, ..., and bit i of a mask
refers to the i-th smallest proper divisor.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .arith import divisors
from .graphs import divisor_class_row

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


def mask_bits(masks, width: int) -> np.ndarray:
    """0/1 uint8 matrix whose row i holds bits 0..width-1 of masks[i].

    masks is an int64 array, or a sequence of Python ints of any size (a
    sampled mask of n with tau'(n) >= 64 proper divisors needs 64+ bits).
    """
    import numpy as np

    nbytes = (width + 7) // 8
    if isinstance(masks, np.ndarray):
        raw = masks.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :nbytes]
    else:
        raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), np.uint8)
    return np.unpackbits(raw.reshape(-1, nbytes), axis=1, count=width, bitorder="little")


def class_table(n: int) -> np.ndarray:
    """The int64 table R[i, j] = c(e_j, n/d_i): row i is divisor_class_row(n, d_i)."""
    import numpy as np

    return np.array([divisor_class_row(n, d) for d in proper_divisors(n)], dtype=np.int64)


def class_block(masks, table: np.ndarray) -> np.ndarray:
    """Class eigenvalues of the graphs named by masks: bits @ R, one row per mask.

    table is class_table(n); masks is anything mask_bits accepts.
    """
    return mask_bits(masks, len(table)) @ table


def iter_class_blocks(n: int, budget: int = DEFAULT_BUDGET):
    """Yield (masks, L) for every nonempty divisor subset of n, BLOCK masks at a time.

    masks is an ascending int64 array of the masks in [k * BLOCK, (k + 1) * BLOCK)
    for one k (mask 0, the empty set, is left out); row i of the int64 array
    L holds the class eigenvalues (Spectrum.classes) of ICG_n(D) for
    D = mask_divisors(masks[i], proper_divisors(n)).
    """
    import numpy as np

    total = check_budget(n, budget)
    table = class_table(n)
    for lo in range(0, total + 1, BLOCK):
        masks = np.arange(lo or 1, min(lo + BLOCK, total + 1))
        yield masks, class_block(masks, table)


@lru_cache(maxsize=8)
def _low_texts(divs: tuple[int, ...]) -> tuple[str, ...]:
    """The text d1,d2,... of the divisors each mask selects, by mask (entry 0 is "")."""
    texts = [""] * (1 << len(divs))
    for mask in range(1, len(texts)):
        low = mask & -mask
        rest = texts[mask ^ low]
        d = str(divs[low.bit_length() - 1])
        texts[mask] = f"{d},{rest}" if rest else d
    return tuple(texts)


def spec_names(n: int, masks) -> list[str]:
    """Canonical text "n:d1,d2,..." of the divisor set of each mask of one block.

    The masks must share their bits above the low LOW_BITS, as the masks of
    one iter_class_blocks block do.  The text of the low bits comes from a
    table of 2^LOW_BITS strings per n, the high bits are written once.
    """
    divs = proper_divisors(n)
    low = _low_texts(divs[:LOW_BITS])
    lows = (masks & (BLOCK - 1)).tolist()
    high = ",".join(map(str, mask_divisors(int(masks[0]) >> LOW_BITS, divs[LOW_BITS:])))
    head = f"{n}:"
    if not high:
        return [head + low[m] for m in lows]
    return [f"{head}{low[m]},{high}" if m else head + high for m in lows]
