"""The blocked divisor-subset enumeration engine."""

import math
import random

import numpy as np
import pytest

from icgraph.arith import divisors, euler_phi
from icgraph.graphs import IcgSpec, class_index, spectrum
from icgraph.sweep import (
    BLOCK,
    DEFAULT_BUDGET,
    LOW_BITS,
    BudgetExceeded,
    check_budget,
    class_block,
    class_table,
    iter_class_blocks,
    low_table,
    mask_bits,
    mask_divisors,
    proper_divisors,
    subset_count,
)


def test_proper_divisors():
    assert proper_divisors(12) == (1, 2, 3, 4, 6)
    assert proper_divisors(2) == (1,)
    assert proper_divisors(97) == (1,)


def test_subset_count():
    assert subset_count(12) == 31
    assert subset_count(48) == 511
    assert subset_count(2) == 1


def test_budget_enforcement():
    assert check_budget(12) == 31
    with pytest.raises(BudgetExceeded):
        check_budget(12, budget=30)
    with pytest.raises(BudgetExceeded):
        list(iter_class_blocks(48, budget=100))


def test_mask_decoding_order():
    divs = proper_divisors(12)
    seen = [mask for masks, _ in iter_class_blocks(12) for mask in masks.tolist()]
    assert seen == list(range(1, 32))  # ascending, no gaps
    assert mask_divisors(1, divs) == (1,)
    assert mask_divisors(0b10110, divs) == (2, 3, 6)


def test_incremental_spectra_match_direct():
    """The blocked class products must reproduce every spectrum exactly."""
    for n in (12, 18, 30, 36):
        divs = proper_divisors(n)
        for masks, L in iter_class_blocks(n):
            for mask, vec in zip(masks.tolist(), L[:, class_index(n)].tolist()):
                expect = spectrum(IcgSpec(n, mask_divisors(mask, divs))).values
                assert tuple(vec) == expect, (n, mask)


def test_gcd_table():
    """The degree class counts components: its eigenvalue's multiplicity is gcd(D).

    min_energy_search reads connectivity from this identity, so it is checked
    for every mask against math.gcd of the divisor set.
    """
    for n in (24, 30, 64, 180):
        divs = proper_divisors(n)
        weights = np.array([euler_phi(n // e) for e in divisors(n)])
        for masks, L in iter_class_blocks(n):
            components = ((L == L[:, -1:]) * weights).sum(axis=1)
            for mask, c in zip(masks.tolist(), components.tolist()):
                assert c == math.gcd(*mask_divisors(mask, divs)), (n, mask)


def test_class_blocks_equal_bits_times_table():
    """Every block of every n <= 400 within the default budget equals bits @ R.

    The orders cover tau'(n) below and above LOW_BITS, so blocks both without
    and with shared high bits are checked; 2^10 is the smallest n with
    tau'(n) = LOW_BITS exactly (tau(n) = 11 needs n = p^10).
    """
    widths = set()
    for n in [*range(2, 401), 2**10]:
        if subset_count(n) > DEFAULT_BUDGET:
            continue
        table = class_table(n)
        widths.add(len(table))
        for masks, L in iter_class_blocks(n):
            assert np.array_equal(L, mask_bits(masks, len(table)) @ table), (n, masks[0])
    assert min(widths) < LOW_BITS < max(widths) and LOW_BITS in widths


@pytest.mark.parametrize("n", [5040, 720720])
def test_class_block_on_sampled_masks_equals_bits_times_table(n):
    """Sampled masks share no high bits; at n = 720720 (tau' = 239) they are Python ints."""
    table = class_table(n)
    rng = random.Random(n)
    edges = [1, BLOCK - 1, BLOCK, BLOCK + 1, (1 << len(table)) - 1]
    masks = sorted(edges + [rng.getrandbits(len(table)) or 1 for _ in range(200)])
    want = mask_bits(masks, len(table)) @ table
    got = class_block(masks, table, low_table(table))
    assert np.array_equal(got, want)
    if len(table) < 63:
        assert np.array_equal(class_block(np.array(masks), table, low_table(table)), want)
