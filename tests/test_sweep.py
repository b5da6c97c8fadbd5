"""The blocked divisor-subset enumeration engine."""

import math

import numpy as np
import pytest

from icgraph.arith import divisors, euler_phi
from icgraph.graphs import IcgSpec, class_index, spectrum
from icgraph.sweep import (
    BudgetExceeded,
    check_budget,
    iter_class_blocks,
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
