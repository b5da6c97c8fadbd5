"""The blocked divisor-subset enumeration engine."""

import math

import numpy as np
import pytest

from icgraph.graphs import IcgSpec, spectrum
from icgraph.sweep import (
    BudgetExceeded,
    check_budget,
    iter_subset_spectra,
    mask_divisors,
    proper_divisors,
    subset_count,
    subset_gcd_table,
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
        list(iter_subset_spectra(48, budget=100))


def test_mask_decoding_order():
    divs = proper_divisors(12)
    seen = [mask for mask, _ in iter_subset_spectra(12)]
    assert seen == list(range(1, 32))  # ascending, no gaps
    assert mask_divisors(1, divs) == (1,)
    assert mask_divisors(0b10110, divs) == (2, 3, 6)


def test_incremental_spectra_match_direct():
    """The blocked class products must reproduce every spectrum exactly."""
    for n in (12, 18, 30, 36):
        divs = proper_divisors(n)
        for mask, vec in iter_subset_spectra(n):
            expect = spectrum(IcgSpec(n, mask_divisors(mask, divs))).values
            assert tuple(int(v) for v in vec) == expect, (n, mask)


def test_gcd_table():
    for n in (24, 30):
        divs = proper_divisors(n)
        table = subset_gcd_table(divs)
        assert table[0] == 0
        for mask in range(1, 1 << len(divs)):
            assert table[mask] == math.gcd(*mask_divisors(mask, divs), 0), (n, mask)


def test_yielded_vector_is_reused():
    # documented sharp edge: the array is a buffer, not a fresh copy
    it = iter_subset_spectra(6)
    _, first = next(it)
    snapshot = first.copy()
    _, second = next(it)
    assert second is first
    assert not np.array_equal(snapshot, first)
