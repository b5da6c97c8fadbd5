"""The blocked divisor-subset enumeration engine."""

import math
import random

import numpy as np
import pytest

from icgraph.arith import divisors, euler_phi
from icgraph.energy import mod4_sweep
from icgraph.families import min_energy_search, so_conjecture_check
from icgraph.graphs import IcgSpec, class_index, spectrum
from icgraph.oracle import mask_bits, verify_against_trig
from icgraph.sweep import (
    BLOCK,
    DEFAULT_BUDGET,
    LOW_BITS,
    BudgetExceeded,
    check_budget,
    class_block,
    class_table,
    digit_tables,
    divisor_mask,
    iter_class_blocks,
    mask_divisors,
    proper_divisors,
    subset_count,
)


def test_class_table_rows_sum_to_the_complete_graph():
    # D = every proper divisor is K_n, with class eigenvalues r = (-1, ..., -1, n - 1),
    # so L(D) + L(complement of D) = r for every D; within one digit table, row m
    # plus row (all bits) ^ m is the sum of that digit's class rows
    for n in range(2, 3001):
        r = [-1] * len(divisors(n))
        r[-1] = n - 1
        table = class_table(n)
        assert table.sum(axis=0).tolist() == r, n
        for k, t in enumerate(digit_tables(n)):
            digit_sum = table[k * LOW_BITS : (k + 1) * LOW_BITS].sum(axis=0)
            assert ((t + t[::-1]) == digit_sum).all(), (n, k)


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


def test_divisor_mask_inverts_mask_divisors():
    """Every divisor set of a few n: the encoder and the decoder are inverse."""
    for n in (2, 12, 30, 64, 96):
        divs = proper_divisors(n)
        for mask in range(1, subset_count(n) + 1):
            ds = mask_divisors(mask, divs)
            assert divisor_mask(n, ds) == mask, (n, mask)
    assert divisor_mask(12, (6, 2, 3)) == divisor_mask(12, (6, 2, 3, 2)) == 0b10110
    with pytest.raises(ValueError):
        divisor_mask(12, (5,))


def test_divisor_mask_names_a_non_divisor():
    for d in (5, 12, 0, 24):
        with pytest.raises(ValueError, match=rf"{d} is not a proper divisor of n=12"):
            divisor_mask(12, (1, d, 6))


def test_divisor_mask_beyond_64_bits():
    """At n = 720720 (tau' = 239) the masks of seeded random sets are Python ints past 64 bits."""
    n = 720720
    divs = proper_divisors(n)
    rng = random.Random(n)
    sets = [divs, divs[-1:]] + [
        tuple(sorted(rng.sample(divs, rng.randint(1, len(divs))))) for _ in range(200)
    ]
    masks = [divisor_mask(n, ds) for ds in sets]
    assert [mask_divisors(m, divs) for m in masks] == sets
    assert masks[0] == (1 << 239) - 1 and masks[1] == 1 << 238


@pytest.mark.parametrize(
    "search", [so_conjecture_check, verify_against_trig, mod4_sweep, min_energy_search]
)
def test_range_entry_points_reject_n_below_2(search):
    with pytest.raises(ValueError, match=r"^n must be an integer >= 2, got 1$"):
        search(1)


def test_incremental_spectra_match_direct():
    """The blocked class products must reproduce every spectrum exactly.

    60 and 72 have tau' = 11 > LOW_BITS, so their second block carries a
    row of the second digit table on top of the slice of the first.
    """
    for n in (12, 18, 30, 36, 60, 72):
        divs = proper_divisors(n)
        for masks, L in iter_class_blocks(n):
            for mask, vec in zip(masks.tolist(), L[:, class_index(n)].tolist()):
                expect = spectrum(IcgSpec(n, mask_divisors(mask, divs))).values
                assert tuple(vec) == expect, (n, mask)


def test_gcd_table():
    """The degree class counts components: its eigenvalue's multiplicity is gcd(D).

    This is the spectral form of the component theorem (graphs.connectivity
    says gcd(D) components), checked for every mask against math.gcd of the
    divisor set.
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
    tau'(n) = LOW_BITS exactly (tau(n) = 11 needs n = p^10).  3072 = 2^10 * 3
    (tau' = 21) has the fewest divisor sets of any n whose masks reach a
    third digit table.
    """
    widths = set()
    budgets = {n: DEFAULT_BUDGET for n in [*range(2, 401), 2**10]} | {3072: (1 << 21) - 1}
    for n, budget in budgets.items():
        if subset_count(n) > budget:
            continue
        table = class_table(n)
        w = len(table)
        widths.add(w)
        for masks, L in iter_class_blocks(n, budget):
            assert np.array_equal(L, ((masks[:, None] >> np.arange(w)) & 1) @ table), (n, masks[0])
    assert min(widths) < LOW_BITS < max(widths) and LOW_BITS in widths
    assert max(widths) > 2 * LOW_BITS


@pytest.mark.parametrize("n", [5040, 720720])
def test_class_block_on_sampled_masks_equals_bits_times_table(n):
    """Sampled masks share no high bits; at n = 720720 (tau' = 239) they are Python ints."""
    table = class_table(n)
    rng = random.Random(n)
    edges = [1, BLOCK - 1, BLOCK, BLOCK + 1, (1 << len(table)) - 1]
    masks = sorted(edges + [rng.getrandbits(len(table)) or 1 for _ in range(200)])
    want = mask_bits(masks, len(table)) @ table
    tables = digit_tables(n)
    assert np.array_equal(class_block(masks, tables), want)
    if len(table) < 63:
        assert np.array_equal(class_block(np.array(masks), tables), want)


def test_class_block_takes_one_mask_type_in_any_container():
    """A range, a list and an int64 array of the same masks give the same rows.

    n = 5040 has 59 proper divisors, so the masks have high bits above LOW_BITS
    and still fit int64; the window crosses a block boundary.
    """
    n = 5040
    table = class_table(n)
    tables = digit_tables(n)
    masks = range((1 << 58) - 700, (1 << 58) + 700, 3)
    want = mask_bits(list(masks), len(table)) @ table
    for given in (masks, list(masks), np.array(masks, dtype=np.int64)):
        assert np.array_equal(mask_bits(given, len(table)), mask_bits(list(masks), len(table)))
        assert np.array_equal(class_block(given, tables), want)


@pytest.mark.parametrize("width", [1, 10, 62, 64, 127, 239])
def test_mask_bits_reads_bit_j_of_mask_i(width):
    """Entry [i, j] of mask_bits is bit j of masks[i], whatever holds the masks.

    Up to 62 bits the masks also go in as an int64 array; from 64 bits on
    they are Python ints too wide for int64.
    """
    rng = random.Random(width)
    top = (1 << width) - 1
    masks = sorted({0, 1, top, 1 << (width - 1), *(rng.getrandbits(width) for _ in range(60))})
    step = max(1, top // 50)
    given = [masks, range(top % step, top + 1, step)]
    if width <= 62:
        given.append(np.array(masks, dtype=np.int64))
    for ms in given:
        bits = mask_bits(ms, width)
        assert bits.dtype == np.uint8 and bits.shape == (len(ms), width)
        want = [[(int(m) >> j) & 1 for j in range(width)] for m in ms]
        assert bits.tolist() == want, (width, type(ms))
