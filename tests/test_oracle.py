"""Floating-point oracle, moment identities, and lower bounds."""

import random
import sys
from math import gcd

import numpy as np
import pytest

from icgraph import arith, graphs, oracle, sweep
from icgraph.arith import divisors
from icgraph.graphs import IcgSpec, adjacency, spectrum
from icgraph.oracle import (
    _sample_masks,
    compare_spectra,
    count_four_cycles,
    energy_lower_bounds,
    moments,
    spectrum_trig,
    verify_against_trig,
)
from icgraph.sweep import BLOCK, mask_divisors, proper_divisors, subset_count


def test_spectrum_trig_anchors():
    approx = spectrum_trig(IcgSpec(4, (1,)))
    assert np.allclose(approx, [2, 0, -2, 0], atol=1e-9)
    approx = spectrum_trig(IcgSpec(6, (1, 3)))
    assert np.allclose(approx, [3, 0, 0, -3, 0, 0], atol=1e-9)
    assert np.allclose(spectrum_trig(IcgSpec(2, (1,))), [1, -1], atol=1e-9)


def test_oracle_is_independent_of_the_exact_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle used the exact path")

    exact = (
        arith.ramanujan,
        arith.ramanujan_totals,
        arith.phi_mu_table,
        graphs.spectrum,
        graphs.class_index,
    )
    for mod in [m for name, m in sys.modules.items() if name.startswith("icgraph")]:
        for attr, value in list(vars(mod).items()):
            if any(value is f for f in exact):
                monkeypatch.setattr(mod, attr, refuse)
    test_spectrum_trig_anchors()
    assert count_four_cycles(IcgSpec(4, (1,))) == 1
    assert count_four_cycles(IcgSpec(6, (1, 3))) == 9
    assert count_four_cycles(IcgSpec(30, (2, 3))) > 0


def test_spectrum_trig_guard():
    with pytest.raises(ValueError):
        spectrum_trig(IcgSpec(100_002, (1,)))


def test_verify_against_trig_rejects_a_large_n_before_any_table(monkeypatch):
    def refuse(n):
        raise AssertionError(f"digit_tables({n}) built for an n the oracle rejects")

    monkeypatch.setattr(oracle, "digit_tables", refuse)
    with pytest.raises(ValueError, match=r"^trig oracle limited to n <= 100000, got 100002$"):
        verify_against_trig(100_002)


def test_compare_spectra():
    r = compare_spectra((2, 0, -2, 0), np.array([2.0, 0.0, -2.0, 0.0]))
    assert r.ok and r.max_deviation == 0.0
    r = compare_spectra((2, 0, -2, 0), np.array([2.0, 0.5, -2.0, 0.0]), tol=1e-6)
    assert not r.ok and r.worst_index == 1 and r.max_deviation == 0.5
    with pytest.raises(ValueError):
        compare_spectra((1, -1), np.array([1.0]))


def test_both_paths_agree_spot():
    for spec in (IcgSpec(9, (1,)), IcgSpec(30, (2, 3)), IcgSpec(97, (1,))):
        r = compare_spectra(spectrum(spec).values, spectrum_trig(spec), tol=1e-6)
        assert r.ok, (spec, r)


def test_moments_anchors():
    r = moments(IcgSpec(4, (1,)))
    assert (r.M2, r.M4, r.m, r.q) == (8, 32, 4, 1)
    r = moments(IcgSpec(2, (1,)))
    assert (r.M2, r.M4, r.m, r.q) == (2, 2, 1, 0)
    r = moments(IcgSpec(6, (1, 3)))
    assert (r.M2, r.M4, r.m, r.q) == (18, 162, 9, 9)


def test_m2_is_n_times_degree():
    for spec in (IcgSpec(30, (2, 3)), IcgSpec(36, (1, 4)), IcgSpec(60, (1, 5, 12))):
        r = moments(spec)
        assert r.M2 == spec.n * spectrum(spec).values[0]
        assert r.M2 == 2 * r.m


def test_four_cycle_count_matches_moment_identity():
    assert count_four_cycles(IcgSpec(4, (1,))) == 1  # C_4
    assert count_four_cycles(IcgSpec(6, (1, 3))) == 9  # K_{3,3}
    for spec in (
        IcgSpec(10, (1, 2)),
        IcgSpec(12, (3, 4)),
        IcgSpec(21, (1, 3)),
        IcgSpec(24, (1, 2, 3, 4)),
    ):
        assert count_four_cycles(spec) == moments(spec).q, spec


def _dense_four_cycles(spec):
    """Reference count: q = (1/2) sum over vertex pairs of C(codegree, 2), via A @ A."""
    A = adjacency(spec).astype(np.int64)
    codeg = A @ A
    np.fill_diagonal(codeg, 0)
    return int((codeg * (codeg - 1) // 2).sum()) // 4


def test_four_cycle_count_equals_dense_reference():
    for n in range(2, 31):
        divs = proper_divisors(n)
        for mask in range(1, 1 << len(divs)):
            spec = IcgSpec(n, mask_divisors(mask, divs))
            assert count_four_cycles(spec) == _dense_four_cycles(spec), spec


def test_energy_lower_bounds():
    bound_moment, bound_regular = energy_lower_bounds(IcgSpec(6, (1, 3)))
    assert bound_regular == 6  # equality case: K_{3,3} has energy exactly 6
    assert bound_moment <= 6 + 1e-9
    _, bound_regular = energy_lower_bounds(IcgSpec(4, (1, 2)))
    assert bound_regular == 4  # energy is 6, strictly above
    for spec in (IcgSpec(30, (1,)), IcgSpec(36, (2, 3)), IcgSpec(49, (1, 7))):
        e = sum(abs(v) for v in spectrum(spec).values)
        bm, br = energy_lower_bounds(spec)
        assert bm <= e + 1e-9 and br <= e


def test_verify_against_trig_exhaustive():
    r = verify_against_trig(12)
    assert r.exhaustive and r.sets == 31 and r.ok
    assert r.max_deviation < 1e-6
    assert r.failures == ()


def test_verify_against_trig_rejects_budget_below_one():
    """A budget of 0 would compare no set and still report ok."""
    for budget in (0, -1):
        with pytest.raises(ValueError, match=rf"^budget must be at least 1, got {budget}$"):
            verify_against_trig(60, budget=budget)
    assert verify_against_trig(60, budget=1).sets == 1


def test_verify_against_trig_sampled_deterministic():
    # 360 has 23 proper divisors, far beyond the budget: sampling kicks in
    a = verify_against_trig(360, budget=40)
    b = verify_against_trig(360, budget=40)
    assert not a.exhaustive and a.sets == 40
    assert a == b
    assert a.ok


def test_sampled_masks_are_pinned():
    # the sample random.Random(n).sample(range(1, total + 1), budget) has always drawn
    for n, budget in ((360, 40), (360, 64), (144, 2048)):
        total = subset_count(n)
        want = sorted(random.Random(n).sample(range(1, total + 1), budget))
        assert _sample_masks(n, total, budget) == want
    assert _sample_masks(360, subset_count(360), 40)[:4] == [550476, 659726, 714921, 997947]


def test_sampled_masks_beyond_64_bits():
    total = subset_count(10080)  # 2^71 - 1, too long for range() in random.sample
    masks = _sample_masks(10080, total, 300)
    assert masks == _sample_masks(10080, total, 300)
    assert masks == sorted(set(masks)) and len(masks) == 300
    assert 1 <= masks[0] and masks[-1] <= total and masks[-1] >= 1 << 64


@pytest.mark.parametrize("n, budget", [(42, 2048), (210, 3 * BLOCK)])
def test_verify_against_trig_reports_every_faulty_graph(monkeypatch, n, budget):
    """One class eigenvalue off by 1 in ICG_n({1}): every checked set holding 1 fails."""
    clean = sweep.ramanujan_totals
    e = divisors(n)[2]

    def faulty(ks, moduli, m):
        row = clean(ks, moduli, m)
        return tuple(v + (moduli == (m,) and j == 2) for j, v in enumerate(row))

    monkeypatch.setattr(sweep, "ramanujan_totals", faulty)
    r = verify_against_trig(n, budget=budget)
    total = subset_count(n)
    if total <= budget:
        checked = range(1, total + 1)
    else:
        checked = sorted(random.Random(n).sample(range(1, total + 1), budget))
    divs = proper_divisors(n)
    want = tuple(IcgSpec(n, mask_divisors(m, divs)).canonical() for m in checked if m & 1)
    assert r.sets == len(checked) and not r.ok
    assert r.failures == want
    assert abs(r.max_deviation - 1) < 1e-9
    assert r.worst_spec in want and gcd(r.worst_index, n) == e
