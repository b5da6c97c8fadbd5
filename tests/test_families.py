"""Equienergetic families, cospectrality search, extremal energies."""

import math

import numpy as np
import pytest

from icgraph import closed_forms, families, graphs
from icgraph.families import (
    bipartite_extremal_spectrum,
    cospectral,
    equienergetic_family,
    equienergetic_family_second,
    min_energy_search,
    predicted_min_energy_set,
    second_spectral_value,
    so_conjecture_check,
)
from icgraph.graphs import IcgSpec, class_index, spectrum
from icgraph.sweep import BudgetExceeded, mask_divisors, proper_divisors, subset_count


def test_first_family_n30():
    r = equienergetic_family(30)
    assert [m.canonical() for m in r.members] == ["30:1", "30:2,3", "30:2,5", "30:3,5"]
    assert r.common_energy == 64
    assert r.all_hyperenergetic
    # symmetric matrix, true diagonal, false everywhere else
    for i, row in enumerate(r.pairwise_cospectral):
        for j, flag in enumerate(row):
            assert flag == (i == j)


def test_family_builds_one_spectrum_per_member(monkeypatch):
    # graphs.spectrum calls ramanujan_totals once per graph
    totals = graphs.ramanujan_totals
    calls = []

    def counted(*args):
        calls.append(args)
        return totals(*args)

    monkeypatch.setattr(graphs, "ramanujan_totals", counted)
    for build, n in ((equienergetic_family, 30), (equienergetic_family_second, 450)):
        calls.clear()
        members = build(n).members
        assert len(calls) == len(members), n


def test_first_family_n15():
    r = equienergetic_family(15)
    assert [m.canonical() for m in r.members] == ["15:1", "15:3,5"]
    assert r.common_energy == 32
    assert r.all_hyperenergetic  # 32 > 2*15 - 2


def test_first_family_rejects():
    for n in (4, 9, 8, 49):
        with pytest.raises(ValueError):
            equienergetic_family(n)


def test_second_family():
    r = equienergetic_family_second(450)
    assert [m.canonical() for m in r.members] == ["450:2,3", "450:2,5"]
    assert r.common_energy == 1440
    # independent route to one member's energy
    assert sum(abs(v) for v in spectrum(IcgSpec(450, (2, 3))).values) == 1440
    with pytest.raises(ValueError):
        equienergetic_family_second(18)  # only one square prime
    with pytest.raises(ValueError):
        equienergetic_family_second(12)  # 12 = 0 mod 4
    with pytest.raises(ValueError):
        equienergetic_family_second(90)  # 2*3^2*5: only 3 qualifies


def test_second_family_another_instance():
    r = equienergetic_family_second(882)  # 2 * 3^2 * 7^2
    assert r.common_energy == 3024
    assert len(r.members) == 2


def test_families_reject_a_wrong_closed_form(monkeypatch):
    # the shared energy is recomputed from the spectra, so a closed form that
    # disagrees with it must stop both constructions
    monkeypatch.setattr(closed_forms, "energy_two_primes", lambda *args: 2)
    with pytest.raises(ArithmeticError):
        equienergetic_family(30)
    with pytest.raises(ArithmeticError):
        equienergetic_family_second(450)


def test_families_reject_a_cospectral_member(monkeypatch):
    monkeypatch.setattr(graphs.Spectrum, "cospectral_key", lambda self: ())
    with pytest.raises(ArithmeticError, match="^members 30:1 and 30:2,3 are cospectral$"):
        equienergetic_family(30)
    with pytest.raises(ArithmeticError, match="^members 450:2,3 and 450:2,5 are cospectral$"):
        equienergetic_family_second(450)


def test_second_spectral_value_anchors():
    assert second_spectral_value(30, 2, 3) == 8
    assert second_spectral_value(30, 3, 5) == 6
    assert second_spectral_value(105, 3, 5) == 18


def test_second_spectral_value_matches_brute_force():
    from icgraph.arith import prime_factors

    for n in (30, 42, 66, 70, 105):
        primes = prime_factors(n)
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                vals = spectrum(IcgSpec(n, (p, q))).values
                brute = max(abs(v) for v in vals[1:])
                assert second_spectral_value(n, p, q) == brute, (n, p, q)


def test_second_spectral_value_rejects():
    with pytest.raises(ValueError):
        second_spectral_value(12, 2, 3)  # not square-free
    with pytest.raises(ValueError):
        second_spectral_value(15, 3, 5)  # only two primes
    with pytest.raises(ValueError):
        second_spectral_value(30, 2, 7)  # 7 does not divide 30


def test_cospectral():
    a, b = IcgSpec(6, (1,)), IcgSpec(6, (1, 3))
    assert cospectral(a, a)
    assert not cospectral(a, b)
    assert not cospectral(IcgSpec(30, (2, 3)), IcgSpec(30, (2, 5)))
    with pytest.raises(ValueError):
        cospectral(IcgSpec(6, (1,)), IcgSpec(12, (1,)))


def test_so_check():
    r = so_conjecture_check(12)
    assert (r.n, r.sets, r.collisions) == (12, 31, ())
    assert r.verified
    assert so_conjecture_check(2).sets == 1
    assert so_conjecture_check(48).sets == 511
    with pytest.raises(BudgetExceeded):
        so_conjecture_check(48, budget=500)
    assert r.to_json_dict() == {"n": 12, "sets": 31, "collisions": []}


def exact_so_check(n):
    """so_conjecture_check by sorted index-order spectra: one dict entry per divisor set."""
    divs = proper_divisors(n)
    sets = 0
    first = {}  # sorted spectrum -> smallest mask with that spectrum
    groups = {}  # smallest mask -> every mask sharing its spectrum
    for masks, L in families.iter_class_blocks(n):
        sets += len(masks)
        for mask, vec in zip(masks.tolist(), np.sort(L[:, class_index(n)], axis=1)):
            owner = first.setdefault(vec.tobytes(), mask)
            if owner != mask:
                groups.setdefault(owner, [owner]).append(mask)
    collisions = tuple(
        tuple(IcgSpec(n, mask_divisors(m, divs)).canonical() for m in groups[owner])
        for owner in sorted(groups)
    )
    return sets, collisions


def test_so_check_equals_exact_keys():
    for n in range(2, 201):
        r = so_conjecture_check(n)
        assert (r.sets, r.collisions) == exact_so_check(n), n


def inject_copies(monkeypatch, copies):
    """Make families.iter_class_blocks give each mask dst the row of mask copies[dst] < dst."""
    sweep = families.iter_class_blocks

    def copy_rows(*args):
        rows = {}
        for masks, L in sweep(*args):
            for mask, row in zip(masks.tolist(), L):
                if mask in copies:
                    row[:] = rows[copies[mask]]
                rows[mask] = row
            yield masks, L

    monkeypatch.setattr(families, "iter_class_blocks", copy_rows)


def names(n, masks):
    divs = proper_divisors(n)
    return tuple(IcgSpec(n, mask_divisors(m, divs)).canonical() for m in masks)


@pytest.mark.filterwarnings("error")
def test_so_check_reports_injected_cospectral_pair(monkeypatch):
    n, src, dst = 120, 5, 3000  # two masks in different blocks
    inject_copies(monkeypatch, {dst: src})
    r = so_conjecture_check(n)
    assert r.collisions == (names(n, (src, dst)),)
    assert (r.sets, r.collisions) == exact_so_check(n)


@pytest.mark.filterwarnings("error")
def test_so_check_orders_several_groups(monkeypatch):
    # group (3, 2000, 30000) starts first; group (5, 1000) ends first
    n = 120
    inject_copies(monkeypatch, {2000: 3, 30000: 3, 1000: 5})
    r = so_conjecture_check(n)
    assert r.collisions == (names(n, (3, 2000, 30000)), names(n, (5, 1000)))
    assert (r.sets, r.collisions) == exact_so_check(n)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [36, 60, 120])
def test_so_check_fingerprint_is_only_a_filter(monkeypatch, n):
    # with a constant mixer every set shares one fingerprint, so the exact
    # keys of all of them decide the answer
    monkeypatch.setattr(graphs, "_mix64", np.zeros_like)
    checked = []
    key = graphs.Spectrum.cospectral_key

    def counting_key(self):
        checked.append(self.classes)
        return key(self)

    monkeypatch.setattr(graphs.Spectrum, "cospectral_key", counting_key)
    r = so_conjecture_check(n)
    assert (r.sets, r.collisions) == (subset_count(n), ())
    assert len(checked) == subset_count(n)


def test_min_energy_examples():
    r = min_energy_search(6)
    assert r.min_energy == 6 and (1, 3) in r.argmin_sets
    assert r.conjecture_value == 6 and r.conjecture_holds
    r = min_energy_search(4)
    assert r.min_energy == 4 and (1,) in r.argmin_sets and r.conjecture_holds
    r = min_energy_search(9)
    assert r.min_energy == 12 and r.conjecture_value == 12 and (1,) in r.argmin_sets


def test_min_energy_connectivity_on_every_set(monkeypatch):
    # with every energy 0, every connected set ties for the minimum
    monkeypatch.setattr(families, "block_energies", lambda L, n: np.zeros(len(L), np.int64))
    for n in range(2, 121):
        divs = proper_divisors(n)
        sets = [mask_divisors(m, divs) for m in range(1, subset_count(n) + 1)]
        connected = [ds for ds in sets if math.gcd(*ds) == 1]
        connected.sort(key=lambda ds: ",".join(map(str, ds)))
        assert min_energy_search(n).argmin_sets == tuple(connected), n


def test_min_energy_all_sets_mode():
    r = min_energy_search(6, connected_only=False)
    assert r.min_energy == 6
    assert r.argmin_sets == ((1, 3), (3,))  # the matching 3*K_2 ties K_{3,3}
    assert r.conjecture_value is None and r.conjecture_holds is None
    d = r.to_json_dict()
    assert "conjecture_value" not in d


def test_predicted_min_energy_set():
    assert predicted_min_energy_set(12) == (1, 3)
    assert predicted_min_energy_set(15) == (1, 5)
    assert predicted_min_energy_set(9) == (1,)
    assert predicted_min_energy_set(2) == (1,)


def test_bipartite_extremal_spectrum():
    assert bipartite_extremal_spectrum(2).values == (1, -1)
    assert bipartite_extremal_spectrum(6).values == (3, 0, 0, -3, 0, 0)
    s = bipartite_extremal_spectrum(12)
    assert s.values[0] == 6 and s.values[6] == -6 and sum(v != 0 for v in s.values) == 2
    with pytest.raises(ValueError):
        bipartite_extremal_spectrum(9)
