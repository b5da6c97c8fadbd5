"""The divisor-class spectrum against references that do not use it.

The library stores a spectrum as one eigenvalue per divisor class and sweeps
divisor sets a block at a time.  These tests rebuild spectra index by index
with plain Ramanujan-sum loops, group cospectral sets by sorted index-order
vectors, and check the paper's identities at random orders up to 10^6.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from icgraph.arith import factorize, ramanujan
from icgraph.closed_forms import energy_one_prime_power, energy_two_primes
from icgraph.energy import energy, energy_report, lambda_half, mod4_blocks
from icgraph.families import min_energy_search, so_conjecture_check
from icgraph.graphs import (
    IcgSpec,
    Spectrum,
    class_index,
    component_decomposition,
    degree,
    spectrum,
)
from icgraph.sweep import iter_class_blocks, mask_divisors, proper_divisors, subset_count

SETTINGS = settings(max_examples=60, deadline=None, database=None)


@st.composite
def specs(draw, max_n):
    n = draw(st.integers(2, max_n))
    divs = proper_divisors(n)
    mask = draw(st.integers(1, (1 << len(divs)) - 1))
    return IcgSpec(n, mask_divisors(mask, divs))


def reference_spectrum(spec):
    """lambda_k = sum over d in D of c(k, n/d), one index k at a time."""
    return [sum(ramanujan(k, spec.n // d) for d in spec.divisors) for k in range(spec.n)]


@SETTINGS
@given(specs(3000))
def test_values_equal_index_by_index_reference(spec):
    s = spectrum(spec)
    ref = reference_spectrum(spec)
    assert list(s.values) == ref
    assert s.sorted_values() == tuple(sorted(ref))
    assert s.energy() == energy(spec) == sum(abs(v) for v in ref)
    assert s.moment(4) == sum(v**4 for v in ref)
    assert s[spec.n - 1] == ref[-1]


@SETTINGS
@given(specs(10**6))
def test_class_identities_at_large_n(spec):
    n = spec.n
    s = spectrum(spec)
    assert len(s.classes) == len(s.multiplicities)
    assert sum(s.multiplicities) == n
    assert s.moment(1) == 0  # trace of the adjacency matrix
    assert s.at(n) == degree(spec)  # lambda_0
    assert s.moment(2) == n * degree(spec)
    assert s.energy() % 2 == 0
    report = energy_report(spec)
    assert report.energy == s.energy()
    assert report.residue4 == report.predicted4
    if n % 2 == 0:
        assert report.lambda_half == lambda_half(spec)


@SETTINGS
@given(specs(10**6 // 7), st.integers(2, 7))
def test_component_theorem_at_large_n(base, c):
    spec = IcgSpec(base.n * c, tuple(c * d for d in base.divisors))
    d, quotient = component_decomposition(spec)
    assert d % c == 0
    small = spectrum(quotient).cospectral_key()
    assert spectrum(spec).cospectral_key() == tuple((v, m * d) for v, m in small)
    assert energy(spec) == d * energy(quotient)


@st.composite
def closed_form_cases(draw):
    n = draw(st.integers(4, 10**6))
    fac = factorize(n)
    p, alpha = draw(st.sampled_from(fac))
    gamma = draw(st.integers(1, alpha))
    pair = draw(st.sampled_from(fac))[0], draw(st.sampled_from(fac))[0]
    return n, p, gamma, tuple(sorted(pair))


@SETTINGS
@given(closed_form_cases())
def test_class_energy_equals_closed_forms(case):
    n, p, gamma, (q1, q2) = case
    if p**gamma != n:
        assert energy(IcgSpec(n, (1, p**gamma))) == energy_one_prime_power(n, p, gamma)
    if q1 != q2:
        assert energy(IcgSpec(n, (q1, q2))) == energy_two_primes(n, q1, q2)


def test_block_sweeps_equal_per_set_reference():
    """mod4_blocks and min_energy_search against length-n vectors summed per set.

    Connectivity comes from math.gcd per set.  For even n the disconnected
    perfect matching {n/2} also has energy n, so argmin_sets tells a dropped
    connectivity filter apart from a working one.
    """
    for n in (36, 60, 64, 90, 105, 120, 210):
        divs = proper_divisors(n)
        rows = {d: np.array([ramanujan(k, n // d) for k in range(n)]) for d in divs}
        energies = {}
        seen = []
        for masks, es, residues, predicted in mod4_blocks(n):
            seen += masks.tolist()
            for mask, e, residue, p in zip(masks.tolist(), es.tolist(), residues.tolist(),
                                            predicted.tolist()):
                ds = mask_divisors(mask, divs)
                vec = sum(rows[d] for d in ds)
                assert e == int(np.abs(vec).sum()) and residue == e % 4
                half = n % 2 == 0 and n // 2 in ds and vec[n // 2] < 0
                assert p == (2 if half else 0), (n, ds)
                energies[ds] = e
        assert seen == list(range(1, subset_count(n) + 1))
        for connected_only in (True, False):
            pool = {ds: e for ds, e in energies.items()
                    if math.gcd(*ds) == 1 or not connected_only}
            best = min(pool.values())
            argmin = sorted((ds for ds, e in pool.items() if e == best),
                            key=lambda ds: ",".join(map(str, ds)))
            report = min_energy_search(n, connected_only=connected_only)
            assert (report.min_energy, report.argmin_sets) == (best, tuple(argmin)), n


def test_cospectral_key_merges_classes_with_equal_values():
    # n = 12: the class weights phi(12/e) are 4, 2, 2, 2, 1, 1 for e = 1, 2, 3, 4, 6, 12
    a = Spectrum(12, (0, 1, 1, 2, 3, 4)).cospectral_key()
    b = Spectrum(12, (1, 0, 0, 2, 3, 4)).cospectral_key()
    assert a == b == ((0, 4), (1, 4), (2, 2), (3, 1), (4, 1))


def test_cospectral_grouping_equals_sorted_vector_grouping():
    for n in (36, 60, 120, 180):
        divs = proper_divisors(n)
        by_vector = {}
        ref_owner = {
            mask: by_vector.setdefault(vec.tobytes(), mask)
            for masks, L in iter_class_blocks(n)
            for mask, vec in zip(masks.tolist(), np.sort(L[:, class_index(n)], axis=1))
        }
        by_key = {}
        key_owner = {}
        for masks, L in iter_class_blocks(n):
            for mask, row in zip(masks.tolist(), L.tolist()):
                key = Spectrum(n, tuple(row)).cospectral_key()
                key_owner[mask] = by_key.setdefault(key, mask)
                # the key expands to the sorted index-order spectrum
                expanded = np.repeat(*np.array(key).T).tobytes()
                assert by_vector[expanded] == ref_owner[mask], (n, mask)
        assert key_owner == ref_owner
        groups = {}
        for mask, owner in ref_owner.items():
            groups.setdefault(owner, []).append(mask)
        expected = tuple(
            tuple(IcgSpec(n, mask_divisors(m, divs)).canonical() for m in groups[owner])
            for owner in sorted(groups)
            if len(groups[owner]) > 1
        )
        assert so_conjecture_check(n).collisions == expected

