"""Acceptance sweep: ten desk-scale criteria, one printed pass/fail line each.

Every criterion checks library results against an independent route
(trigonometric oracle, brute-force enumeration, combinatorial counts, or
hand-derived anchor values), so a silent regression in either route trips
the comparison.  Run with `pytest -s tests/test_acceptance.py` to see the
status lines; the whole file stays under a couple of minutes.
"""

import math
import time

import numpy as np

from icgraph.arith import divisors, euler_phi, factorize, prime_factors
from icgraph.closed_forms import (
    cross_validate,
    energy_one_prime_power,
    energy_two_primes,
)
from icgraph.energy import energy, energy_report, lambda_half, mod4_blocks
from icgraph.families import (
    bipartite_extremal_spectrum,
    equienergetic_family,
    min_energy_search,
    predicted_min_energy_set,
    second_spectral_value,
    so_conjecture_check,
)
from icgraph.graphs import IcgSpec, class_index, component_decomposition, spectrum
from icgraph.oracle import (
    count_four_cycles,
    energy_lower_bounds,
    moments,
    spectrum_trig,
    verify_against_trig,
)
from icgraph.sweep import iter_class_blocks, mask_divisors, proper_divisors


def _status(label: str, failures, detail: str) -> None:
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"{label}: {verdict} — {detail}")


def test_criterion_01_oracle_equivalence():
    """Exact integer spectra match the cosine-sum oracle for every n <= 300."""
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    exhaustive_orders = 0
    for n in range(2, 301):
        rep = verify_against_trig(n, tol=1e-6, budget=2048)
        if not rep.ok:
            failures.append(n)
        if rep.exhaustive != (len(divisors(n)) <= 12):
            failures.append(("exhaustive-flag", n))
        exhaustive_orders += rep.exhaustive
        worst = max(worst, rep.max_deviation)
    elapsed = time.perf_counter() - t0
    _status(
        "criterion 01 (oracle equivalence)",
        failures,
        f"299 orders, {exhaustive_orders} exhaustive, max |delta| = {worst:.2e}, "
        f"{elapsed:.1f}s",
    )
    assert not failures
    assert worst < 1e-6
    assert elapsed < 120.0


def test_criterion_02_odd_energy_mod_4():
    """E(ICG_n(D)) is divisible by 4 for every odd n <= 301 and every D."""
    failures = []
    sets = 0
    for n in range(3, 302, 2):
        divs = proper_divisors(n)
        for masks, es, residues, _ in mod4_blocks(n):
            sets += len(masks)
            for mask, e in zip(masks[residues != 0].tolist(), es[residues != 0].tolist()):
                failures.append((n, mask_divisors(mask, divs), e))
    expected_sets = sum(2 ** (len(divisors(n)) - 1) - 1 for n in range(3, 302, 2))
    _status("criterion 02 (odd n: E = 0 mod 4)", failures, f"{sets} divisor sets")
    assert not failures
    assert sets == expected_sets == 2476


def test_criterion_03_even_energy_mod_4():
    """Proof-derived rule predicts E mod 4 for every even n <= 300 and every D."""
    failures = []
    sets = 0
    for n in range(2, 301, 2):
        divs = proper_divisors(n)
        for masks, es, residues, predicted in mod4_blocks(n):
            sets += len(masks)
            bad = residues != predicted
            for mask, e, r, p in zip(masks[bad].tolist(), es[bad].tolist(),
                                     residues[bad].tolist(), predicted[bad].tolist()):
                failures.append((n, mask_divisors(mask, divs), e, r, p))
    expected_sets = sum(2 ** (len(divisors(n)) - 1) - 1 for n in range(2, 301, 2))

    # The boundary graph that rules out the naive "n/2 in D or middle
    # eigenvalue negative" reading: both the half-divisor test and the sign
    # test individually mispredict here, the conjunction does not.
    witness = energy_report(IcgSpec(6, (1,)))
    assert witness.energy == 8 and witness.residue4 == 0
    assert not witness.half_in_D and witness.lambda_half == -2
    assert witness.predicted4 == 0
    assert lambda_half(IcgSpec(6, (1,))) == -2

    _status(
        "criterion 03 (even n mod-4 rule)",
        failures,
        f"{sets} divisor sets, boundary witness 6:1 confirmed",
    )
    assert not failures
    assert sets == expected_sets == 1_358_200


def test_criterion_04_closed_forms():
    """Closed-form energies equal direct energies for every admissible case."""
    anchors = (
        (6, (1, 2), 8),
        (4, (1, 2), 6),
        (9, (1, 3), 16),
        (15, (3, 5), 32),
        (18, (2, 3), 36),
        (36, (2, 3), 76),
    )
    # trig oracle first, exact spectrum second, closed form last
    for n, ds, expected in anchors:
        spec = IcgSpec(n, ds)
        trig_energy = float(np.abs(spectrum_trig(spec)).sum())
        assert abs(trig_energy - expected) < 1e-6, (n, ds)
        assert energy(spec) == expected, (n, ds)
    assert energy_one_prime_power(6, 2, 1) == 8
    assert energy_one_prime_power(4, 2, 1) == 6
    assert energy_one_prime_power(9, 3, 1) == 16
    assert energy_two_primes(15, 3, 5) == 32
    assert energy_two_primes(18, 2, 3) == 36
    assert energy_two_primes(36, 2, 3) == 76

    rows = cross_validate(500)
    failures = [r for r in rows if not r.match]
    _status(
        "criterion 04 (closed forms, n <= 500)",
        failures,
        f"{len(rows)} admissible cases, 6 anchors",
    )
    assert not failures
    assert len(rows) == 1900


def test_criterion_05_equienergetic_family():
    """First-class equienergetic families verify at n = 30 and all n <= 210."""
    fam = equienergetic_family(30)
    assert [m.canonical() for m in fam.members] == [
        "30:1",
        "30:2,3",
        "30:2,5",
        "30:3,5",
    ]
    assert fam.common_energy == 64 and 64 > 2 * 30 - 2
    assert fam.all_hyperenergetic
    for i, row in enumerate(fam.pairwise_cospectral):
        assert all(flag == (i == j) for j, flag in enumerate(row))

    admissible = [
        n
        for n in range(2, 211)
        if sum(1 for _, a in factorize(n) if a == 1) >= 2
    ]
    failures = []
    for n in admissible:
        try:
            rep = equienergetic_family(n)
        except (ValueError, ArithmeticError) as e:
            failures.append((n, str(e)))
            continue
        k = len(factorize(n))
        if rep.common_energy != 2**k * euler_phi(n):
            failures.append((n, rep.common_energy))
    _status(
        "criterion 05 (equienergetic families)",
        failures,
        f"n = 30 quadruple at energy 64, {len(admissible)} admissible orders",
    )
    assert not failures
    assert 30 in admissible and len(admissible) >= 60


def test_criterion_06_second_spectral_value():
    """max |lambda_t|, t >= 1, matches its closed form for two-prime sets."""
    failures = []
    checked = 0
    for n in range(2, 211):
        fac = factorize(n)
        if len(fac) < 3 or any(a > 1 for _, a in fac):
            continue
        primes = prime_factors(n)
        for i, p in enumerate(primes):
            for q in primes[i + 1 :]:
                vals = spectrum(IcgSpec(n, (p, q))).values
                brute = max(abs(v) for v in vals[1:])
                if second_spectral_value(n, p, q) != brute:
                    failures.append((n, p, q))
                checked += 1
    _status(
        "criterion 06 (second spectral value)",
        failures,
        f"{checked} (n, p, q) cases over square-free n <= 210",
    )
    assert not failures
    assert checked == 63


def test_criterion_07_so_conjecture():
    """Distinct divisor sets are never cospectral for any n <= 200."""
    failures = []
    total = 0
    for n in range(2, 201):
        rep = so_conjecture_check(n)
        total += rep.sets
        if rep.collisions:
            failures.append((n, rep.collisions))
        if n == 48:
            assert rep.sets == 511
    _status(
        "criterion 07 (cospectrality search)",
        failures,
        f"{total} spectra hashed over n <= 200",
    )
    assert not failures


def test_criterion_08_extremal_energies():
    """Connected minimum energy: n for even n <= 120, 2n(1-1/p) for odd n <= 105."""
    failures = []
    for n in range(2, 121, 2):
        rep = min_energy_search(n)
        predicted = predicted_min_energy_set(n)
        if rep.min_energy != n or predicted not in rep.argmin_sets:
            failures.append(("even", n))
            continue
        assert rep.conjecture_holds
        vals = sorted(bipartite_extremal_spectrum(n).values)
        assert vals[0] == -(n // 2) and vals[-1] == n // 2
        assert all(v == 0 for v in vals[1:-1])
    for n in range(3, 106, 2):
        rep = min_energy_search(n)
        p = prime_factors(n)[0]
        if rep.min_energy != 2 * n - 2 * (n // p):
            failures.append(("odd", n))
            continue
        assert predicted_min_energy_set(n) in rep.argmin_sets
        assert rep.conjecture_holds
    _status(
        "criterion 08 (extremal energies)",
        failures,
        "even n <= 120 and odd n <= 105, argmin sets verified",
    )
    assert not failures


def test_criterion_09_moment_identities():
    """Spectral 4th moment recovers the 4-cycle count; lower bounds hold."""
    assert moments(IcgSpec(4, (1,))).q == 1  # the 4-cycle itself
    assert moments(IcgSpec(6, (1, 3))).q == 9  # K_{3,3}
    failures = []
    checked = 0
    for n in range(2, 41):
        divs = proper_divisors(n)
        for mask in range(1, 1 << len(divs)):
            spec = IcgSpec(n, mask_divisors(mask, divs))
            mom = moments(spec)
            if mom.q != count_four_cycles(spec):
                failures.append((spec.canonical(), "q"))
            e = energy(spec)
            moment_bound, order_bound = energy_lower_bounds(spec)
            if moment_bound > e + 1e-9 or order_bound > e:
                failures.append((spec.canonical(), "bound"))
            checked += 1
    _status(
        "criterion 09 (moment identities)",
        failures,
        f"{checked} graphs on n <= 40, two lower bounds each",
    )
    assert not failures


def test_criterion_10_component_theorem():
    """gcd(D) = d > 1 gives d disjoint copies of the quotient graph."""
    failures = []
    checked = 0
    for n in range(2, 201):
        for d in divisors(n)[1:-1]:
            m = n // d
            mdivs = proper_divisors(m)
            for masks, L in iter_class_blocks(m):
                for mask, vec in zip(masks.tolist(), L[:, class_index(m)]):
                    quotient_divs = mask_divisors(mask, mdivs)
                    if math.gcd(*quotient_divs) != 1:
                        continue  # quotient itself disconnected: counted at d' = d*gcd
                    big_spec = IcgSpec(n, tuple(d * x for x in quotient_divs))
                    scale, quotient = component_decomposition(big_spec)
                    if (scale, quotient) != (d, IcgSpec(m, quotient_divs)):
                        failures.append((big_spec.canonical(), "decomposition"))
                        continue
                    tiled = sorted(np.tile(vec, d).tolist())
                    if sorted(spectrum(big_spec).values) != tiled:
                        failures.append((big_spec.canonical(), "spectrum"))
                    if energy(big_spec) != d * int(np.abs(vec).sum()):
                        failures.append((big_spec.canonical(), "energy"))
                    checked += 1
    _status(
        "criterion 10 (component theorem)",
        failures,
        f"{checked} disconnected divisor sets over n <= 200",
    )
    assert not failures
    assert checked == 18_862
