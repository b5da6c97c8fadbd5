"""Closed-form energies and their dispatch, checked against exact spectra."""

import pytest

from icgraph import closed_forms
from icgraph.closed_forms import (
    CSV_HEADER,
    Family,
    classify_case,
    cross_validate,
    energy_one_prime_power,
    energy_two_primes,
)
from icgraph.energy import energy
from icgraph.graphs import IcgSpec


def test_one_prime_power_anchors():
    assert energy_one_prime_power(6, 2, 1) == 8
    assert energy_one_prime_power(4, 2, 1) == 6
    assert energy_one_prime_power(9, 3, 1) == 16
    # gamma >= 2 cases (the totient argument is n/p^gamma here)
    assert energy_one_prime_power(8, 2, 2) == 14 == energy(IcgSpec(8, (1, 4)))
    assert energy_one_prime_power(18, 3, 2) == 34 == energy(IcgSpec(18, (1, 9)))
    assert energy_one_prime_power(16, 2, 3) == 30 == energy(IcgSpec(16, (1, 8)))
    assert energy_one_prime_power(24, 2, 3) == 56 == energy(IcgSpec(24, (1, 8)))


def test_two_primes_anchors():
    assert energy_two_primes(15, 3, 5) == 32
    assert energy_two_primes(18, 2, 3) == 36
    assert energy_two_primes(36, 2, 3) == 76
    # one branch instance each for the remaining cases
    assert energy_two_primes(75, 3, 5) == 224 == energy(IcgSpec(75, (3, 5)))
    assert energy_two_primes(45, 3, 5) == 128 == energy(IcgSpec(45, (3, 5)))
    assert energy_two_primes(12, 2, 3) == 20 == energy(IcgSpec(12, (2, 3)))
    assert energy_two_primes(30, 2, 3) == 64


def test_classify_case():
    case = classify_case(36, Family.TWO_PRIMES, (2, 3))
    assert case.case_tag == 5 and case.parameters == (36, 2, 3)
    assert classify_case(18, Family.TWO_PRIMES, (2, 3)).case_tag == 2
    assert classify_case(75, Family.TWO_PRIMES, (3, 5)).case_tag == 3
    assert classify_case(45, Family.TWO_PRIMES, (3, 5)).case_tag == 4
    assert classify_case(15, Family.TWO_PRIMES, (3, 5)).case_tag == 1
    assert classify_case(6, Family.ONE_AND_PRIME_POWER, (2, 1)).case_tag == 1
    assert classify_case(4, Family.ONE_AND_PRIME_POWER, (2, 1)).case_tag == 3
    assert classify_case(18, Family.ONE_AND_PRIME_POWER, (3, 2)).case_tag == 2
    assert classify_case(36, Family.TWO_PRIMES, (2, 3)).energy == 76
    assert classify_case(18, Family.ONE_AND_PRIME_POWER, (3, 2)).energy == 34
    with pytest.raises(ValueError, match=r"^unknown family 'two-primes'$"):
        classify_case(12, "two-primes", (2, 3))  # a family's value is not the family


def test_one_prime_power_rejects():
    with pytest.raises(ValueError, match=r"^4 is not prime$"):
        energy_one_prime_power(6, 4, 1)  # not prime
    with pytest.raises(ValueError, match=r"^5 does not divide 6$"):
        energy_one_prime_power(6, 5, 1)  # does not divide
    with pytest.raises(ValueError, match=r"^gamma=3 outside 1\.\.2 for p=2, n=12$"):
        energy_one_prime_power(12, 2, 3)  # gamma beyond alpha
    with pytest.raises(ValueError, match=r"^p\^gamma = 8 is not a proper divisor of n$"):
        energy_one_prime_power(8, 2, 3)  # p^gamma = n is not proper
    with pytest.raises(ValueError, match=r"^closed forms need n >= 4, got 3$"):
        energy_one_prime_power(3, 3, 1)  # below the theorem's range


def test_two_primes_rejects():
    with pytest.raises(ValueError, match=r"^p and q must be distinct$"):
        energy_two_primes(12, 2, 2)
    with pytest.raises(ValueError, match=r"^primes must be given in order p < q, got 5 > 3$"):
        energy_two_primes(15, 5, 3)  # wrong order
    with pytest.raises(ValueError, match=r"^2 does not divide 15$"):
        energy_two_primes(15, 2, 5)  # 2 does not divide 15
    with pytest.raises(ValueError, match=r"^4 is not prime$"):
        energy_two_primes(12, 3, 4)  # 4 is not prime


def test_primes_of_n_are_not_trial_divided(monkeypatch):
    """A prime that factorize(n) lists is accepted as it is; only other x are tried."""
    tried = []
    is_prime = closed_forms.is_prime
    monkeypatch.setattr(closed_forms, "is_prime", lambda x: tried.append(x) or is_prime(x))
    n = 2 * 3**2 * 101 * 103
    assert energy_one_prime_power(n, 103, 1) == energy(IcgSpec(n, (1, 103)))
    assert energy_one_prime_power(n, 3, 2) == energy(IcgSpec(n, (1, 9)))
    assert energy_two_primes(n, 101, 103) == energy(IcgSpec(n, (101, 103)))
    assert energy_two_primes(n, 2, 3) == energy(IcgSpec(n, (2, 3)))
    assert tried == []
    # the error path keeps its messages and their order: each x in turn,
    # primality before divisibility
    for call, message in (
        (lambda: energy_one_prime_power(10, 9, 1), "9 is not prime"),
        (lambda: energy_one_prime_power(10, 3, 1), "3 does not divide 10"),
        (lambda: energy_two_primes(30, 9, 7), "9 is not prime"),
        (lambda: energy_two_primes(30, 7, 9), "7 does not divide 30"),
        (lambda: energy_two_primes(30, 5, 9), "9 is not prime"),
        (lambda: energy_two_primes(30, 5, 1), "1 is not prime"),
        (lambda: energy_two_primes(3, 9, 7), "closed forms need n >= 4, got 3"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    assert tried == [9, 3, 9, 7, 9, 1]


def test_cross_validate_small():
    rows = cross_validate(120)
    assert rows and all(r.match for r in rows)
    # deterministic ordering by n
    assert [r.n for r in rows] == sorted(r.n for r in rows)
    assert rows[0].csv_fields()[0] == rows[0].n
    assert CSV_HEADER == ("n", "family", "parameters", "branch", "formula", "direct", "match")
    covered = {(r.family, r.branch) for r in rows}
    assert len(covered) == 8  # all three + five branches show up by n = 120


def test_cross_validate_classifies_each_case_once(monkeypatch):
    calls = []
    classify = closed_forms.classify_case

    def counting(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(closed_forms, "classify_case", counting)
    rows = cross_validate(60)
    assert len(calls) == len(rows) > 0


def test_pair_energy_choice_independence():
    # on square-free n every prime pair gives the same value 2^k phi(n)
    from icgraph.arith import euler_phi, prime_factors

    for n in (30, 105, 210):
        primes = prime_factors(n)
        k = len(primes)
        values = {
            energy_two_primes(n, p, q)
            for i, p in enumerate(primes)
            for q in primes[i + 1 :]
        }
        assert values == {2 ** k * euler_phi(n)}, n
