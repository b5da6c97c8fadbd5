"""Number-theory kernel: factorization, totient, Möbius, Ramanujan sums."""

import math
import random

import numpy as np
import pytest

from icgraph.arith import (
    TABLE_CACHE_SIZE,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    mobius,
    phi_mu_table,
    prime_factors,
    ramanujan,
    ramanujan_totals,
)
from icgraph.energy import energy_report
from icgraph.graphs import IcgSpec, class_weights, spectrum


def test_factorize():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    assert factorize(450) == ((2, 1), (3, 2), (5, 2))
    assert prime_factors(30) == (2, 3, 5)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        euler_phi(-3)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == primes


def test_is_prime_edges():
    assert not is_prime(0) and not is_prime(1) and not is_prime(4)
    assert is_prime(2)
    assert is_prime(999_983)  # largest prime below 10^6
    assert not is_prime(999_983**2)
    assert not is_prime(-7)


def test_euler_phi_values():
    assert euler_phi(1) == 1
    assert euler_phi(36) == 12
    assert euler_phi(30) == 8
    assert euler_phi(450) == 120
    for p in (2, 3, 5, 7, 97):
        assert euler_phi(p) == p - 1


def test_euler_phi_sums_over_divisors():
    # sum of phi(d) over d | n equals n
    for n in range(1, 200):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_mobius():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(30) == -1
    assert mobius(12) == 0
    assert mobius(97) == -1


def test_divisors():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(97) == (1, 97)
    for n in (36, 450):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert list(ds) == sorted(ds)


def _trial_divisors(n):
    """The divisors of n, ascending, by trial division up to sqrt(n) (n < 2^63)."""
    small = np.arange(1, math.isqrt(n) + 1, dtype=np.int64)
    small = small[n % small == 0].tolist()
    return tuple(small + [n // d for d in reversed(small) if d * d != n])


def test_divisors_match_trial_division():
    for n in [*range(1, 10**4 + 1), 510510, 693770, 799799]:
        assert divisors(n) == _trial_divisors(n), n


def test_ramanujan_anchors():
    assert ramanujan(0, 1) == 1
    assert ramanujan(2, 4) == -2
    assert ramanujan(3, 9) == -3
    for n in (2, 5, 12, 36):
        assert ramanujan(0, n) == euler_phi(n)
    # prime modulus: -1 off the multiples, p-1 on them
    for p in (3, 7, 11):
        assert ramanujan(1, p) == -1
        assert ramanujan(p, p) == p - 1


def test_ramanujan_periodic_and_symmetric():
    for n in range(1, 61):
        for k in range(n):
            c = ramanujan(k, n)
            assert c == ramanujan(k + n, n)
            assert c == ramanujan(n - k, n)
            assert c == ramanujan(-k, n)


def test_ramanujan_equals_cosine_sum():
    """c(k, n) is the sum of cos(2*pi*a*k/n) over units a mod n."""
    for n in range(1, 151):
        units = np.array([a for a in range(1, n + 1) if math.gcd(a, n) == 1])
        ks = np.arange(n)
        table = np.cos(2.0 * np.pi * np.outer(ks, units) / n).sum(axis=1)
        exact = np.array([ramanujan(k, n) for k in range(n)], dtype=float)
        assert np.max(np.abs(table - exact)) < 1e-9, n


def test_ramanujan_sum_identities():
    # full-period sum vanishes; half-period sums hit phi(n) or phi(n)/2
    for n in range(2, 501):
        full = sum(ramanujan(k, n) for k in range(n))
        assert full == 0, n
        if n % 2 == 0:
            head = sum(ramanujan(k, n) for k in range(n // 2))
            assert head == euler_phi(n), n
    for n in range(3, 501, 2):
        head = sum(ramanujan(k, n) for k in range((n - 1) // 2 + 1))
        assert 2 * head == euler_phi(n), n


def test_ramanujan_multiplicative():
    import random

    rng = random.Random(7)
    for _ in range(300):
        m = rng.randrange(1, 60)
        n = rng.randrange(1, 60)
        if math.gcd(m, n) != 1:
            continue
        k = rng.randrange(0, 200)
        assert ramanujan(k, m * n) == ramanujan(k, m) * ramanujan(k, n)


def _prime_power_products(rng, count, limit):
    """count seeded n <= limit, each a product of random prime powers (many divisors)."""
    primes = [p for p in range(2, 2000) if is_prime(p)]
    out = []
    while len(out) < count:
        n = 1
        for p in rng.sample(primes[:12], 3) + rng.sample(primes, 2):
            n *= p ** rng.randrange(0, 4)
        if 1 < n <= limit:
            out.append(n)
    return out


def _table_ns():
    """Every n <= 3000, then 60 seeded n below 10^12, half of them with many divisors."""
    rng = random.Random(15)
    sample = [rng.randrange(2, 10**12) for _ in range(30)] + _prime_power_products(rng, 30, 10**12)
    return [*range(1, 3001), *sample]


def test_phi_mu_table_equals_euler_phi_and_mobius():
    for n in _table_ns():
        table = phi_mu_table(n)
        assert set(table) == set(divisors(n)), n
        for e in divisors(n):
            assert table[e] == (euler_phi(e), mobius(e)), (n, e)


def test_one_table_lists_the_divisors_and_the_class_weights():
    for n in _table_ns():
        assert tuple(phi_mu_table(n)) == _trial_divisors(n), n
        assert divisors(n) == tuple(phi_mu_table(n)), n
        assert class_weights(n) == tuple(euler_phi(n // e) for e in divisors(n)), n


def _spectrum_by_single_values(n, D):
    """Column sums of the rows c(e, n/d), d in D, over the divisors e of n found by
    trial division; each c(e, m) = mu(t) phi(m) / phi(t) with t = m / gcd(e, m),
    from mobius and euler_phi, which factorize their own arguments."""
    rows = []
    for d in D:
        m = n // d
        ts = [m // math.gcd(e, m) for e in _trial_divisors(n)]
        rows.append([mobius(t) * (euler_phi(m) // euler_phi(t)) for t in ts])
    return tuple(map(sum, zip(*rows)))


def test_spectrum_is_one_pass_over_the_table():
    rng = random.Random(17)
    cases = []
    for n in range(2, 3001):
        proper = divisors(n)[:-1]
        cases.append((n, rng.sample(proper, rng.randint(1, min(4, len(proper))))))
    # the 48 n below 10^12 with the most divisors, up to 192, of 400 seeded
    # ones, and two n with tau(n) = 192
    large = [n for n in _prime_power_products(rng, 400, 10**12) if len(divisors(n)) <= 192]
    large = sorted(large, key=lambda n: len(divisors(n)))[-48:]
    large += [360360, 2**3 * 3**2 * 101 * 103 * 997 * 1009]
    assert [len(divisors(n)) for n in large[-2:]] == [192, 192] and large[-1] < 10**12
    for n in large:
        proper = divisors(n)[:-1]
        cases.append((n, rng.sample(proper, rng.randint(1, min(5, len(proper))))))
    for n, D in cases:
        assert spectrum(IcgSpec(n, D)).classes == _spectrum_by_single_values(n, D), (n, D)


def test_ramanujan_totals_read_one_table_for_every_divisor():
    """c(k, m) from the table of a multiple n of m equals c(k, m) from m's own."""
    for n in (1, 12, 97, 360, 720720, 999_999):
        ks = range(-3, 50)
        for m in divisors(n):
            assert ramanujan_totals(ks, (m,), n) == tuple(ramanujan(k, m) for k in ks), (n, m)
    for m, n in ((5, 12), (0, 12), (24, 12), (-6, 12)):
        with pytest.raises(ValueError, match=f"{m} does not divide {n}"):
            ramanujan_totals((1,), (m,), n)


def test_one_energy_report_factorizes_n_once():
    """A graph's spectrum and weights read phi and mu from one factorization of n."""
    for n, ds in ((692054, (1, 2, 346027)), (720720, (1, 2, 3, 360360))):
        for f in (factorize, divisors, phi_mu_table, class_weights):
            f.cache_clear()
        energy_report(IcgSpec(n, ds))
        assert factorize.cache_info().misses == 1, n
        assert phi_mu_table.cache_info().misses == 1, n


def test_caches_are_bounded_and_hold_one_n():
    caches = (factorize, divisors, phi_mu_table)
    assert all(f.cache_info().maxsize is not None for f in caches)
    spec = IcgSpec(720720, (1, 2, 3, 360360))  # tau(720720) = 240
    energy_report(spec)
    misses = [f.cache_info().misses for f in caches]
    energy_report(spec)
    assert [f.cache_info().misses for f in caches] == misses


def test_per_n_table_caches_keep_the_last_few_n():
    # a whole table per n: a long process meeting many n keeps only a few
    for f in (divisors, phi_mu_table, class_weights):
        f.cache_clear()
    for n in range(720720, 720720 + 64 * 720720, 720720):
        energy_report(IcgSpec(n, (1, 2)))
    for f in (divisors, phi_mu_table, class_weights):
        assert f.cache_info().currsize <= TABLE_CACHE_SIZE, f
        assert f.cache_info().misses == 64, f
