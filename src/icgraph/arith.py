"""Exact arithmetic functions: factorization, totient, Möbius, Ramanujan sums.

Everything here works in plain Python integers, so results are exact at any
size the rest of the library cares about (trial division keeps factorization
practical up to ~10^12; the intended working range is n <= ~10^6).

The Ramanujan sum c(k, m) is the sum of e^(2πi·ak/m) over the units a mod m.
It is always an integer and has the closed form

    c(k, m) = mu(t) * phi(m) / phi(t),   t = m / gcd(k, m).

A spectrum of order n needs c(k, m) only for divisors m of n, and then t
divides n too, so every phi and mu of the closed form is that of a divisor
of n.  phi_mu_table(n) is the one per-n divisor table: built in one
multiplicative pass from one factorization of n, it holds every divisor of
n in increasing order with its phi and mu, so divisors(n) is its keys and
the class weights phi(n/e) are its phi column reversed.  ramanujan_totals
evaluates the closed form from that table alone, for the sum over a whole
set of moduli in one pass; euler_phi and mobius serve single values,
uncached, each a short loop over the cached factorize of its argument.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from types import MappingProxyType

# Entries in the cache of factorize.  One n factorizes at most its tau(n)
# divisors, and tau(n) <= 6720 for n <= 10^12, so one n's working set
# always fits while a long sweep over many n stays bounded.
CACHE_SIZE = 1 << 13
# Entries per cache of whole per-n tables (divisors, phi_mu_table,
# graphs.class_weights, sweep._low_texts).  A call works on the tables of one
# n, so a few entries serve it, and a process that meets many n keeps only
# the last few tables.
TABLE_CACHE_SIZE = 8


def _check_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")


@lru_cache(maxsize=CACHE_SIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as ((p1, a1), (p2, a2), ...) with p1 < p2 < ...

    factorize(1) is the empty tuple.
    """
    _check_positive(n)
    factors = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                e += 1
                m //= d
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n in increasing order."""
    return tuple(p for p, _ in factorize(n))


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def euler_phi(n: int) -> int:
    """Euler's totient: the number of 1 <= a <= n coprime to n."""
    _check_positive(n)
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def mobius(n: int) -> int:
    """Möbius function: 0 if n has a squared prime factor, else (-1)^(#primes)."""
    _check_positive(n)
    fac = factorize(n)
    if any(a >= 2 for _, a in fac):
        return 0
    return -1 if len(fac) % 2 else 1


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in increasing order: the keys of phi_mu_table(n)."""
    return tuple(phi_mu_table(n))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def phi_mu_table(n: int) -> MappingProxyType[int, tuple[int, int]]:
    """(phi(e), mu(e)) for every divisor e of n, in increasing order of e.

    Each divisor is a product of prime powers p^k, 0 <= k <= a, over the
    factorization of n, and both functions are multiplicative, so the pair
    of e is the product over the p^k exactly dividing e of
    phi(p^k) = p^(k-1) (p - 1) and of mu(p) = -1, mu(p^k) = 0 for k >= 2.
    Each prime extends the ascending rows (e, (phi, mu)) by a copies of
    them times p^k, each ascending too, so one sort merges the runs.  The
    mapping is read-only, because the cache hands the same one to every
    caller.
    """
    rows = [(1, (1, 1))]
    for p, a in factorize(n):
        powers = [(p**k, p ** (k - 1) * (p - 1), -1 if k == 1 else 0) for k in range(1, a + 1)]
        rows += [(e * q, (phi * f, mu * s)) for q, f, s in powers for e, (phi, mu) in rows]
        rows.sort()
    return MappingProxyType(dict(rows))


def ramanujan_totals(ks, moduli, n: int) -> tuple[int, ...]:
    """For each integer k of ks, the sum of c(k, m) over the moduli m, exactly.

    Every m must divide n.  c(k, m) depends on k only through gcd(k, m), so
    k may be any integer.  Each phi and mu of the closed form is read from
    phi_mu_table(n), so one factorization of n serves every m dividing n,
    and the sums for all the moduli come from one pass over ks.
    """
    for m in moduli:
        if not 1 <= m <= n or n % m:
            raise ValueError(f"{m} does not divide {n}")
    table = phi_mu_table(n)
    terms = [(m, table[m][0]) for m in moduli]
    sums = []
    for k in ks:
        total = 0
        for m, phi_m in terms:
            phi_t, mu = table[m // gcd(k, m)]
            if mu:
                # phi(t) divides phi(m) whenever t divides m, so // is exact here.
                total += mu * (phi_m // phi_t)
        sums.append(total)
    return tuple(sums)


def ramanujan(k: int, n: int) -> int:
    """Ramanujan sum c(k, n), exactly, for any integer k (it has period n in k)."""
    _check_positive(n)
    return ramanujan_totals((k,), (n,), n)[0]
