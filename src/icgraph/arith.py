"""Exact arithmetic functions: factorization, totient, Möbius, Ramanujan sums.

Everything here works in plain Python integers, so results are exact at any
size the rest of the library cares about (trial division keeps factorization
practical up to ~10^12; the intended working range is n <= ~10^6).

The Ramanujan sum c(k, n) is the sum of e^(2πi·ak/n) over the units a mod n.
It is always an integer and has the closed form

    c(k, n) = mu(t) * phi(n) / phi(t),   t = n / gcd(k, n),

which is what `ramanujan` evaluates.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

# Entries per cache.  One n calls each cached function on at most its tau(n)
# divisors, and tau(n) <= 6720 for n <= 10^12, so one n's working set always
# fits while a long sweep over many n stays bounded.
CACHE_SIZE = 1 << 13


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
        else:
            d += 1 if d == 2 else 2
            continue
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


@lru_cache(maxsize=CACHE_SIZE)
def euler_phi(n: int) -> int:
    """Euler's totient: the number of 1 <= a <= n coprime to n."""
    _check_positive(n)
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


@lru_cache(maxsize=CACHE_SIZE)
def mobius(n: int) -> int:
    """Möbius function: 0 if n has a squared prime factor, else (-1)^(#primes)."""
    _check_positive(n)
    fac = factorize(n)
    if any(a >= 2 for _, a in fac):
        return 0
    return -1 if len(fac) % 2 else 1


@lru_cache(maxsize=CACHE_SIZE)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n in increasing order.

    Each divisor is a product of prime powers p^k, 0 <= k <= a, over the
    factorization of n, so no division beyond factorize(n) is needed.
    """
    _check_positive(n)
    divs = [1]
    for p, a in factorize(n):
        divs = [d * p**k for d in divs for k in range(a + 1)]
    return tuple(sorted(divs))


def ramanujan(k: int, n: int) -> int:
    """Ramanujan sum c(k, n), exactly.

    k may be any integer; c(k, n) is periodic in k with period n, so k is
    reduced mod n first.
    """
    _check_positive(n)
    t = n // gcd(k % n, n)
    mu = mobius(t)
    if mu == 0:
        return 0
    # phi(t) divides phi(n) whenever t divides n, so // is exact here.
    return mu * (euler_phi(n) // euler_phi(t))
