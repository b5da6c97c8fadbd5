"""Equienergetic families, cospectrality checks, and extremal-energy searches.

Highlights:

* two constructions of pairwise non-cospectral ICGs on n vertices sharing
  one energy value (the first needs two primes dividing n exactly once,
  the second needs n == 2 (mod 4) and two primes whose square divides n);
* an exact formula for the second-largest |eigenvalue| of ICG_n({p_i,p_j})
  on square-free n;
* exhaustive support for the conjecture that distinct divisor sets are
  never cospectral: a 64-bit spectrum fingerprint per set (8 bytes each)
  filters the candidates, and only sets whose fingerprint repeats are
  checked again with their exact cospectral keys;
* exhaustive minimum-energy search with the known/conjectured extremal
  values attached (even n: minimum n, attained by the all-odd-divisors
  set, which is a complete bipartite K_{n/2,n/2}; odd n: conjectured
  minimum 2n(1 - 1/p) for the smallest prime p, attained by the divisors
  coprime to p); connectivity is gcd(D) = 1, read from each set's mask
  with one bitmask per prime of n.

All searches run over every nonempty divisor subset (within the sweep
budget) and are deterministic.  closed_forms and fractions are imported by
the three functions that use them, so the searches load neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .arith import divisors, euler_phi, factorize, prime_factors
from .energy import is_hyperenergetic
from .graphs import IcgSpec, Spectrum, block_energies, spectrum, spectrum_fingerprints
from .sweep import (
    DEFAULT_BUDGET,
    check_budget,
    divisor_mask,
    iter_class_blocks,
    mask_divisors,
    proper_divisors,
)


@dataclass(frozen=True)
class FamilyReport:
    """A set of same-order, same-energy, pairwise non-cospectral graphs."""

    n: int
    members: tuple[IcgSpec, ...]
    common_energy: int
    pairwise_cospectral: tuple[tuple[bool, ...], ...]
    all_hyperenergetic: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "members": [m.canonical() for m in self.members],
            "common_energy": self.common_energy,
            "pairwise_cospectral": [list(row) for row in self.pairwise_cospectral],
            "all_hyperenergetic": self.all_hyperenergetic,
        }


def cospectral(a: IcgSpec, b: IcgSpec) -> bool:
    """True iff the two graphs have identical eigenvalue multisets."""
    if a.n != b.n:
        raise ValueError(f"cospectrality needs equal orders, got {a.n} and {b.n}")
    return spectrum(a).cospectral_key() == spectrum(b).cospectral_key()


def _family_report(n: int, members: list[IcgSpec], expected: int) -> FamilyReport:
    """The FamilyReport of members, checked from their spectra.

    Raises ArithmeticError unless every member has energy `expected` (the
    closed form) and no two members are cospectral.
    """
    spectra = [spectrum(m) for m in members]
    energies = [s.energy() for s in spectra]
    if set(energies) != {expected}:
        raise ArithmeticError(
            f"family energies differ from the closed form {expected}: "
            + ", ".join(f"{m}={e}" for m, e in zip(members, energies))
        )
    keys = [s.cospectral_key() for s in spectra]
    for (a, key_a), (b, key_b) in combinations(zip(members, keys), 2):
        if key_a == key_b:
            raise ArithmeticError(f"members {a} and {b} are cospectral")
    matrix = tuple(tuple(k == other for other in keys) for k in keys)
    # the members share n and (checked above) their energy, so one answers for all
    return FamilyReport(n, tuple(members), expected, matrix, is_hyperenergetic(n, expected))


def equienergetic_family(n: int) -> FamilyReport:
    """X_n(1) together with ICG_n({p, q}) for every pair of primes p || n.

    All members share the energy 2^k phi(n) (k = number of distinct primes
    of n) yet no two are cospectral.  Needs at least two primes dividing n
    exactly once.  The shared energy and the non-cospectrality are
    recomputed from the spectra on every call rather than assumed, and the
    energy must equal closed_forms.energy_two_primes for the first pair
    (branch 1 of X_n(p, q)).
    """
    from .closed_forms import energy_two_primes

    single = [p for p, a in factorize(n) if a == 1]
    if len(single) < 2:
        raise ValueError(
            f"n={n} has {len(single)} prime(s) dividing it exactly once; need at least 2"
        )
    members = [IcgSpec(n, (1,))] + [IcgSpec(n, pq) for pq in combinations(single, 2)]
    return _family_report(n, members, energy_two_primes(n, single[0], single[1]))


def equienergetic_family_second(n: int) -> FamilyReport:
    """ICG_n({2, q}) for every prime q with q^2 | n, on n == 2 (mod 4).

    All members share the energy 3 * 2^(k-1) * phi(n); needs at least two
    qualifying primes.  Everything is verified from the spectra per call,
    and the energy must equal closed_forms.energy_two_primes(n, 2, q) for
    the first q (branch 2 of X_n(p, q)).
    """
    from .closed_forms import energy_two_primes

    if n % 4 != 2:
        raise ValueError(f"construction needs n == 2 (mod 4), got n={n}")
    squared = [p for p, a in factorize(n) if p != 2 and a >= 2]
    if len(squared) < 2:
        raise ValueError(
            f"n={n} has {len(squared)} odd prime(s) with square dividing it; need at least 2"
        )
    members = [IcgSpec(n, (2, q)) for q in squared]
    return _family_report(n, members, energy_two_primes(n, 2, squared[0]))


def second_spectral_value(n: int, p_i: int, p_j: int) -> int:
    """Second-largest |eigenvalue| of ICG_n({p_i, p_j}) for square-free n.

    "Second largest" means the largest |lambda_t| over t = 1..n-1, i.e.
    ignoring position 0 only (the value may tie lambda_0).  The closed form

        phi(n / (p_i p_j)) * max{(p_i + p_j - 2)/phi(p_ij), p_i - 2, p_j - 2, 2}

    uses p_ij, the smallest prime dividing n/(p_i p_j); the max is taken in
    exact rational arithmetic.
    """
    from fractions import Fraction

    fac = factorize(n)
    if any(a >= 2 for _, a in fac):
        raise ValueError(f"n={n} is not square-free")
    primes = tuple(p for p, _ in fac)
    if len(primes) < 3:
        raise ValueError(f"n={n} has {len(primes)} prime factors; need at least 3")
    if p_i == p_j or p_i not in primes or p_j not in primes:
        raise ValueError(f"{p_i}, {p_j} must be distinct primes dividing {n}")
    m = n // (p_i * p_j)
    p_ij = prime_factors(m)[0]
    best = max(
        Fraction(p_i + p_j - 2, euler_phi(p_ij)),
        Fraction(p_i - 2),
        Fraction(p_j - 2),
        Fraction(2),
    )
    value = euler_phi(m) * best
    if value.denominator != 1:
        raise ArithmeticError(f"formula value {value} is not an integer")
    return int(value)


@dataclass(frozen=True)
class SoReport:
    """Outcome of the cospectrality search over all divisor sets of one n."""

    n: int
    sets: int
    collisions: tuple[tuple[str, ...], ...]

    @property
    def verified(self) -> bool:
        return not self.collisions

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "sets": self.sets,
            "collisions": [list(group) for group in self.collisions],
        }


def so_conjecture_check(n: int, budget: int = DEFAULT_BUDGET) -> SoReport:
    """Group every divisor set of n by spectrum multiset; report any clash.

    The conjecture being probed says distinct divisor sets are never
    cospectral, so `collisions` is expected to stay empty.  A first pass
    keeps one 64-bit spectrum fingerprint per set (8 bytes each) and sorts
    them; only when a fingerprint repeats does a second pass compare the
    exact cospectral keys of the sets whose fingerprint repeats.  Cospectral
    sets share a fingerprint, so a fingerprint collision costs time but
    cannot change the answer.  Each collision group lists its masks
    ascending, and the groups are ordered by their smallest mask.
    """
    import numpy as np

    sets = check_budget(n, budget)
    fps = np.empty(sets, dtype=np.uint64)
    for masks, L in iter_class_blocks(n, budget):
        fps[masks[0] - 1 : masks[-1]] = spectrum_fingerprints(L, n)
    fps.sort()
    repeats = fps[1:][fps[1:] == fps[:-1]]  # sorted, with duplicates; isin needs neither
    del fps
    groups: dict[tuple, list[int]] = {}  # exact key -> its masks, ascending
    if len(repeats):
        for masks, L in iter_class_blocks(n, budget):
            rows = np.isin(spectrum_fingerprints(L, n), repeats)
            for mask, row in zip(masks[rows].tolist(), L[rows].tolist()):
                groups.setdefault(Spectrum(n, tuple(row)).cospectral_key(), []).append(mask)
    divs = proper_divisors(n)
    collisions = tuple(
        tuple(IcgSpec(n, mask_divisors(m, divs)).canonical() for m in group)
        for group in sorted(g for g in groups.values() if len(g) > 1)
    )
    return SoReport(n, sets, collisions)


@dataclass(frozen=True)
class ExtremalReport:
    """Minimum energy over the divisor sets of n, with the predicted value."""

    n: int
    connected_only: bool
    min_energy: int
    argmin_sets: tuple[tuple[int, ...], ...]
    conjecture_value: int | None
    conjecture_holds: bool | None

    def to_json_dict(self) -> dict:
        d = {
            "n": self.n,
            "connected_only": self.connected_only,
            "min_energy": self.min_energy,
            "argmin_sets": [list(ds) for ds in self.argmin_sets],
        }
        if self.conjecture_value is not None:
            d["conjecture_value"] = self.conjecture_value
            d["conjecture_holds"] = self.conjecture_holds
        return d


def predicted_min_energy_set(n: int) -> tuple[int, ...]:
    """The divisor set predicted to minimize energy among connected ICGs.

    Even n: all odd proper divisors (giving K_{n/2,n/2}).  Odd n: all proper
    divisors not divisible by the smallest prime factor.
    """
    if n % 2 == 0:
        return tuple(d for d in proper_divisors(n) if d % 2)
    p = prime_factors(n)[0]
    return tuple(d for d in proper_divisors(n) if d % p)


def min_energy_search(
    n: int, connected_only: bool = True, budget: int = DEFAULT_BUDGET
) -> ExtremalReport:
    """Exhaustive minimum of E(ICG_n(D)) over divisor sets D.

    With connected_only (the default) only connected graphs (gcd(D) = 1)
    compete, and the report carries the predicted minimum for comparison: n
    itself for even n, 2n(1 - 1/p) for odd n with smallest prime p.

    Connectivity is the rule of graphs.connectivity, gcd(D) = 1, tested on
    the masks: gcd(D) = 1 exactly when, for every prime p of n, some divisor
    in D is prime to p, i.e. the mask meets the bitmask of the proper
    divisors prime to p.
    """
    divs = proper_divisors(n)
    prime_to = [divisor_mask(n, [d for d in divs if d % p]) for p in prime_factors(n)]
    best = None
    argmin: list[int] = []
    for masks, L in iter_class_blocks(n, budget):
        energies = block_energies(L, n)
        if connected_only:
            keep = masks & prime_to[0] != 0
            for bits in prime_to[1:]:
                keep &= masks & bits != 0
            masks, energies = masks[keep], energies[keep]
        # never empty: each block holds an odd mask, and divisor 1 is prime to every p
        low = int(energies.min())
        if best is None or low < best:
            best, argmin = low, []
        if low == best:
            argmin.extend(masks[energies == low].tolist())
    sets = [mask_divisors(m, divs) for m in argmin]
    sets.sort(key=lambda ds: ",".join(str(d) for d in ds))
    value = holds = None
    if connected_only:
        if n % 2 == 0:
            value = n
        else:
            value = 2 * n - 2 * (n // prime_factors(n)[0])
        holds = best == value and predicted_min_energy_set(n) in sets
    return ExtremalReport(n, connected_only, best, tuple(sets), value, holds)


def bipartite_extremal_spectrum(n: int) -> Spectrum:
    """Spectrum of ICG_n(all odd proper divisors) for even n.

    The graph is the complete bipartite K_{n/2,n/2} (even vertices vs odd),
    so the spectrum must be n/2 at position 0, -n/2 at position n/2 and 0
    elsewhere; that shape is asserted before returning.
    """
    if n % 2:
        raise ValueError(f"even n required, got {n}")
    spec = IcgSpec(n, predicted_min_energy_set(n))
    s = spectrum(spec)
    expected = tuple(n // 2 if e == n else -(n // 2) if e == n // 2 else 0 for e in divisors(n))
    if s.classes != expected:
        raise ArithmeticError(f"unexpected spectrum for {spec}: {s.values}")
    return s
