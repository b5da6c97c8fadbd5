#!/usr/bin/env python3
"""Closed-form energies versus direct eigenvalue sums.

Two families admit exact formulas in terms of the totient:

  * D = {1, p^gamma}   ("one and a prime power"), three branches depending
    on how p^gamma sits inside the factorization of n;
  * D = {p, q}         (two distinct primes), five branches.

The subtle branch is gamma >= 2 with p^gamma a proper power divisor: the
correction term multiplies phi(n / p^gamma) — using phi(n/p) there looks
plausible and is wrong whenever gamma > 1, as the n = 8 row shows.
"""

from icgraph import IcgSpec, classify_case, cross_validate, energy
from icgraph.arith import euler_phi
from icgraph.closed_forms import Family

print("D = {1, p^gamma}:")
for n, p, gamma in ((6, 2, 1), (4, 2, 1), (9, 3, 1), (8, 2, 2), (18, 3, 2), (24, 2, 3)):
    case = classify_case(n, Family.ONE_AND_PRIME_POWER, (p, gamma))
    direct = energy(IcgSpec(n, (1, p**gamma)))
    print(f"  n={n:3d} p={p} gamma={gamma}  branch {case.case_tag}: "
          f"formula {case.energy:4d}  direct {direct:4d}")
    assert case.energy == direct

# the trap, spelled out for n = 8, p = 2, gamma = 2 (branch 2):
n, p, gamma = 8, 2, 2
wrong = 2 ** 0 * (2 * euler_phi(n) + (p**gamma - 2 * p + 2) * euler_phi(n // p))
right = 2 ** 0 * (2 * euler_phi(n) + (p**gamma - 2 * p + 2) * euler_phi(n // p**gamma))
print(f"\n  n=8: phi(n/p) variant gives {wrong}, phi(n/p^gamma) gives {right}, "
      f"direct energy is {energy(IcgSpec(8, (1, 4)))}")

print("\nD = {p, q}:")
for n, p, q in ((15, 3, 5), (30, 2, 3), (18, 2, 3), (75, 3, 5), (45, 3, 5), (36, 2, 3)):
    case = classify_case(n, Family.TWO_PRIMES, (p, q))
    direct = energy(IcgSpec(n, (p, q)))
    print(f"  n={n:3d} p={p} q={q}  branch {case.case_tag}: "
          f"formula {case.energy:4d}  direct {direct:4d}")
    assert case.energy == direct

rows = cross_validate(300)
assert all(r.match for r in rows)
print(f"\nformula = direct for all {len(rows)} admissible cases with n <= 300")
