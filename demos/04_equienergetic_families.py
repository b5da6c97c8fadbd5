#!/usr/bin/env python3
"""Distinct graphs, identical energy.

Take n with at least two primes dividing it exactly once.  The unitary
graph ICG_n({1}) and every ICG_n({p_i, p_j}) built from those primes share
the energy 2^k * phi(n) (k = number of distinct primes of n) while having
visibly different spectra.  A second construction pairs {2, q} sets for
n = 2 mod 4 with repeated odd primes q.
"""

from icgraph import (
    IcgSpec,
    cospectral,
    energy_report,
    equienergetic_family,
    equienergetic_family_second,
    second_spectral_value,
    spectrum,
)

print("first construction at n = 30:")
fam = equienergetic_family(30)
for member in fam.members:
    s = spectrum(member)
    print(f"  {member.canonical():8s} spectrum {sorted(s.values, reverse=True)}")
print(f"  common energy {fam.common_energy}; hyperenergetic (E > 2n-2 = 58): "
      f"{fam.all_hyperenergetic}")
assert not cospectral(fam.members[0], fam.members[1])
print()

print("the same recipe fires at every admissible order; a few more:")
for n in (15, 42, 66, 105, 210):
    fam = equienergetic_family(n)
    print(f"  n={n:4d}: {len(fam.members)} members, common energy {fam.common_energy},"
          f" all hyperenergetic: {fam.all_hyperenergetic}")
print()

print("second construction (n = 2 mod 4, repeated odd primes):")
for n in (450, 882, 1350):
    fam = equienergetic_family_second(n)
    names = ", ".join(m.canonical() for m in fam.members)
    print(f"  n={n}: {names} -> energy {fam.common_energy}")
print()

print("largest non-trivial |eigenvalue| for two-prime sets (closed form):")
for n, p, q in ((30, 2, 3), (30, 3, 5), (105, 3, 5), (105, 5, 7)):
    v = second_spectral_value(n, p, q)
    vals = spectrum(IcgSpec(n, (p, q))).values
    assert v == max(abs(x) for x in vals[1:])
    print(f"  n={n:4d} D={{{p},{q}}}: max |lambda_t| over t >= 1 is {v}")

print()
print("footnote: K_7 itself is not hyperenergetic: "
      f"{energy_report(IcgSpec(7, (1,))).hyperenergetic}")
