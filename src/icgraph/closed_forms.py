"""Closed-form energies for the two solved divisor-set shapes.

Two families of ICGs have fully worked-out energy formulas, with the branch
depending on how the chosen primes sit inside the factorization of n
(throughout, k is the number of distinct primes of n and p^alpha_p || n):

* X_n(1, p^gamma), the divisor set {1, p^gamma}:
    branch 1  p || n:                 2^(k-1) * (phi(n) + phi(n/p))
    branch 2  gamma = alpha_p >= 2:   2^(k-1) * (2 phi(n) + (p^gamma - 2p + 2) phi(n/p^gamma))
    branch 3  gamma < alpha_p:        2^k     * (phi(n) + (p^gamma - p + 1) phi(n/p^gamma))

  (In branches 2 and 3 the totient argument really is n/p^gamma; the
  gamma = 1 special case is where the familiar phi(n/p) form comes from.
  E(ICG_8({1,4})) = 14 and E(ICG_18({1,9})) = 34 pin this down.)

* X_n(p, q), the divisor set {p, q} with primes p < q:
    branch 1  p || n, q || n:         2^k * phi(n)
    branch 2  p = 2 || n, q^2 | n:    3 * 2^(k-1) * phi(n)
    branch 3  p || n, q^2 | n, p odd: 2^(k-1) * (2 phi(n) + phi(n/q) phi(q))
    branch 4  p^2 | n, q || n:        2^(k-1) * (2 phi(n) + phi(n/p) phi(p))
    branch 5  p^2 | n, q^2 | n:       2^(k-1) * (2 phi(n) + phi(n/p) phi(p) + phi(n/q) phi(q))

`classify_case` is the one place a case is decided: it validates the input,
reads the branch from one factorization of n and returns the branch with
its energy, computing only the totients that branch uses.  A given prime
that factorize(n) lists is prime and divides n, so it is not trial-divided
again; only a value outside factorize(n) is tested, to name the error.
`energy_one_prime_power` and `energy_two_primes` return that energy.

`cross_validate` re-derives every admissible instance from the exact
spectrum and confirms the formulas match, which is how the branch table
above was itself vetted.  The equienergetic families (`families`) check
their common energy against these formulas: X_n(p, q) branch 1 for the
first construction, branch 2 for the second.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .arith import euler_phi, factorize, is_prime, prime_factors
from .energy import energy
from .graphs import IcgSpec


class Family(enum.Enum):
    ONE_AND_PRIME_POWER = "one-and-prime-power"
    TWO_PRIMES = "two-primes"

    @property
    def parameter_names(self) -> tuple[str, str]:
        """Names of the two parameters, as the CLI and the CSV label them."""
        return ("p", "gamma") if self is Family.ONE_AND_PRIME_POWER else ("p", "q")


@dataclass(frozen=True)
class ClosedFormCase:
    family: Family
    case_tag: int
    parameters: tuple[int, ...]
    energy: int


def _check_primes(n: int, primes: tuple[int, ...]) -> dict[int, int]:
    """The checks both families share: n >= 4, and each prime is prime and divides n.

    Returns the exponent of every prime of n.  A prime of n passes both
    checks at once, so only an x outside factorize(n) is tried for primality.
    """
    if n < 4:
        raise ValueError(f"closed forms need n >= 4, got {n}")
    exponents = dict(factorize(n))
    for x in primes:
        if x not in exponents:
            if not is_prime(x):
                raise ValueError(f"{x} is not prime")
            raise ValueError(f"{x} does not divide {n}")
    return exponents


def classify_case(n: int, family: Family, parameters: tuple[int, ...]) -> ClosedFormCase:
    """Resolve which theorem branch applies (exactly one always does) and its energy."""
    if family is Family.ONE_AND_PRIME_POWER:
        p, gamma = parameters
        exponents = _check_primes(n, (p,))
        alpha = exponents[p]
        if not 1 <= gamma <= alpha:
            raise ValueError(f"gamma={gamma} outside 1..{alpha} for p={p}, n={n}")
        if p ** gamma == n:
            raise ValueError(f"p^gamma = {n} is not a proper divisor of n")
        k = len(exponents)
        phi_n = euler_phi(n)
        if alpha == 1:
            tag, value = 1, 2 ** (k - 1) * (phi_n + euler_phi(n // p))
        elif gamma == alpha:
            phi_npg = euler_phi(n // p ** gamma)
            tag, value = 2, 2 ** (k - 1) * (2 * phi_n + (p ** gamma - 2 * p + 2) * phi_npg)
        else:
            phi_npg = euler_phi(n // p ** gamma)
            tag, value = 3, 2 ** k * (phi_n + (p ** gamma - p + 1) * phi_npg)
        return ClosedFormCase(family, tag, (n, p, gamma), value)
    if family is Family.TWO_PRIMES:
        p, q = parameters
        exponents = _check_primes(n, (p, q))
        if p == q:
            raise ValueError("p and q must be distinct")
        if p > q:
            raise ValueError(f"primes must be given in order p < q, got {p} > {q}")
        ap, aq = exponents[p], exponents[q]
        k = len(exponents)
        phi_n = euler_phi(n)
        if ap == 1 and aq == 1:
            tag, value = 1, 2 ** k * phi_n
        elif ap == 1 and p == 2:
            tag, value = 2, 3 * 2 ** (k - 1) * phi_n
        elif ap == 1:
            tag, value = 3, 2 ** (k - 1) * (2 * phi_n + euler_phi(n // q) * euler_phi(q))
        elif aq == 1:
            tag, value = 4, 2 ** (k - 1) * (2 * phi_n + euler_phi(n // p) * euler_phi(p))
        else:
            tag, value = 5, 2 ** (k - 1) * (
                2 * phi_n + euler_phi(n // p) * euler_phi(p) + euler_phi(n // q) * euler_phi(q)
            )
        return ClosedFormCase(family, tag, (n, p, q), value)
    raise ValueError(f"unknown family {family!r}")


def energy_one_prime_power(n: int, p: int, gamma: int) -> int:
    """E(ICG_n({1, p^gamma})) by formula, without touching the spectrum."""
    return classify_case(n, Family.ONE_AND_PRIME_POWER, (p, gamma)).energy


def energy_two_primes(n: int, p: int, q: int) -> int:
    """E(ICG_n({p, q})) by formula, for primes p < q dividing n."""
    return classify_case(n, Family.TWO_PRIMES, (p, q)).energy


@dataclass(frozen=True)
class CrossValidationRow:
    n: int
    family: Family
    parameters: tuple[int, ...]
    branch: int
    formula: int
    direct: int

    @property
    def match(self) -> bool:
        return self.formula == self.direct

    def csv_fields(self) -> tuple:
        names = self.family.parameter_names
        return (
            self.n,
            self.family.value,
            ";".join(f"{name}={value}" for name, value in zip(names, self.parameters)),
            self.branch,
            self.formula,
            self.direct,
            self.match,
        )


CSV_HEADER = ("n", "family", "parameters", "branch", "formula", "direct", "match")


def iter_admissible(n: int):
    """All (family, parameters) pairs the theorems cover for this n."""
    primes = prime_factors(n)
    for p, alpha in factorize(n):
        for gamma in range(1, alpha + 1):
            if p ** gamma != n:
                yield Family.ONE_AND_PRIME_POWER, (p, gamma)
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            yield Family.TWO_PRIMES, (p, q)


def cross_validate(n_max: int) -> list[CrossValidationRow]:
    """Formula vs direct spectral energy for every admissible case, n <= n_max.

    Deterministic row order: ascending n, prime-power cases before pairs,
    parameters ascending within each family.
    """
    if n_max < 4:
        raise ValueError(f"need n_max >= 4, got {n_max}")
    rows = []
    for n in range(4, n_max + 1):
        for family, params in iter_admissible(n):
            case = classify_case(n, family, params)
            p, x = params
            divisor_set = (1, p ** x) if family is Family.ONE_AND_PRIME_POWER else params
            direct = energy(IcgSpec(n, divisor_set))
            rows.append(CrossValidationRow(n, family, params, case.case_tag, case.energy, direct))
    return rows
