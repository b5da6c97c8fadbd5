"""Integral circulant graphs and their exact integer spectra.

ICG_n(D) is the graph on vertices 0..n-1 where a ~ b iff gcd(a - b, n) lies
in D, a set of proper divisors of n.  Its connection (symbol) set is the
union of the gcd classes G_n(d) = {k : gcd(k, n) = d}, and its eigenvalues
are integers given by Ramanujan sums:

    lambda_k = sum_{d in D} c(k, n/d),   k = 0..n-1.

Each c(k, n/d) depends on k only through gcd(k, n), so the spectrum is
stored as tau(n) class eigenvalues lambda_e, one per divisor e of n, with
multiplicity phi(n/e) (Klotz & Sander, Some properties of unitary Cayley
graphs, EJC 14 (2007)).  Every phi and mu in these sums and weights is that
of a divisor of n, so one table built from a single factorization of n
(arith.phi_mu_table) is the source of the divisors, the class rows and the
weights phi(n/e) (its phi column reversed, as e -> n/e reverses the
divisors), and a spectrum is one pass over it for the whole divisor set D
(arith.ramanujan_totals).  Such whole per-n tables are cached for the last
few n only (arith.TABLE_CACHE_SIZE), so memory follows the n a caller works
on, not every n a long process has met.
Energy, spectral moments, the cospectral key and its 64-bit fingerprint
are weighted sums or merges over the classes; the index-ordered view
(lambda_0 is the degree, lambda_{n/2} drives the mod-4 energy rule) is
expanded only when a caller asks for it.

The package loads a submodule when one of its names is first used, and
every module imports numpy inside the functions that use it; the
single-graph path uses none of them: spectrum, energy, moments,
class lookups, the cospectral key, cospectral, the two
equienergetic family constructions and the CLI's family verb.  Importing
numpy loads OpenBLAS, whose worker thread busy-waits after start-up: about
0.1 s of CPU on a 2-core x86 VM, over a hundred times what one
energy_report costs at n ~ 10^6.  Every matrix product in
the package is an integer one, which numpy computes without BLAS, so
cli.main pins OpenBLAS to one thread (OPENBLAS_NUM_THREADS=1, unless the
caller set it) before any verb imports numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from typing import TYPE_CHECKING

from .arith import (
    TABLE_CACHE_SIZE,
    divisors,
    euler_phi,
    phi_mu_table,
    ramanujan_totals,
)

if TYPE_CHECKING:
    import numpy as np

ADJACENCY_MAX_N = 20000


@dataclass(frozen=True)
class IcgSpec:
    """A validated pair (n, divisors) naming the graph ICG_n(D).

    The divisor tuple is canonicalized to ascending order; two specs are
    equal exactly when their (n, divisors) pairs are.
    """

    n: int
    divisors: tuple[int, ...]

    def __post_init__(self):
        n = self.n
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"n must be an integer >= 2, got {n!r}")
        ds = tuple(self.divisors)
        if not ds:
            raise ValueError("divisor set must be nonempty")
        if len(set(ds)) != len(ds):
            raise ValueError(f"duplicate divisors in {ds}")
        for d in ds:
            if not isinstance(d, int) or isinstance(d, bool) or d < 1:
                raise ValueError(f"divisor {d!r} must be a positive integer")
            if d >= n:
                raise ValueError(f"divisor {d} must be a proper divisor (< {n})")
            if n % d != 0:
                raise ValueError(f"{d} does not divide {n}")
        object.__setattr__(self, "divisors", tuple(sorted(ds)))

    def canonical(self) -> str:
        """Canonical text form "n:d1,d2,...,dk" with ascending divisors."""
        return f"{self.n}:{','.join(str(d) for d in self.divisors)}"

    def __str__(self) -> str:
        return self.canonical()


def parse_spec(text: str) -> IcgSpec:
    """Parse the canonical form "n:d1,d2,...,dk" (strictly ascending divisors)."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"malformed spec {text!r}: expected 'n:d1,d2,...'")
    try:
        n = int(head)
        ds = tuple(int(part) for part in tail.split(","))
    except ValueError:
        raise ValueError(f"malformed spec {text!r}: non-integer field") from None
    if any(a >= b for a, b in zip(ds, ds[1:])):
        raise ValueError(f"malformed spec {text!r}: divisors must be strictly ascending")
    return IcgSpec(n, ds)


@dataclass(frozen=True)
class Spectrum:
    """Integer eigenvalues of ICG_n(D), one per divisor class of Z_n.

    classes[i] is lambda_e for e = divisors(n)[i]: the eigenvalue at every
    index k with gcd(k, n) = e, so it occurs phi(n/e) times.  The index-ordered
    spectrum (lambda_0 .. lambda_{n-1}) is the one view, `values`, expanded
    on first use; a Spectrum is not itself a sequence.
    """

    n: int
    classes: tuple[int, ...]

    @property
    def multiplicities(self) -> tuple[int, ...]:
        """phi(n/e) for each divisor e of n: how often each class value occurs."""
        return class_weights(self.n)

    def at(self, e: int) -> int:
        """lambda_k for every k with gcd(k, n) = e; e must divide n."""
        try:
            return self.classes[divisors(self.n).index(e)]
        except ValueError:
            raise ValueError(f"{e!r} is not a divisor of n={self.n}") from None

    @cached_property
    def values(self) -> tuple[int, ...]:
        """Eigenvalues in index order, lambda_0 .. lambda_{n-1}."""
        import numpy as np

        return tuple(np.array(self.classes, dtype=np.int64)[class_index(self.n)].tolist())

    def energy(self) -> int:
        """sum of |lambda_k| over k = 0..n-1, i.e. sum phi(n/e) |lambda_e|."""
        return sum(m * abs(v) for v, m in zip(self.classes, self.multiplicities))

    def moment(self, p: int) -> int:
        """sum of lambda_k^p over k = 0..n-1, in exact integers."""
        return sum(m * v**p for v, m in zip(self.classes, self.multiplicities))

    def cospectral_key(self) -> tuple[tuple[int, int], ...]:
        """Distinct eigenvalues, ascending, each with its total multiplicity.

        Classes with equal values merge into one pair, so two graphs of one
        order are cospectral exactly when their keys are equal.
        """
        counts: dict[int, int] = {}
        for v, m in zip(self.classes, self.multiplicities):
            counts[v] = counts.get(v, 0) + m
        return tuple(sorted(counts.items()))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def class_weights(n: int) -> tuple[int, ...]:
    """phi(n/e) for each divisor e of n, in the order of divisors(n).

    e -> n/e reverses the ascending divisors, so this is the phi column of
    phi_mu_table(n) read backwards.
    """
    return tuple(phi for phi, _ in reversed(phi_mu_table(n).values()))


def class_index(n: int) -> np.ndarray:
    """For k = 0..n-1, the position of gcd(k, n) in divisors(n)."""
    import numpy as np

    return np.searchsorted(np.array(divisors(n)), np.gcd(np.arange(n), n))


def block_energies(L: np.ndarray, n: int) -> np.ndarray:
    """Energies of the graphs whose class eigenvalues are the rows of L."""
    import numpy as np

    return np.abs(L) @ np.array(class_weights(n), dtype=np.int64)


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise on a uint64 array (wraps mod 2^64).

    z is mixed in place and returned; each shift takes one temporary array.
    """
    import numpy as np

    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def spectrum_fingerprints(L: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """A uint64 hash of the spectrum multiset of each row of class eigenvalues L.

    Rows with equal Spectrum.cospectral_key give equal fingerprints; the
    converse can fail, so a fingerprint only filters candidates for the exact
    key.  It is the sum over all n eigenvalues of a 64-bit mix of each,
    sum phi(n/e) mix(lambda_e) mod 2^64, which depends on the multiset alone.
    Only the rows that rows, a boolean array over the rows of L, selects are
    fingerprinted.  The fingerprint takes one uint64 copy of those rows
    (the same bits as L, read mod 2^64) and mixes it in place, so L is left
    unchanged and a block costs no second copy.
    """
    import numpy as np

    z = np.asarray(L, dtype=np.int64).view(np.uint64).compress(rows, axis=0)
    return _mix64(z) @ np.array(class_weights(n), dtype=np.uint64)


def spectrum(spec: IcgSpec) -> Spectrum:
    """Exact integer spectrum via the Ramanujan-sum formula, per divisor class.

    The classes of all of D come from one pass over the divisors of n.
    """
    n = spec.n
    return Spectrum(n, ramanujan_totals(divisors(n), [n // d for d in spec.divisors], n))


def symbol_set(spec: IcgSpec) -> set[int]:
    """Connection set S = {k in [1, n-1] : gcd(k, n) in D}."""
    dset = set(spec.divisors)
    return {k for k in range(1, spec.n) if gcd(k, spec.n) in dset}


def degree(spec: IcgSpec) -> int:
    """Common vertex degree |S| = sum of phi(n/d) over d in D (equals lambda_0)."""
    return sum(euler_phi(spec.n // d) for d in spec.divisors)


def adjacency(spec: IcgSpec) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix; guarded to n <= 20000."""
    import numpy as np

    n = spec.n
    if n > ADJACENCY_MAX_N:
        raise ValueError(f"adjacency matrix limited to n <= {ADJACENCY_MAX_N}, got {n}")
    indicator = np.zeros(n, dtype=np.uint8)
    indicator[sorted(symbol_set(spec))] = 1
    A = np.empty((n, n), dtype=np.uint8)
    for i in range(n):
        A[i] = np.roll(indicator, i)
    return A


def connectivity(spec: IcgSpec) -> int:
    """Number of connected components, which equals gcd of the divisor set."""
    return gcd(*spec.divisors)


def component_decomposition(spec: IcgSpec) -> tuple[int, IcgSpec]:
    """Split ICG_n(D) into d = gcd(D) isomorphic copies of ICG_{n/d}(D/d).

    Returns (d, quotient spec); for a connected graph this is (1, spec).
    """
    d = connectivity(spec)
    if d == 1:
        return 1, spec
    quotient = IcgSpec(spec.n // d, tuple(x // d for x in spec.divisors))
    return d, quotient
