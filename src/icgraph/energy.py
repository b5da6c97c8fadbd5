"""Graph energy of ICGs and its residue mod 4.

The energy E = sum |lambda_j| of an integral circulant graph is always an
even integer, and its residue mod 4 obeys a clean dichotomy:

* odd n: E is divisible by 4, full stop;
* even n: E == 2 (mod 4) exactly when n/2 is in the divisor set and the
  middle eigenvalue lambda_{n/2} is negative, and E == 0 (mod 4) otherwise.

Note the even rule keys on n/2 BEING in D.  Flipping that to "n/2 not in D
and lambda_{n/2} < 0" looks symmetric but fails already at ICG_6({1}) (the
6-cycle): there 3 is not in D and lambda_3 = -2, yet E = 8 is divisible by
4.  Exhaustive sweeps (mod4_sweep) confirm the rule implemented here with
no exceptions.

The sweep has one definition, mod4_blocks: energies, residues and
predictions of a block of divisor sets at a time, as arrays.  mod4_sweep
and the CLI name a block's masks whose residue is off the prediction with
sweep.spec_names, and the CLI formats its rows a block at a time.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import divisors, euler_phi
from .graphs import IcgSpec, block_energies, spectrum
from .sweep import DEFAULT_BUDGET, divisor_mask, iter_class_blocks, spec_names


def energy(spec: IcgSpec) -> int:
    """E(ICG_n(D)) = sum of |lambda_j|, an exact (and always even) integer."""
    return spectrum(spec).energy()


def lambda_half(spec: IcgSpec) -> int:
    """The middle eigenvalue lambda_{n/2} = sum_{d in D} (-1)^d phi(n/d).

    Only even n has a middle eigenvalue; odd n raises ValueError.
    """
    if spec.n % 2:
        raise ValueError(f"lambda_{{n/2}} needs even n, got n={spec.n}")
    return sum((-1) ** d * euler_phi(spec.n // d) for d in spec.divisors)


def _residue_rule(half_in_d, middle):
    """The even-n prediction: 2 where n/2 is in D and lambda_{n/2} < 0, else 0.

    Works on plain bools and ints, and elementwise on numpy arrays.
    """
    return 2 * (half_in_d & (middle < 0))


def is_hyperenergetic(n: int, e: int) -> bool:
    """True iff energy e on n vertices exceeds E(K_n) = 2n - 2."""
    return e > 2 * n - 2


class EnergyReport(NamedTuple):
    """Everything the mod-4 classification needs about one graph."""

    spec: IcgSpec
    energy: int
    residue4: int
    predicted4: int
    lambda_half: int | None
    half_in_D: bool
    hyperenergetic: bool

    def to_json_dict(self) -> dict:
        d = {
            "spec": self.spec.canonical(),
            "n": self.spec.n,
            "D": list(self.spec.divisors),
            "energy": self.energy,
            "residue4": self.residue4,
            "predicted4": self.predicted4,
            "half_in_D": self.half_in_D,
            "hyperenergetic": self.hyperenergetic,
        }
        if self.lambda_half is not None:
            d["lambda_half"] = self.lambda_half
        return d


def energy_report(spec: IcgSpec) -> EnergyReport:
    """Bundle energy, observed and predicted residue, and the middle-eigenvalue data."""
    s = spectrum(spec)
    e = s.energy()
    even = spec.n % 2 == 0
    half_in_d = even and spec.n // 2 in spec.divisors
    middle = s.at(spec.n // 2) if even else None
    return EnergyReport(
        spec=spec,
        energy=e,
        residue4=e % 4,
        predicted4=_residue_rule(half_in_d, middle) if even else 0,
        lambda_half=middle,
        half_in_D=half_in_d,
        hyperenergetic=is_hyperenergetic(spec.n, e),
    )


def mod4_blocks(n: int, budget: int = DEFAULT_BUDGET):
    """Yield (masks, energies, residue4, predicted4) for every D of n, a block at a time.

    The four are int64 arrays with one entry per divisor set, in the blocks
    of iter_class_blocks (ascending masks).  Energies and middle eigenvalues
    come from the class eigenvalues of the whole block, so no graph is
    built on its own.
    """
    import numpy as np

    even = n % 2 == 0
    half = divisors(n).index(n // 2) if even else None  # the class column of n/2
    half_bit = divisor_mask(n, (n // 2,)) if even else 0
    for masks, L in iter_class_blocks(n, budget):
        energies = block_energies(L, n)
        if half is None:
            predicted = np.zeros_like(masks)
        else:
            predicted = _residue_rule(masks & half_bit != 0, L[:, half])
        yield masks, energies, energies % 4, predicted


class Mod4Summary(NamedTuple):
    n: int
    sets: int
    violations: tuple[str, ...]


def mod4_sweep(n: int, budget: int = DEFAULT_BUDGET) -> Mod4Summary:
    """Check residue4 == predicted4 over every divisor set of n."""
    sets = 0
    bad = []
    for masks, _, residues, predicted in mod4_blocks(n, budget):
        sets += len(masks)
        bad += spec_names(n, masks[residues != predicted])
    return Mod4Summary(n, sets, tuple(bad))
