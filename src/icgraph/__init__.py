"""Exact spectra and energies of integral circulant graphs.

ICG_n(D) is the graph on Z_n where a ~ b iff gcd(a - b, n) lies in the
divisor set D.  Its eigenvalues are integers (sums of Ramanujan sums), so
everything spectral here is exact integer arithmetic; floating point only
appears in the independent trigonometric cross-check oracle.

Submodules load on first use: a public name (or a submodule name) imports
its module when it is first read, so a program pays only for the modules
it touches.
"""

from importlib import import_module

# Eager, so that icgraph.energy is this function under every import order:
# importing the submodule later finds it loaded and leaves the name alone.
from .energy import energy

__version__ = "0.1.0"

# Each submodule and the public names it defines, loaded by __getattr__.
_EXPORTS = {
    "arith": ("divisors", "euler_phi", "factorize", "is_prime", "mobius", "prime_factors",
              "ramanujan"),
    "closed_forms": ("ClosedFormCase", "Family", "classify_case", "cross_validate",
                     "energy_one_prime_power", "energy_two_primes"),
    "energy": ("EnergyReport", "energy_report", "lambda_half", "mod4_sweep"),
    "families": ("ExtremalReport", "FamilyReport", "SoReport", "bipartite_extremal_spectrum",
                 "cospectral", "equienergetic_family", "equienergetic_family_second",
                 "min_energy_search", "predicted_min_energy_set", "second_spectral_value",
                 "so_conjecture_check"),
    "graphs": ("IcgSpec", "Spectrum", "adjacency", "component_decomposition", "connectivity",
               "degree", "parse_spec", "spectrum", "symbol_set"),
    "oracle": ("MomentReport", "OracleReport", "compare_spectra", "count_four_cycles",
               "energy_lower_bounds", "moments", "spectrum_trig", "verify_against_trig"),
    "sweep": ("BudgetExceeded", "DEFAULT_BUDGET", "proper_divisors", "subset_count"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["energy", *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
