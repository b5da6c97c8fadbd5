"""Exact spectra and energies of integral circulant graphs.

ICG_n(D) is the graph on Z_n where a ~ b iff gcd(a - b, n) lies in the
divisor set D.  Its eigenvalues are integers (sums of Ramanujan sums), so
everything spectral here is exact integer arithmetic; floating point only
appears in the independent trigonometric cross-check oracle.
"""

from .arith import divisors, euler_phi, factorize, is_prime, mobius, prime_factors, ramanujan
from .closed_forms import (
    ClosedFormCase,
    Family,
    classify_case,
    cross_validate,
    energy_one_prime_power,
    energy_two_primes,
)
from .energy import (
    EnergyReport,
    energy,
    energy_report,
    hyperenergetic,
    lambda_half,
    mod4_predicted,
    mod4_sweep,
)
from .families import (
    ExtremalReport,
    FamilyReport,
    SoReport,
    bipartite_extremal_spectrum,
    cospectral,
    equienergetic_family,
    equienergetic_family_second,
    min_energy_search,
    predicted_min_energy_set,
    second_spectral_value,
    so_conjecture_check,
)
from .graphs import (
    IcgSpec,
    Spectrum,
    adjacency,
    component_decomposition,
    connectivity,
    degree,
    parse_spec,
    spectrum,
    symbol_set,
    validate,
)
from .oracle import (
    MomentReport,
    OracleReport,
    compare_spectra,
    count_four_cycles,
    energy_lower_bounds,
    moments,
    spectrum_trig,
    verify_against_trig,
)
from .sweep import BudgetExceeded, DEFAULT_BUDGET, proper_divisors, subset_count

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "ClosedFormCase",
    "DEFAULT_BUDGET",
    "EnergyReport",
    "ExtremalReport",
    "Family",
    "FamilyReport",
    "IcgSpec",
    "MomentReport",
    "OracleReport",
    "SoReport",
    "Spectrum",
    "adjacency",
    "bipartite_extremal_spectrum",
    "classify_case",
    "compare_spectra",
    "component_decomposition",
    "connectivity",
    "cospectral",
    "count_four_cycles",
    "cross_validate",
    "degree",
    "divisors",
    "energy",
    "energy_lower_bounds",
    "energy_one_prime_power",
    "energy_report",
    "energy_two_primes",
    "equienergetic_family",
    "equienergetic_family_second",
    "euler_phi",
    "factorize",
    "hyperenergetic",
    "is_prime",
    "lambda_half",
    "min_energy_search",
    "mobius",
    "mod4_predicted",
    "mod4_sweep",
    "moments",
    "parse_spec",
    "predicted_min_energy_set",
    "prime_factors",
    "proper_divisors",
    "ramanujan",
    "second_spectral_value",
    "so_conjecture_check",
    "spectrum",
    "spectrum_trig",
    "subset_count",
    "symbol_set",
    "validate",
    "verify_against_trig",
]
