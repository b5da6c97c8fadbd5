#!/usr/bin/env python3
"""Integer spectra of gcd graphs, computed three ways.

ICG_n(D) lives on Z_n with a ~ b iff gcd(a - b, n) is in D.  Its eigenvalues
are integers: lambda_k is a sum of Ramanujan sums, one per divisor in D.
This script builds a few small graphs and checks the exact spectrum against
(1) a plain cosine sum over the symbol set and (2) numpy's dense
eigendecomposition of the adjacency matrix.
"""

import numpy as np

from icgraph import IcgSpec, adjacency, parse_spec, spectrum, symbol_set
from icgraph.oracle import spectrum_trig

for text in ("6:1", "6:1,3", "12:1,4", "30:2,3", "45:1,9"):
    spec = parse_spec(text)
    s = spectrum(spec)
    print(f"ICG_{spec.n}({set(spec.divisors)})")
    print(f"  symbol set       {sorted(symbol_set(spec))}")
    print(f"  spectrum (by k)  {list(s.values)}")
    print(f"  degree = lambda_0 = {s.values[0]},  sum of spectrum = {sum(s.values)}")

    # route 2: cosine sums, rounded
    trig = spectrum_trig(spec)
    assert np.abs(trig - np.array(s.values)).max() < 1e-9

    # route 3: eigenvalues of the actual 0/1 circulant matrix
    eig = np.linalg.eigvalsh(adjacency(spec))
    assert np.abs(np.sort(eig) - np.sort(np.array(s.values, float))).max() < 1e-8

    # index symmetry lambda_k = lambda_{n-k}
    assert all(s.values[k] == s.values[spec.n - k] for k in range(1, spec.n))
    print("  cosine oracle, dense eigensolver and palindrome check all agree")
    print()

print("all spectra confirmed by two independent routes")
