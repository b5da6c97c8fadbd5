"""Graph construction, validation, and the exact Ramanujan-sum spectrum."""

import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from icgraph import graphs
from icgraph.arith import euler_phi
from icgraph.graphs import (
    IcgSpec,
    Spectrum,
    adjacency,
    component_decomposition,
    connectivity,
    degree,
    parse_spec,
    spectrum,
    symbol_set,
)


def test_spec_validation_accepts_and_canonicalizes():
    spec = IcgSpec(12, (4, 1, 2))
    assert spec.divisors == (1, 2, 4)
    assert spec.canonical() == "12:1,2,4"
    assert IcgSpec(6, [3, 1]) == IcgSpec(6, (1, 3))


def test_spec_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        IcgSpec(1, (1,))
    with pytest.raises(ValueError):
        IcgSpec(6, ())
    with pytest.raises(ValueError):
        IcgSpec(6, (1, 1))
    with pytest.raises(ValueError):
        IcgSpec(6, (4,))  # not a divisor
    with pytest.raises(ValueError):
        IcgSpec(6, (6,))  # not proper
    with pytest.raises(ValueError):
        IcgSpec(6, (0,))


def test_spec_rejects_bool_divisors():
    """True is an int, but "12:True" would not parse back."""
    for ds in ((True,), (False,), (True, 3)):
        with pytest.raises(ValueError, match="must be a positive integer"):
            IcgSpec(12, ds)
    for spec in (IcgSpec(12, (1,)), IcgSpec(12, (1, 3)), IcgSpec(720720, (1, 7, 360360))):
        assert parse_spec(spec.canonical()) == spec


def test_spec_and_spectrum_are_immutable_values():
    """repr, equality and hash follow the fields; assignment fails; copies are equal."""
    spec = IcgSpec(12, (4, 1))
    assert repr(spec) == "IcgSpec(n=12, divisors=(1, 4))"
    s = spectrum(IcgSpec(6, (1,)))
    assert repr(s) == "Spectrum(n=6, classes=(1, -1, -2, 2))"
    assert spec == IcgSpec(12, (1, 4)) and hash(spec) == hash(IcgSpec(12, (1, 4)))
    assert spec != IcgSpec(12, (1, 2)) and spec != (12, (1, 4))
    assert s == Spectrum(6, (1, -1, -2, 2)) and hash(s) == hash(Spectrum(6, (1, -1, -2, 2)))
    assert s != Spectrum(6, (1, -1, -2, 1)) and s != (6, (1, -1, -2, 2))
    assert spec != Spectrum(12, (1, 4))  # equal fields, another record class
    for obj, field in ((spec, "n"), (spec, "divisors"), (s, "n"), (s, "classes")):
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        s.values = ()
    for obj in (spec, s):
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)
    assert pickle.loads(pickle.dumps(s)).values == s.values
    assert IcgSpec.__match_args__ == ("n", "divisors")
    assert Spectrum.__match_args__ == ("n", "classes")
    assert hash(spec) == hash((12, (1, 4))) and hash(s) == hash((6, (1, -1, -2, 2)))
    match spec:
        case IcgSpec(n, ds):
            assert (n, ds) == (12, (1, 4))
        case _:
            pytest.fail("IcgSpec(n, ds) did not match")
    match s:
        case Spectrum(n, classes):
            assert (n, classes) == (6, (1, -1, -2, 2))
        case _:
            pytest.fail("Spectrum(n, classes) did not match")


def test_spectrum_is_not_a_sequence_and_expands_values_once(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return class_index(n)

    class_index = graphs.class_index
    monkeypatch.setattr(graphs, "class_index", counted)
    s = spectrum(IcgSpec(12, (1, 4)))
    with pytest.raises(TypeError):
        len(s)
    with pytest.raises(TypeError):
        iter(s)
    first = s.values
    assert s.values is first and s.values is first
    assert first == (6, -1, 1, 2, -3, -1, -2, -1, -3, 2, 1, -1) and calls == [12]


def test_parse_spec():
    assert parse_spec("6:1,3") == IcgSpec(6, (1, 3))
    assert parse_spec("2:1") == IcgSpec(2, (1,))
    for bad in ("6", "6:", "6:3,1", "6:1,1", "six:1", "6:1,x", ":1"):
        with pytest.raises(ValueError):
            parse_spec(bad)


def test_symbol_sets():
    assert symbol_set(IcgSpec(6, (1,))) == {1, 5}
    assert symbol_set(IcgSpec(4, (1, 2))) == {1, 2, 3}
    assert symbol_set(IcgSpec(6, (1, 3))) == {1, 3, 5}
    # symmetric: s in S iff n - s in S
    for spec in (IcgSpec(30, (2, 3)), IcgSpec(36, (1, 4, 9)), IcgSpec(48, (3, 8))):
        S = symbol_set(spec)
        assert {spec.n - s for s in S} == S
        assert len(S) == degree(spec)


def test_spectrum_anchors():
    assert spectrum(IcgSpec(2, (1,))).values == (1, -1)
    assert spectrum(IcgSpec(4, (1,))).values == (2, 0, -2, 0)
    assert spectrum(IcgSpec(6, (1,))).values == (2, 1, -1, -2, -1, 1)
    assert spectrum(IcgSpec(6, (1, 3))).values == (3, 0, 0, -3, 0, 0)
    assert spectrum(IcgSpec(9, (1,))).values == (6, 0, 0, -3, 0, 0, -3, 0, 0)


def test_spectrum_structure():
    for spec in (
        IcgSpec(12, (1, 2, 3)),
        IcgSpec(30, (2, 3)),
        IcgSpec(36, (4, 6, 9)),
        IcgSpec(97, (1,)),
        IcgSpec(100, (1, 4, 25, 50)),
    ):
        vals = spectrum(spec).values
        n = spec.n
        assert len(vals) == n
        assert vals[0] == degree(spec) == sum(euler_phi(n // d) for d in spec.divisors)
        assert sum(vals) == 0  # trace of the adjacency matrix
        for j in range(1, n):
            assert vals[j] == vals[n - j]  # palindromic
        assert all(isinstance(v, int) for v in vals)


def test_spectrum_matches_dense_eigensolver():
    """Independent check: numpy's symmetric eigensolver on the adjacency matrix."""
    cases = [
        IcgSpec(8, (1, 4)),
        IcgSpec(12, (2, 3)),
        IcgSpec(15, (1, 3)),
        IcgSpec(18, (1, 2, 9)),
        IcgSpec(24, (3, 4, 8)),
        IcgSpec(30, (1, 6, 15)),
    ]
    for spec in cases:
        A = adjacency(spec).astype(float)
        dense = np.sort(np.linalg.eigvalsh(A))
        exact = np.sort(np.array(spectrum(spec).values, dtype=float))
        assert np.max(np.abs(dense - exact)) < 1e-8, spec


def test_spectrum_at_names_a_non_divisor():
    s = spectrum(IcgSpec(12, (1, 3)))
    assert s.at(12) == degree(IcgSpec(12, (1, 3)))
    for e in (5, 0, 24, -3):
        with pytest.raises(ValueError, match=rf"{e} is not a divisor of n=12"):
            s.at(e)


def test_adjacency_shape():
    spec = IcgSpec(10, (1, 5))
    A = adjacency(spec)
    n = spec.n
    assert A.shape == (n, n)
    assert (A == A.T).all()
    assert (np.diag(A) == 0).all()
    assert (A.sum(axis=1) == degree(spec)).all()
    # circulant: every row is a rotation of row 0
    for i in range(n):
        assert (A[i] == np.roll(A[0], i)).all()


def test_adjacency_guard():
    with pytest.raises(ValueError):
        adjacency(IcgSpec(20002, (1,)))


def test_cospectral_key_is_the_multiset_key():
    s = spectrum(IcgSpec(6, (1, 3)))
    assert s.cospectral_key() == ((-3, 1), (0, 4), (3, 1))
    assert len(s.values) == 6 and s.values[0] == 3 and s.values[3] == -3


def test_connectivity():
    assert connectivity(IcgSpec(6, (1, 3))) == 1
    assert connectivity(IcgSpec(12, (2, 4))) == 2
    assert connectivity(IcgSpec(18, (6,))) == 6
    assert connectivity(IcgSpec(12, (4, 6))) == 2


def test_component_decomposition():
    d, q = component_decomposition(IcgSpec(12, (2, 4)))
    assert (d, q) == (2, IcgSpec(6, (1, 2)))
    d, q = component_decomposition(IcgSpec(18, (6,)))
    assert (d, q) == (6, IcgSpec(3, (1,)))
    assert component_decomposition(IcgSpec(10, (5,))) == (5, IcgSpec(2, (1,)))
    spec = IcgSpec(10, (1, 2))
    assert component_decomposition(spec) == (1, spec)


def test_component_spectrum_multiset():
    # gcd(D) = d splits the graph into d copies of the quotient graph
    for spec, d in [(IcgSpec(12, (2, 4)), 2), (IcgSpec(30, (3, 6)), 3)]:
        dd, quotient = component_decomposition(spec)
        assert dd == d
        big = sorted(spectrum(spec).values)
        small = sorted(spectrum(quotient).values * d)
        assert big == small


def test_single_graph_path_does_not_load_numpy():
    # numpy's BLAS start-up busy-waits on a worker thread; a single-graph
    # query needs no arrays, so it must not pay for that.  Nor for
    # dataclasses, which loads inspect, ast and dis.
    code = (
        "import sys\n"
        "from icgraph import (IcgSpec, closed_forms, cospectral, energy_report,\n"
        "    equienergetic_family, equienergetic_family_second, spectrum)\n"
        "import icgraph.cli\n"
        "icgraph.cli.build_parser()\n"
        "spec = IcgSpec(2 * 3 * 5 * 7 * 11 * 13, (1, 7))\n"
        "assert energy_report(spec).energy == spectrum(spec).energy() > 0\n"
        "assert spectrum(spec).moment(1) == 0\n"
        "closed_forms.energy_two_primes(30030, 7, 11)\n"
        "assert not cospectral(spec, IcgSpec(30030, (1, 11)))\n"
        "key = spectrum(spec).cospectral_key()\n"
        "assert sum(m for _, m in key) == spec.n and key[-1][0] == spectrum(spec).at(spec.n)\n"
        "equienergetic_family(30)\n"
        "equienergetic_family_second(450)\n"
        "assert icgraph.cli.main(['family', '30']) == 0\n"
        "for name in ('numpy', 'dataclasses', 'inspect'):\n"
        "    assert name not in sys.modules, name\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve_once():
    import icgraph

    assert len(set(icgraph.__all__)) == len(icgraph.__all__)
    missing = [name for name in icgraph.__all__ if not hasattr(icgraph, name)]
    assert not missing, missing


def test_public_names_resolve_to_the_objects_of_their_modules():
    import icgraph

    names = ("arith", "closed_forms", "energy", "families", "graphs", "oracle", "sweep")
    modules = [importlib.import_module(f"icgraph.{m}") for m in names]
    for name in icgraph.__all__:
        value = getattr(icgraph, name)
        assert any(getattr(m, name, None) is value for m in modules), name
    assert set(icgraph.__all__) <= set(dir(icgraph))
    with pytest.raises(AttributeError, match="no_such_name"):
        icgraph.no_such_name


@pytest.mark.parametrize("first", [
    "import icgraph.energy",
    "from icgraph import *",
    "from icgraph.cli import main; assert main(['mod4-sweep', '6']) == 0",
])
def test_package_energy_is_the_function_after_any_import(first):
    # icgraph.energy names the function, although a submodule of that name exists
    code = (
        f"{first}\n"
        "import sys, icgraph, icgraph.energy\n"
        "assert icgraph.energy is sys.modules['icgraph.energy'].energy\n"
        "assert icgraph.energy(icgraph.IcgSpec(6, (1,))) == 8\n"
        "assert icgraph.families.cospectral is icgraph.cospectral\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def splitmix64_finalizer(z):
    """The splitmix64 finalizer as first written: every step makes a new array."""
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def test_mix64_in_place_matches_the_splitmix64_finalizer():
    from icgraph.graphs import _mix64

    rng = np.random.default_rng(20061)
    edges = np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64)
    z = np.concatenate([edges, rng.integers(0, 2**64, 4096, dtype=np.uint64, endpoint=False)])
    expected = splitmix64_finalizer(z.copy())
    mixed = z.copy()
    assert _mix64(mixed) is mixed
    assert mixed.tobytes() == expected.tobytes()


def test_spectrum_fingerprints_leave_the_rows_unchanged():
    from icgraph.graphs import spectrum_fingerprints
    from icgraph.sweep import iter_class_blocks

    n = 120
    for masks, L in iter_class_blocks(n):
        before = L.copy()
        every = spectrum_fingerprints(L, n, np.ones(len(L), dtype=bool))
        rows = L[:, -1] <= (n - 1) // 2
        some = spectrum_fingerprints(L, n, rows)
        assert np.array_equal(L, before)
        assert np.array_equal(some, every[rows])
