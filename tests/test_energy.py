"""Energy values, the mod-4 dichotomy, and the report plumbing."""

import importlib
import json

import pytest

from icgraph.energy import (
    energy,
    energy_report,
    lambda_half,
    mod4_blocks,
    mod4_sweep,
)
from icgraph.graphs import IcgSpec, class_index, spectrum
from icgraph.sweep import (
    iter_class_blocks,
    mask_divisors,
    proper_divisors,
    spec_names,
    subset_count,
)


def test_energy_anchors():
    assert energy(IcgSpec(6, (1, 3))) == 6
    assert energy(IcgSpec(4, (1, 2))) == 6
    assert energy(IcgSpec(9, (1,))) == 12
    assert energy(IcgSpec(6, (1,))) == 8
    assert energy(IcgSpec(15, (1,))) == 32
    assert energy(IcgSpec(30, (2, 3))) == 64


def test_energy_is_always_even():
    for n in range(2, 31):
        for masks, e, _, _ in mod4_blocks(n):
            assert not (e % 2).any(), (n, masks[e % 2 != 0].tolist())


def test_lambda_half():
    assert lambda_half(IcgSpec(6, (1, 3))) == -3
    assert lambda_half(IcgSpec(4, (1, 2))) == -1
    assert lambda_half(IcgSpec(6, (1,))) == -2
    with pytest.raises(ValueError):
        lambda_half(IcgSpec(9, (1,)))


def test_lambda_half_is_positional_eigenvalue():
    for n in range(2, 41, 2):
        divs = proper_divisors(n)
        for masks, L in iter_class_blocks(n):
            for mask, middle in zip(masks.tolist(), L[:, class_index(n)[n // 2]].tolist()):
                spec = IcgSpec(n, mask_divisors(mask, divs))
                assert lambda_half(spec) == middle, spec


def test_middle_and_degree_have_equal_parity():
    for n in range(2, 61, 2):
        divs = proper_divisors(n)
        for masks, _, _, _ in mod4_blocks(n):
            for mask in masks.tolist():
                spec = IcgSpec(n, mask_divisors(mask, divs))
                vals = spectrum(spec).values
                assert (vals[0] - vals[n // 2]) % 2 == 0, spec


def test_mod4_predicted():
    assert energy_report(IcgSpec(9, (1,))).predicted4 == 0  # odd n: always 0
    assert energy_report(IcgSpec(4, (1, 2))).predicted4 == 2  # 2 in D, lambda_2 = -1
    assert energy_report(IcgSpec(6, (1,))).predicted4 == 0  # 3 not in D


def test_six_cycle_boundary_case():
    """ICG_6({1}) separates the two-condition rule from its sign-only variant.

    Here n/2 = 3 is NOT in D and lambda_3 = -2 < 0, yet E = 8 is divisible
    by 4: the 2-residue requires n/2 to be IN the divisor set.
    """
    spec = IcgSpec(6, (1,))
    assert energy(spec) == 8
    assert energy(spec) % 4 == 0
    assert 3 not in spec.divisors
    assert lambda_half(spec) == -2
    assert energy_report(spec).predicted4 == 0


def test_middle_eigenvalue_odd_when_half_in_d():
    # with n/2 in D the middle eigenvalue is odd, so "negative" is never "zero"
    for n in range(2, 61, 2):
        divs = proper_divisors(n)
        for masks, _, _, _ in mod4_blocks(n):
            for mask in masks.tolist():
                ds = mask_divisors(mask, divs)
                if n // 2 in ds:
                    assert lambda_half(IcgSpec(n, ds)) % 2 == 1, (n, ds)


def test_hyperenergetic():
    assert not energy_report(IcgSpec(4, (1, 2))).hyperenergetic  # ties K_n, not strictly above
    assert not energy_report(IcgSpec(6, (1, 3))).hyperenergetic
    assert energy_report(IcgSpec(30, (2, 3))).hyperenergetic  # 64 > 58


def test_energy_report_even():
    r = energy_report(IcgSpec(6, (1, 3)))
    assert r.energy == 6 and r.residue4 == 2 and r.predicted4 == 2
    assert r.lambda_half == -3 and r.half_in_D and not r.hyperenergetic
    d = r.to_json_dict()
    assert d["spec"] == "6:1,3" and d["lambda_half"] == -3


def test_energy_report_odd_omits_middle():
    r = energy_report(IcgSpec(9, (1,)))
    assert r.energy == 12 and r.residue4 == 0 and r.predicted4 == 0
    assert r.lambda_half is None and not r.half_in_D
    assert "lambda_half" not in r.to_json_dict()


def test_energy_report_half_not_in_d():
    r = energy_report(IcgSpec(4, (1,)))
    assert r.energy == 4 and r.residue4 == 0 and r.predicted4 == 0
    assert r.lambda_half == -2 and not r.half_in_D


def test_mod4_sweep_clean_small():
    for n in range(2, 51):
        s = mod4_sweep(n)
        assert s.violations == (), n
        assert s.sets == subset_count(n)


def test_mod4_sweep_names_each_violation(monkeypatch):
    energy_module = importlib.import_module("icgraph.energy")  # icgraph.energy is the function
    blocks = energy_module.mod4_blocks

    def wrong(n, budget):
        for masks, energies, residues, predicted in blocks(n, budget):
            yield masks, energies, residues, predicted + (masks % 1000 == 3)

    monkeypatch.setattr(energy_module, "mod4_blocks", wrong)
    s = mod4_sweep(120)
    assert s.sets == subset_count(120)
    divs = proper_divisors(120)
    expect = [m for m in range(1, s.sets + 1) if m % 1000 == 3]
    assert s.violations == tuple(IcgSpec(120, mask_divisors(m, divs)).canonical() for m in expect)


def test_block_spec_names_are_canonical():
    # 96 and 120 have 11 and 15 proper divisors: names span several blocks
    for n in [*range(2, 65), 96, 120]:
        divs = proper_divisors(n)
        seen = []
        for masks, _, _, _ in mod4_blocks(n):
            names = spec_names(n, masks)
            assert names == [IcgSpec(n, mask_divisors(m, divs)).canonical()
                             for m in masks.tolist()], n
            # the mod4-sweep JSON writer quotes the names without an escaper
            assert all(json.dumps(name) == '"' + name + '"' for name in names), n
            seen.extend(masks.tolist())
        assert seen == list(range(1, subset_count(n) + 1)), n


def test_energy_scales_with_components():
    assert energy(IcgSpec(12, (2, 4))) == 2 * energy(IcgSpec(6, (1, 2))) == 16
    assert energy(IcgSpec(18, (6,))) == 6 * energy(IcgSpec(3, (1,))) == 24
