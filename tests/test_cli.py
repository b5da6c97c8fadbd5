"""Command-line interface: byte-exact output, exit codes, determinism."""

import json

import pytest

from icgraph.cli import main
from icgraph.graphs import parse_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_exact_bytes(capsys):
    code, out, _ = run(capsys, "spectrum", "6:1,3")
    assert code == 0
    assert out == '{"n":6,"D":[1,3],"spectrum":[3,0,0,-3,0,0]}\n'


def test_so_check_exact_bytes(capsys):
    code, out, _ = run(capsys, "so-check", "12")
    assert code == 0
    assert out == '{"n":12,"sets":31,"collisions":[]}\n'


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "6:1,3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,")
    assert "3;0;0;-3;0;0" in lines[1]


def test_energy_verb(capsys):
    code, out, _ = run(capsys, "energy", "30:2,3")
    assert code == 0
    assert json.loads(out) == {"n": 30, "D": [2, 3], "energy": 64}


def test_report_fields(capsys):
    code, out, _ = run(capsys, "report", "6:1")
    assert code == 0
    doc = json.loads(out)
    assert doc["energy"] == 8
    assert doc["residue4"] == 0 and doc["predicted4"] == 0
    assert doc["lambda_half"] == -2 and doc["half_in_D"] is False


def test_report_odd_omits_lambda_half(capsys):
    code, out, _ = run(capsys, "report", "9:1")
    assert code == 0
    doc = json.loads(out)
    assert "lambda_half" not in doc
    assert doc["energy"] == 12


def test_mod4_sweep_range(capsys):
    code, out, _ = run(capsys, "mod4-sweep", "2..6")
    assert code == 0
    lines = out.splitlines()
    # 1 + 1 + 3 + 1 + 7 proper-divisor subsets for n = 2..6
    assert len(lines) == 13
    first = json.loads(lines[0])
    assert first == {
        "spec": "2:1",
        "energy": 2,
        "residue4": 2,
        "predicted4": 2,
        "match": True,
    }
    for line in lines:
        doc = json.loads(line)
        assert doc["residue4"] == doc["predicted4"] and doc["match"]


def test_mod4_sweep_csv(capsys):
    code, out, _ = run(capsys, "mod4-sweep", "--range", "6..6", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "spec,energy,residue4,predicted4,match"
    assert len(lines) == 8


def test_closed_form_power(capsys):
    code, out, _ = run(capsys, "closed-form", "18", "--power", "3,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["energy"] == 34 and doc["branch"] == 2


def test_closed_form_pair(capsys):
    code, out, _ = run(capsys, "closed-form", "30", "--pair", "2,3")
    assert code == 0
    assert json.loads(out)["energy"] == 64


def test_closed_form_flag_misuse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["closed-form", "18"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["closed-form", "18", "--power", "3,2", "--pair", "2,3"])
    assert exc.value.code == 1


def test_cross_validate_csv_header(capsys):
    code, out, _ = run(capsys, "cross-validate", "40")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,family,parameters,branch,formula,direct,match"
    assert all(line.endswith(",true") for line in lines[1:])


def test_family_verbs(capsys):
    code, out, _ = run(capsys, "family", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["common_energy"] == 64 and len(doc["members"]) == 4

    code, out, _ = run(capsys, "family", "450", "--class", "second")
    assert code == 0
    assert json.loads(out)["common_energy"] == 1440

    assert main(["family", "4"]) == 1  # no admissible construction


def test_min_energy_verb(capsys):
    code, out, _ = run(capsys, "min-energy", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_energy"] == 12 and doc["conjecture_holds"] is True

    code, out, _ = run(capsys, "min-energy", "6", "--no-connected-only")
    assert code == 0
    doc = json.loads(out)
    assert doc["argmin_sets"] == [[1, 3], [3]]
    assert "conjecture_value" not in doc


def test_verify_oracle_verb(capsys):
    code, out, _ = run(capsys, "verify-oracle", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["sets"] == 31 and doc["exhaustive"] is True
    assert list(doc)[-2:] == ["worst_spec", "worst_index"]
    assert parse_spec(doc["worst_spec"]).n == 12
    assert 0 <= doc["worst_index"] < 12


def test_verify_oracle_samples_masks_of_64_or_more_bits(capsys):
    # 10080 has 71 proper divisors, so a mask needs 71 bits
    code, out, _ = run(capsys, "verify-oracle", "10080", "--budget", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["sets"] == 8 and doc["exhaustive"] is False and doc["ok"] is True


def test_verify_oracle_deterministic(capsys):
    _, first, _ = run(capsys, "verify-oracle", "360", "--budget", "64")
    _, second, _ = run(capsys, "verify-oracle", "360", "--budget", "64")
    assert first == second
    assert json.loads(first)["exhaustive"] is False


def test_usage_errors_exit_1():
    for argv in (
        ["spectrum", "6:3,1"],  # divisors not ascending
        ["spectrum", "6:4"],  # 4 does not divide 6
        ["spectrum", "6:6"],  # not a proper divisor
        ["spectrum", "nonsense"],
        ["mod4-sweep", "9..3"],
        ["mod4-sweep"],  # no range given at all
        ["no-such-verb"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-oracle", "2..3", "--tol", "nan"],
        ["verify-oracle", "2..3", "--tol", "-1"],
        ["verify-oracle", "2..3", "--tol", "inf"],
        ["verify-oracle", "2..3", "--tol", "tiny"],
        ["mod4-sweep", "6", "--budget", "0"],
        ["mod4-sweep", "6", "--budget", "-1"],
        ["so-check", "6", "--budget", "1.5"],
    ],
)
def test_bad_tol_and_budget_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_budget_exit_3():
    assert main(["so-check", "5040"]) == 3


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
