"""Command-line interface: byte-exact output, exit codes, determinism."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from icgraph import cli, closed_forms, families
from icgraph.cli import main
from icgraph.closed_forms import CrossValidationRow, Family, classify_case, iter_admissible
from icgraph.graphs import parse_spec
from icgraph.sweep import spec_names, subset_count


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


def test_closed_form_verb_reads_classify_case(capsys):
    for n in range(4, 121):
        for family, (p, x) in iter_admissible(n):
            flag = "--power" if family is Family.ONE_AND_PRIME_POWER else "--pair"
            code, out, _ = run(capsys, "closed-form", str(n), flag, f"{p},{x}")
            row = json.loads(out)
            case = classify_case(n, family, (p, x))
            assert code == 0
            assert (row["branch"], row["energy"]) == (case.case_tag, case.energy), (n, p, x)


def assert_usage_error(capsys, argv, verb):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1, argv
    assert capsys.readouterr().err.startswith(f"usage: icgraph {verb} "), argv


def test_closed_form_flag_misuse(capsys):
    for argv in (["closed-form", "18"], ["closed-form", "18", "--power", "3,2", "--pair", "2,3"]):
        assert_usage_error(capsys, argv, "closed-form")


def test_range_target_misuse(capsys):
    for argv in (["mod4-sweep"], ["mod4-sweep", "6", "--range", "6"]):
        assert_usage_error(capsys, argv, "mod4-sweep")


@pytest.mark.parametrize("verb", ["mod4-sweep", "so-check", "min-energy", "verify-oracle"])
def test_range_help_says_exactly_one_target(capsys, verb):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    assert help_text.count("give exactly one of target and --range") == 2


def test_cross_validate_csv_header(capsys):
    code, out, _ = run(capsys, "cross-validate", "40")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,family,parameters,branch,formula,direct,match"
    assert all(line.endswith(",true") for line in lines[1:])


def test_cross_validate_errors(capsys, monkeypatch):
    assert run(capsys, "cross-validate", "3") == (1, "", "icgraph: error: need n_max >= 4, got 3\n")
    wrong = CrossValidationRow(4, Family.ONE_AND_PRIME_POWER, (2, 1), 1, 5, 4)
    monkeypatch.setattr(closed_forms, "cross_validate", lambda n_max: [wrong])
    code, out, err = run(capsys, "cross-validate", "4")
    assert (code, err) == (2, "counterexamples: 1 formula/direct mismatches\n")
    assert out.splitlines()[1].endswith(",5,4,false")


def test_family_verbs(capsys):
    code, out, _ = run(capsys, "family", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["common_energy"] == 64 and len(doc["members"]) == 4

    code, out, _ = run(capsys, "family", "30", "--format", "csv")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "n,members,common_energy,pairwise_cospectral,all_hyperenergetic"
    assert rows[1] == (
        '30,"30:1;30:2,3;30:2,5;30:3,5",64,"[true, false, false, false];'
        "[false, true, false, false];[false, false, true, false];"
        '[false, false, false, true]",true'
    )

    code, out, _ = run(capsys, "family", "450", "--class", "second")
    assert code == 0
    assert json.loads(out)["common_energy"] == 1440

    assert main(["family", "4"]) == 1  # no admissible construction


def test_family_check_failure_exits_2(capsys, monkeypatch):
    two_primes = closed_forms.energy_two_primes
    monkeypatch.setattr(closed_forms, "energy_two_primes", lambda *a: two_primes(*a) + 2)
    code, out, err = run(capsys, "family", "210")
    assert (code, out) == (2, "")
    assert err.startswith("counterexamples: family energies differ from the closed form ")
    assert err.count("\n") == 1

    # a fault in the program is not a counterexample
    monkeypatch.setattr(closed_forms, "energy_two_primes", lambda *a: 1 // 0)
    with pytest.raises(ZeroDivisionError):
        main(["family", "210"])


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

    code, out, _ = run(capsys, "min-energy", "6", "--no-connected-only", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == '6,false,6,"[1, 3];[3]"'


def test_verify_oracle_verb(capsys):
    code, out, _ = run(capsys, "verify-oracle", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["sets"] == 31 and doc["exhaustive"] is True
    assert list(doc)[-2:] == ["worst_spec", "worst_index"]
    assert parse_spec(doc["worst_spec"]).n == 12
    assert 0 <= doc["worst_index"] < 12


def test_verify_oracle_tol(capsys):
    assert run(capsys, "verify-oracle", "12", "--tol", "0.5") == run(capsys, "verify-oracle", "12")


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
        ["mod4-sweep", "a..b"],  # not integers
        ["closed-form", "12", "--pair", "2"],  # one integer, not two
        ["closed-form", "12", "--pair", "a,b"],
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


OVER_BUDGET = "n=5040 has 576460752303423487 divisor subsets, over the budget of 1048576"


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["so-check", "5038..5040"], 3, OVER_BUDGET),
        (["mod4-sweep", "5038..5040"], 3, OVER_BUDGET),
        (["min-energy", "5038..5040"], 3, OVER_BUDGET),
        (["verify-oracle", "99999..100001", "--budget", "1"], 1,
         "trig oracle limited to n <= 100000, got 100001"),
    ],
)
def test_range_that_fails_late_writes_no_row(capsys, argv, code, message):
    assert run(capsys, *argv) == (code, "", f"icgraph: error: {message}\n")


def test_out_of_memory_is_a_one_line_error(capsys, monkeypatch):
    # 2^59 - 1 fingerprints of 8 bytes each: 4 EiB, which no allocator can grant
    code, out, err = run(capsys, "so-check", "5040", "--budget", str(2**62))
    assert (code, out) == (1, "")
    assert err.startswith("icgraph: error: ") and err.count("\n") == 1, err

    def no_memory(*args):
        raise MemoryError  # as Python raises it, without a message

    monkeypatch.setattr(families, "so_conjecture_check", no_memory)
    assert run(capsys, "so-check", "12") == (1, "", "icgraph: error: out of memory\n")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["mod4-sweep", "2..60"], "418e8f5f344fd001a977d749c6d44804b14ab2044fe69bccb58dc882c7bf2304"),
        (["mod4-sweep", "2..60", "--format", "csv"],
         "bc869a8a070a2554ee4a53c5a9c4761d07d951645ae26d4c576d64683695064e"),
        (["so-check", "2..80"], "d6a5004fabe2ffc6aef1872684264d4f9f6f0124d7ed04ebf5f5d29b5c362bda"),
        (["min-energy", "2..80", "--no-connected-only"],
         "ddb640b8ec918b14f193eb5f6970e8a3723f2b18652ab43013d785e78f5aa2b5"),
        (["verify-oracle", "2..60"], "1effbea74c0756669a844be0e3f3b90f8d229de5d6dbc8b7070322a1715a2104"),
        # 120 has 15 proper divisors, so its names span 32 blocks
        (["mod4-sweep", "118..122"],
         "0c4334bdae3cb500283d7b50b592d2cbd78bf4789951829b9401040af56d2bb7"),
        (["mod4-sweep", "118..122", "--format", "csv"],
         "8aef6aa8e4015514135535f2dbf2b4d7b28cdaee8059ff5a720af2dedfe36f1d"),
    ],
)
def test_range_verbs_exact_bytes(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_range_rows_are_written_before_the_next_n_starts(capsys, monkeypatch):
    written = []
    before = {}
    blocks = cli.mod4_blocks

    def spy(n, budget):
        written.append(capsys.readouterr().out)
        before[n] = "".join(written).splitlines()
        return blocks(n, budget)

    monkeypatch.setattr(cli, "mod4_blocks", spy)
    assert main(["mod4-sweep", "2..12"]) == 0
    for n in range(3, 13):
        assert len(before[n]) == sum(subset_count(m) for m in range(2, n))
        assert json.loads(before[n][-1])["spec"].startswith(f"{n - 1}:")


def test_range_counterexamples_exit_2(capsys, monkeypatch):
    blocks = cli.mod4_blocks

    def wrong_at_6(n, budget):
        for masks, energies, residues, predicted in blocks(n, budget):
            yield masks, energies, residues, predicted + ((masks == 1) & (n == 6))

    monkeypatch.setattr(cli, "mod4_blocks", wrong_at_6)
    code, out, err = run(capsys, "mod4-sweep", "5..7")
    assert (code, err) == (2, "counterexamples: 6:1\n")
    assert len(out.splitlines()) == subset_count(5) + subset_count(6) + subset_count(7)


def test_mod4_rows_of_every_residue_and_prediction(capsys, monkeypatch):
    # every (residue4, predicted4) pair of residues mod 4, odd ones and mismatches included
    blocks = cli.mod4_blocks
    rows = []

    def every_pair(n, budget):
        for masks, energies, _, _ in blocks(n, budget):
            start = len(rows)
            residues, predicted = zip(*(divmod(i % 16, 4) for i in range(start, start + len(masks))))
            rows.extend({"spec": s, "energy": e, "residue4": r, "predicted4": p, "match": r == p}
                        for s, e, r, p in zip(spec_names(n, masks), energies.tolist(),
                                              residues, predicted))
            yield masks, energies, np.array(residues), np.array(predicted)

    monkeypatch.setattr(cli, "mod4_blocks", every_pair)
    code, out, err = run(capsys, "mod4-sweep", "11..13")
    assert len(rows) == 1 + 31 + 1 and len({(r["residue4"], r["predicted4"]) for r in rows}) == 16
    bad = [row["spec"] for row in rows if not row["match"]]
    assert (code, err) == (2, f"counterexamples: {' '.join(bad)}\n")
    assert out == "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)

    rows.clear()
    code, out, err = run(capsys, "mod4-sweep", "11..13", "--format", "csv")
    assert (code, err) == (2, f"counterexamples: {' '.join(bad)}\n")
    expect = io.StringIO()
    writer = csv.writer(expect, lineterminator="\n")
    writer.writerow(list(rows[0]))
    writer.writerows([*row.values()][:-1] + [str(row["match"]).lower()] for row in rows)
    assert out == expect.getvalue()


def test_emit_json_lines_equal_json_dumps(capsys):
    rows = [
        {"s": "a\"b\u00e9", "i": 3, "b": True, "f": 0.1, "x": None, "l": [1, [2]], "%s": 1},
        {"s": "", "i": -2**70, "b": False, "f": float("nan"), "x": 1, "l": [], "%s": "%d"},
        {"s": "c", "i": True, "b": 1, "f": 2, "x": "y", "l": {"k": 1}, "%s": False},
    ]
    cli._emit(rows, "json")
    expect = "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows)
    assert capsys.readouterr().out == expect

    cli._emit(rows, "csv")
    expect = io.StringIO()
    writer = csv.writer(expect, lineterminator="\n")
    writer.writerow(list(rows[0]))
    writer.writerows([cli._csv_cell(v) for v in row.values()] for row in rows)
    assert capsys.readouterr().out == expect.getvalue()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def src_env():
    """The environment without OPENBLAS_NUM_THREADS, with src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return base


def run_python(code, **env):
    """Run code in a fresh interpreter that imports icgraph from src; return its stdout."""
    proc = subprocess.run([sys.executable, "-c", code], env={**src_env(), **env},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads are counted in /proc")
def test_cli_pins_openblas_to_one_thread():
    # numpy does integer matmuls without BLAS, so an OpenBLAS worker only busy-waits
    code = (
        "import os\n"
        "from icgraph.cli import main\n"
        "assert main(['so-check', '12']) == 0\n"
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    assert run_python(code).splitlines()[-1] == "1 1"
    assert run_python(code, OPENBLAS_NUM_THREADS="2").splitlines()[-1].split()[1] == "2"


def test_closed_stdout_ends_the_sweep_quietly():
    # a reader that stops after one line, like `| head -1`
    argv = [sys.executable, "-m", "icgraph", "mod4-sweep", "2..300"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=src_env()) as proc:
        assert proc.stdout.readline().startswith(b'{"spec":"2:1",')
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")


def test_so_check_loads_no_numpy_ma():
    code = (
        "import sys\n"
        "from icgraph.cli import main\n"
        "assert main(['so-check', '172..200']) == 0\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    run_python(code)


def test_mod4_sweep_loads_only_its_own_modules():
    code = (
        "import sys\n"
        "from icgraph.cli import main\n"
        "assert main(['mod4-sweep', '12']) == 0\n"
        "for name in ('icgraph.families', 'icgraph.oracle', 'icgraph.closed_forms',\n"
        "             'csv', 'fractions', 'decimal'):\n"
        "    assert name not in sys.modules, name\n"
    )
    run_python(code)


def test_census_verbs_load_no_closed_forms():
    # families imports closed_forms and fractions only where it uses them
    code = (
        "import sys\n"
        "from icgraph.cli import main\n"
        "assert main(['so-check', '172..200']) == 0\n"
        "assert main(['min-energy', '172..200']) == 0\n"
        "for name in ('icgraph.closed_forms', 'fractions', 'decimal'):\n"
        "    assert name not in sys.modules, name\n"
    )
    run_python(code)


def test_building_the_parser_loads_no_verb_modules():
    code = (
        "import sys\n"
        "import icgraph.cli\n"
        "icgraph.cli.build_parser()\n"
        "for name in ('numpy', 'icgraph.families', 'icgraph.oracle', 'icgraph.closed_forms'):\n"
        "    assert name not in sys.modules, name\n"
    )
    run_python(code)
