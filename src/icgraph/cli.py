"""Command-line frontend.

Every verb wraps exactly one library operation and serializes its result;
no math happens here.  Output is JSON lines by default (one object per
result, compact separators) or CSV with --format csv.

Exit codes: 0 success, 1 usage error, 2 a verification verb found a
counterexample, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import closed_forms, families, oracle
from .energy import energy as graph_energy, energy_report, mod4_rows
from .graphs import IcgSpec, parse_spec, spectrum
from .sweep import DEFAULT_BUDGET, BudgetExceeded


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; here 2 means counterexample, so remap."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _spec_arg(text: str) -> IcgSpec:
    try:
        return parse_spec(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _n_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 2:
        raise argparse.ArgumentTypeError(f"n must be >= 2, got {n}")
    return n


def _range_arg(text: str) -> tuple[int, int]:
    """Accept 'a..b' (inclusive) or a single 'n'."""
    head, sep, tail = text.partition("..")
    try:
        a = int(head)
        b = int(tail) if sep else a
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an n or a..b range: {text!r}") from None
    if a < 2 or b < a:
        raise argparse.ArgumentTypeError(f"need 2 <= a <= b, got {text!r}")
    return a, b


def _budget_arg(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if budget < 1:
        raise argparse.ArgumentTypeError(f"budget must be >= 1, got {budget}")
    return budget


def _tol_arg(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def _pair_arg(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated integers: {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers: {text!r}") from None


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def _emit(rows, fmt: str) -> None:
    if fmt == "json":
        for row in rows:
            print(json.dumps(row, separators=(",", ":")))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        header = None
        for row in rows:
            if header is None:
                header = list(row)
                writer.writerow(header)
            writer.writerow(_csv_cell(row[k]) for k in header)


def _resolve_range(parser: _Parser, args) -> tuple[int, int]:
    if args.target is not None and args.range is not None:
        parser.error("give either a positional target or --range, not both")
    if args.target is None and args.range is None:
        parser.error("a target n, a..b, or --range a..b is required")
    return args.target if args.target is not None else args.range


def cmd_spectrum(parser, args) -> int:
    s = spectrum(args.spec)
    _emit(
        [{"n": args.spec.n, "D": list(args.spec.divisors), "spectrum": list(s.values)}],
        args.format or "json",
    )
    return 0


def cmd_energy(parser, args) -> int:
    e = graph_energy(args.spec)
    _emit(
        [{"n": args.spec.n, "D": list(args.spec.divisors), "energy": e}],
        args.format or "json",
    )
    return 0


def cmd_report(parser, args) -> int:
    _emit([energy_report(args.spec).to_json_dict()], args.format or "json")
    return 0


def cmd_mod4_sweep(parser, args) -> int:
    lo, hi = _resolve_range(parser, args)
    bad = []
    rows = []
    for n in range(lo, hi + 1):
        for ds, e, residue, predicted in mod4_rows(n, args.budget):
            row = {
                "spec": IcgSpec(n, ds).canonical(),
                "energy": e,
                "residue4": residue,
                "predicted4": predicted,
                "match": residue == predicted,
            }
            rows.append(row)
            if residue != predicted:
                bad.append(row["spec"])
    _emit(rows, args.format or "json")
    if bad:
        print(f"counterexamples: {' '.join(bad)}", file=sys.stderr)
        return 2
    return 0


def cmd_closed_form(parser, args) -> int:
    if (args.power is None) == (args.pair is None):
        parser.error("exactly one of --power p,gamma or --pair p,q is required")
    if args.power is not None:
        p, gamma = args.power
        case = closed_forms.classify_case(
            args.n, closed_forms.Family.ONE_AND_PRIME_POWER, (p, gamma)
        )
        value = closed_forms.energy_one_prime_power(args.n, p, gamma)
        out = {"n": args.n, "family": case.family.value, "p": p, "gamma": gamma}
    else:
        p, q = args.pair
        case = closed_forms.classify_case(args.n, closed_forms.Family.TWO_PRIMES, (p, q))
        value = closed_forms.energy_two_primes(args.n, p, q)
        out = {"n": args.n, "family": case.family.value, "p": p, "q": q}
    out["branch"] = case.case_tag
    out["energy"] = value
    _emit([out], args.format or "json")
    return 0


def cmd_cross_validate(parser, args) -> int:
    rows = closed_forms.cross_validate(args.n_max)
    table = [dict(zip(closed_forms.CSV_HEADER, r.csv_fields())) for r in rows]
    _emit(table, args.format or "csv")
    mismatches = [r for r in rows if not r.match]
    if mismatches:
        print(f"counterexamples: {len(mismatches)} formula/direct mismatches", file=sys.stderr)
        return 2
    return 0


def cmd_family(parser, args) -> int:
    if args.family_class == "first":
        report = families.equienergetic_family(args.n)
    else:
        report = families.equienergetic_family_second(args.n)
    _emit([report.to_json_dict()], args.format or "json")
    return 0


def cmd_so_check(parser, args) -> int:
    lo, hi = _resolve_range(parser, args)
    failed = False
    rows = []
    for n in range(lo, hi + 1):
        report = families.so_conjecture_check(n, args.budget)
        rows.append(report.to_json_dict())
        failed = failed or not report.verified
    _emit(rows, args.format or "json")
    if failed:
        print("counterexamples: cospectral divisor sets found", file=sys.stderr)
        return 2
    return 0


def cmd_min_energy(parser, args) -> int:
    lo, hi = _resolve_range(parser, args)
    failed = False
    rows = []
    for n in range(lo, hi + 1):
        report = families.min_energy_search(n, args.connected_only, args.budget)
        rows.append(report.to_json_dict())
        if args.connected_only and report.conjecture_holds is False:
            failed = True
    _emit(rows, args.format or "json")
    if failed:
        print("counterexamples: predicted minimum not attained", file=sys.stderr)
        return 2
    return 0


def cmd_verify_oracle(parser, args) -> int:
    lo, hi = _resolve_range(parser, args)
    failed = False
    rows = []
    for n in range(lo, hi + 1):
        report = oracle.verify_against_trig(n, tol=args.tol, budget=args.budget)
        rows.append(
            {
                "n": report.n,
                "sets": report.sets,
                "exhaustive": report.exhaustive,
                "max_deviation": report.max_deviation,
                "ok": report.ok,
                "failures": list(report.failures),
                "worst_spec": report.worst_spec,
                "worst_index": report.worst_index,
            }
        )
        failed = failed or not report.ok
    _emit(rows, args.format or "json")
    if failed:
        print("counterexamples: exact and trig spectra disagree", file=sys.stderr)
        return 2
    return 0


def _add_range_target(sub, default_budget: int = DEFAULT_BUDGET):
    sub.add_argument("target", nargs="?", type=_range_arg, help="single n or inclusive a..b")
    sub.add_argument("--range", type=_range_arg, help="inclusive range a..b")
    sub.add_argument("--budget", type=_budget_arg, default=default_budget,
                     help=f"max divisor subsets per n (default {default_budget})")


def build_parser() -> _Parser:
    parser = _Parser(prog="icgraph", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (default: json; cross-validate: csv)")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb",
                                parser_class=_Parser)

    def add_verb(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common])

    p = add_verb("spectrum", "exact integer spectrum of one graph")
    p.add_argument("spec", type=_spec_arg, help="graph as n:d1,d2,...")
    p.set_defaults(func=cmd_spectrum)

    p = add_verb("energy", "exact energy of one graph")
    p.add_argument("spec", type=_spec_arg, help="graph as n:d1,d2,...")
    p.set_defaults(func=cmd_energy)

    p = add_verb("report", "energy plus mod-4 classification of one graph")
    p.add_argument("spec", type=_spec_arg, help="graph as n:d1,d2,...")
    p.set_defaults(func=cmd_report)

    p = add_verb("mod4-sweep", "check the mod-4 energy rule over all divisor sets")
    _add_range_target(p)
    p.set_defaults(func=cmd_mod4_sweep)

    p = add_verb("closed-form", "closed-form energy for {1,p^gamma} or {p,q}")
    p.add_argument("n", type=_n_arg)
    p.add_argument("--power", type=_pair_arg, metavar="P,GAMMA",
                   help="divisor set {1, p^gamma}")
    p.add_argument("--pair", type=_pair_arg, metavar="P,Q", help="divisor set {p, q}")
    p.set_defaults(func=cmd_closed_form)

    p = add_verb("cross-validate", "closed forms vs direct energies, n <= n_max")
    p.add_argument("n_max", type=_n_arg)
    p.set_defaults(func=cmd_cross_validate)

    p = add_verb("family", "equienergetic non-cospectral family at n")
    p.add_argument("n", type=_n_arg)
    p.add_argument("--class", dest="family_class", choices=("first", "second"),
                   default="first", help="which construction (default first)")
    p.set_defaults(func=cmd_family)

    p = add_verb("so-check", "search for cospectral divisor sets")
    _add_range_target(p)
    p.set_defaults(func=cmd_so_check)

    p = add_verb("min-energy", "exhaustive minimum energy over divisor sets")
    _add_range_target(p)
    p.add_argument("--connected-only", action=argparse.BooleanOptionalAction, default=True,
                   help="restrict to gcd(D)=1 (default on)")
    p.set_defaults(func=cmd_min_energy)

    p = add_verb("verify-oracle", "exact spectra vs trigonometric oracle")
    _add_range_target(p, default_budget=2048)
    p.add_argument("--tol", type=_tol_arg, default=1e-6, help="comparison tolerance")
    p.set_defaults(func=cmd_verify_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except BrokenPipeError:
        return 0
    except BudgetExceeded as e:
        print(f"icgraph: error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"icgraph: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
