"""Command-line frontend.

Every verb wraps exactly one library operation and serializes its result;
no math happens here, not even mod4-sweep's verdicts.  Output is JSON lines
by default (one object per result, compact separators) or CSV with --format csv.

The range verbs (mod4-sweep, so-check, min-energy, verify-oracle) check the
whole range before writing a row, then write rows as they are produced:
`| head` ends a sweep early, and memory follows the current n, not the range.
_emit writes dict rows, one string per row, in either format; every verb but
mod4-sweep writes through it.  mod4-sweep has a row per divisor set, so it
has its own writer, _emit_mod4, which takes blocks of up to 1024 sets as
(names, energies, codes, failed) and writes each block as one string; the
16 joint values of a row's three mod-4 fields are rendered once each, and
failed is the spec_names of the masks that energy.mod4_sweep would report.

A verb imports the modules it needs when it runs (closed_forms, families,
oracle, csv), so building the parser loads none of them and a mod4-sweep
process loads only cli, energy, graphs, sweep and arith of the package.
None of them loads inspect, ast or dis: the reports are NamedTuples.

argparse enforces which arguments go together: a range verb takes exactly
one of a positional target and --range, closed-form exactly one of --power
and --pair.  A usage error prints the verb's own usage line.

Exit codes: 0 success, 1 usage error, 2 a verification verb found a
counterexample, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain, repeat

from .energy import energy as graph_energy, energy_report, mod4_blocks
from .graphs import IcgSpec, parse_spec, spectrum
from .sweep import DEFAULT_BUDGET, BudgetExceeded, check_budget, spec_names


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


def _int_at_least(low: int, name: str):
    """An argparse type: an integer >= low, named `name` in the error message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}, got {value}")
        return value

    return parse


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


def _csv_cell(value, nested: bool = False) -> str:
    """A CSV field: list items joined by ';', a list inside a list as [a, b]."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        cells = [_csv_cell(v, nested=True) for v in value]
        return "[" + ", ".join(cells) + "]" if nested else ";".join(cells)
    return str(value)


def _emit(rows, fmt: str) -> None:
    """Write dict rows to stdout, one string per row.

    A JSON line is json.dumps(row, separators=(",", ":")); CSV has one
    header, the keys of the first row.
    """
    if fmt == "json":
        for row in rows:
            sys.stdout.write(json.dumps(row, separators=(",", ":")) + "\n")
    else:
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        header = None
        for row in rows:
            if header is None:
                header = list(row)
                writer.writerow(header)
            writer.writerow([_csv_cell(row[k]) for k in header])


def _emit_mod4(blocks, fmt: str) -> None:
    """Write mod4-sweep's (names, energies, codes, failed) blocks, one string per block.

    A row is spec, energy, residue4, predicted4 and match; its code is
    4 * residue4 + predicted4, so the three mod-4 fields take 16 joint
    values, each rendered once.  The lines are the ones _emit writes for
    the same rows.
    """
    tails = [(r, p, r == p) for r in range(4) for p in range(4)]
    if fmt == "json":
        # a spec name holds only digits, ':' and ',', so it needs no escaping
        json_tails = [f',"residue4":{r},"predicted4":{p},"match":{json.dumps(m)}}}\n'
                      for r, p, m in tails]
        for names, energies, codes, _ in blocks:
            sys.stdout.write("".join(chain.from_iterable(zip(
                repeat('{"spec":"'), names, repeat('","energy":'), map(str, energies),
                map(json_tails.__getitem__, codes)))))
    else:
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("spec", "energy", "residue4", "predicted4", "match"))
        csv_tails = [tuple(map(_csv_cell, tail)) for tail in tails]
        for names, energies, codes, _ in blocks:
            writer.writerows(map(tuple.__add__, zip(names, energies),
                                 map(csv_tails.__getitem__, codes)))


def cmd_spectrum(args) -> int:
    s = spectrum(args.spec)
    _emit([{"n": args.spec.n, "D": list(args.spec.divisors), "spectrum": list(s.values)}],
          args.format)
    return 0


def cmd_energy(args) -> int:
    e = graph_energy(args.spec)
    _emit([{"n": args.spec.n, "D": list(args.spec.divisors), "energy": e}], args.format)
    return 0


def cmd_report(args) -> int:
    _emit([energy_report(args.spec).to_json_dict()], args.format)
    return 0


def _run_range(args, write, check, items, failed, message) -> int:
    """Check every n of the range, then write the items of each n as they are made.

    items(n) yields what write takes: the dict rows of n for _emit, the
    blocks of n for _emit_mod4.  check(n) raises for an n the verb cannot
    take, before any row is written; failed(item) lists the item's
    counterexamples in row order, and message(failed) is the stderr line
    that goes with exit code 2.
    """
    lo, hi = args.target or args.range
    for n in range(lo, hi + 1):
        check(n)
    bad = []

    def stream():
        for n in range(lo, hi + 1):
            for item in items(n):
                bad.extend(failed(item))
                yield item

    write(stream(), args.format)
    if bad:
        print(message(bad), file=sys.stderr)
        return 2
    return 0


def cmd_mod4_sweep(args) -> int:
    def blocks(n):
        for masks, energies, residues, predicted in mod4_blocks(n, args.budget):
            yield (spec_names(n, masks), energies.tolist(), (4 * residues + predicted).tolist(),
                   spec_names(n, masks[residues != predicted]))

    return _run_range(
        args, _emit_mod4, lambda n: check_budget(n, args.budget), blocks, lambda block: block[3],
        lambda bad: f"counterexamples: {' '.join(bad)}",
    )


def cmd_closed_form(args) -> int:
    from . import closed_forms

    if args.power is not None:
        family, params = closed_forms.Family.ONE_AND_PRIME_POWER, args.power
    else:
        family, params = closed_forms.Family.TWO_PRIMES, args.pair
    case = closed_forms.classify_case(args.n, family, params)
    out = {"n": args.n, "family": family.value, **dict(zip(family.parameter_names, params)),
           "branch": case.case_tag, "energy": case.energy}
    _emit([out], args.format)
    return 0


def cmd_cross_validate(args) -> int:
    from . import closed_forms

    rows = closed_forms.cross_validate(args.n_max)
    _emit([dict(zip(closed_forms.CSV_HEADER, r.csv_fields())) for r in rows], args.format)
    mismatches = [r for r in rows if not r.match]
    if mismatches:
        print(f"counterexamples: {len(mismatches)} formula/direct mismatches", file=sys.stderr)
        return 2
    return 0


def cmd_family(args) -> int:
    from . import families

    build = (families.equienergetic_family if args.family_class == "first"
             else families.equienergetic_family_second)
    try:
        report = build(args.n)
    except (ZeroDivisionError, OverflowError, FloatingPointError):
        raise  # a fault in the program, not a failed check
    except ArithmeticError as e:  # energies off the closed form, or cospectral members
        print(f"counterexamples: {e}", file=sys.stderr)
        return 2
    _emit([report.to_json_dict()], args.format)
    return 0


def cmd_so_check(args) -> int:
    from . import families

    return _run_range(
        args, _emit, lambda n: check_budget(n, args.budget),
        lambda n: [families.so_conjecture_check(n, args.budget).to_json_dict()],
        lambda row: row["collisions"],
        lambda bad: "counterexamples: cospectral divisor sets found",
    )


def cmd_min_energy(args) -> int:
    from . import families

    search = families.min_energy_search
    return _run_range(
        args, _emit, lambda n: check_budget(n, args.budget),
        lambda n: [search(n, args.connected_only, args.budget).to_json_dict()],
        # conjecture_holds is set only when connected-only
        lambda row: [row["n"]] if row.get("conjecture_holds") is False else [],
        lambda bad: "counterexamples: predicted minimum not attained",
    )


def cmd_verify_oracle(args) -> int:
    from . import oracle

    verify = oracle.verify_against_trig
    return _run_range(
        args, _emit, oracle.check_trig_n,
        lambda n: [verify(n, tol=args.tol, budget=args.budget).to_json_dict()],
        lambda row: [] if row["ok"] else [row["n"]],
        lambda bad: "counterexamples: exact and trig spectra disagree",
    )


def _add_range_target(sub, default_budget: int = DEFAULT_BUDGET):
    # distinct dests: the empty positional would write None over a shared one.
    # The usage line does not draw a group that mixes a positional with an
    # option, so the help of each member says the group's rule.
    given = sub.add_mutually_exclusive_group(required=True)
    rule = "; give exactly one of target and --range"
    given.add_argument("target", nargs="?", type=_range_arg,
                       help="single n or inclusive a..b" + rule)
    given.add_argument("--range", type=_range_arg, help="inclusive range a..b" + rule)
    sub.add_argument("--budget", type=_int_at_least(1, "budget"), default=default_budget,
                     help=f"max divisor subsets per n (default {default_budget})")


def build_parser() -> _Parser:
    parser = _Parser(prog="icgraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb",
                                parser_class=_Parser)

    # one --format per verb: set_defaults on a shared parent's action changes every verb
    def add_verb(name, help_text, fmt="json"):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("json", "csv"), default=fmt,
                       help="output format (default: json; cross-validate: csv)")
        return p

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
    p.add_argument("n", type=_int_at_least(2, "n"))
    shape = p.add_mutually_exclusive_group(required=True)
    shape.add_argument("--power", type=_pair_arg, metavar="P,GAMMA",
                       help="divisor set {1, p^gamma}")
    shape.add_argument("--pair", type=_pair_arg, metavar="P,Q", help="divisor set {p, q}")
    p.set_defaults(func=cmd_closed_form)

    p = add_verb("cross-validate", "closed forms vs direct energies, n <= n_max", fmt="csv")
    p.add_argument("n_max", type=_int_at_least(2, "n"))
    p.set_defaults(func=cmd_cross_validate)

    p = add_verb("family", "equienergetic non-cospectral family at n")
    p.add_argument("n", type=_int_at_least(2, "n"))
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
    # every product here is an integer matmul, which numpy does without BLAS,
    # so an OpenBLAS worker thread would only busy-wait
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except BudgetExceeded as e:
        print(f"icgraph: error: {e}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as e:
        print(f"icgraph: error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
