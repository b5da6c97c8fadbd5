"""Command-line frontend.

Every verb wraps exactly one library operation and serializes its result;
no math happens here.  Output is JSON lines by default (one object per
result, compact separators) or CSV with --format csv.

The range verbs (mod4-sweep, so-check, min-energy, verify-oracle) check the
whole range before writing a row, then write rows as they are produced:
`| head` ends a sweep early, and memory follows the current n, not the range.
Rows are formatted a block at a time (one block per n for the verbs with one
row per n, 1024 divisor sets per block for mod4-sweep), and each block goes
to stdout as one string.  _emit is the one writer of both formats.  The
three mod-4 fields of a mod4-sweep row take 16 joint values, so they reach
_emit as one column of codes (a _Codes key), whose text is rendered once
per format.

A verb imports the modules it needs when it runs (closed_forms, families,
oracle, csv), so building the parser loads none of them and a mod4-sweep
process loads only cli, energy, graphs, sweep and arith of the package.

argparse enforces which arguments go together: a range verb takes exactly
one of a positional target and --range, closed-form exactly one of --power
and --pair.  A usage error prints the verb's own usage line.

Exit codes: 0 success, 1 usage error, 2 a verification verb found a
counterexample, 3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

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


# JSON text of the scalar types that fill most columns, as the encoder writes them
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
}


def _json_column(values, encode) -> list[str]:
    """JSON text of each value; a column of one scalar type skips the encoder."""
    kinds = set(map(type, values))
    scalar = _JSON_SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(scalar or encode, values))


def _block(rows) -> dict:
    """A nonempty list of rows with the same keys as one block: key -> column."""
    return {k: [row[k] for row in rows] for k in rows[0]}


@dataclasses.dataclass(frozen=True)
class _Codes:
    """Block key for fields whose values take few joint values, one code per row.

    Its column holds codes, and the row's values of the fields `names` are
    rows[code].  The text of every code is rendered once per format, so a
    row costs one lookup instead of one encoding per field.
    """

    names: tuple[str, ...]
    rows: tuple[tuple, ...]

    @cached_property
    def json_text(self) -> tuple[str, ...]:
        """Per code, its fields as they stand inside a JSON object."""
        dumps = json.JSONEncoder(separators=(",", ":")).encode
        return tuple(dumps(dict(zip(self.names, row)))[1:-1] for row in self.rows)

    @cached_property
    def csv_cells(self) -> tuple[tuple[str, ...], ...]:
        """Per code, the CSV field of each of its values."""
        return tuple(tuple(map(_csv_cell, row)) for row in self.rows)


def _emit(blocks, fmt: str) -> None:
    """Write blocks of rows to stdout, one string per block.

    A block maps each field name to its column of values, one per row; a
    _Codes key stands for its fields, and its column holds codes.  A JSON
    line is the same text as json.dumps(row, separators=(",", ":")); a CSV
    header comes from the first block.
    """
    if fmt == "json":
        encode = json.JSONEncoder(separators=(",", ":")).encode
        for block in blocks:
            parts = []  # the text before each field's value, then the values
            for key, col in block.items():
                head = "," if parts else "{"
                if isinstance(key, _Codes):
                    parts += repeat(head), map(key.json_text.__getitem__, col)
                else:
                    parts += repeat(head + encode(key) + ":"), _json_column(col, encode)
            sys.stdout.write("".join(chain.from_iterable(zip(*parts, repeat("}\n")))))
    else:
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        header = None
        for block in blocks:
            if header is None:
                header = list(block)
                writer.writerow([name for key in header
                                 for name in (key.names if isinstance(key, _Codes) else (key,))])
            cols = []
            for key in header:
                if isinstance(key, _Codes):
                    cols += zip(*map(key.csv_cells.__getitem__, block[key]))
                else:
                    cols.append([_csv_cell(v) for v in block[key]])
            writer.writerows(zip(*cols))


def cmd_spectrum(args) -> int:
    s = spectrum(args.spec)
    _emit(
        [_block([{"n": args.spec.n, "D": list(args.spec.divisors), "spectrum": list(s.values)}])],
        args.format,
    )
    return 0


def cmd_energy(args) -> int:
    e = graph_energy(args.spec)
    _emit(
        [_block([{"n": args.spec.n, "D": list(args.spec.divisors), "energy": e}])],
        args.format,
    )
    return 0


def cmd_report(args) -> int:
    _emit([_block([energy_report(args.spec).to_json_dict()])], args.format)
    return 0


def _run_range(args, check, blocks, failed, message) -> int:
    """Check every n of the range, then emit the blocks of each n as they are made.

    check(n) raises for an n the verb cannot take, before any row is
    written; blocks(n) yields the rows of n as _emit blocks; failed(block)
    lists the block's counterexamples in row order, and message(failed) is
    the stderr line that goes with exit code 2.
    """
    lo, hi = args.target or args.range
    for n in range(lo, hi + 1):
        check(n)
    bad = []

    def stream():
        for n in range(lo, hi + 1):
            for block in blocks(n):
                bad.extend(failed(block))
                yield block

    _emit(stream(), args.format)
    if bad:
        print(message(bad), file=sys.stderr)
        return 2
    return 0


# residue4 and predicted4 are residues mod 4, so the three mod-4 fields of a
# row take 16 joint values, coded 4 * residue4 + predicted4.
_MOD4 = _Codes(("residue4", "predicted4", "match"),
               tuple((r, p, r == p) for r in range(4) for p in range(4)))
_MOD4_MISMATCH = tuple(not match for _, _, match in _MOD4.rows)


def cmd_mod4_sweep(args) -> int:
    def blocks(n):
        for masks, energies, residues, predicted in mod4_blocks(n, args.budget):
            yield {"spec": spec_names(n, masks), "energy": energies.tolist(),
                   _MOD4: (4 * residues + predicted).tolist()}

    def failed(block):
        return [spec for spec, code in zip(block["spec"], block[_MOD4]) if _MOD4_MISMATCH[code]]

    return _run_range(
        args, lambda n: check_budget(n, args.budget), blocks, failed,
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
    _emit([_block([out])], args.format)
    return 0


def cmd_cross_validate(args) -> int:
    from . import closed_forms

    rows = closed_forms.cross_validate(args.n_max)
    table = [dict(zip(closed_forms.CSV_HEADER, r.csv_fields())) for r in rows]
    _emit([_block(table)], args.format)
    mismatches = [r for r in rows if not r.match]
    if mismatches:
        print(f"counterexamples: {len(mismatches)} formula/direct mismatches", file=sys.stderr)
        return 2
    return 0


def cmd_family(args) -> int:
    from . import families

    if args.family_class == "first":
        report = families.equienergetic_family(args.n)
    else:
        report = families.equienergetic_family_second(args.n)
    _emit([_block([report.to_json_dict()])], args.format)
    return 0


def cmd_so_check(args) -> int:
    from . import families

    return _run_range(
        args, lambda n: check_budget(n, args.budget),
        lambda n: [_block([families.so_conjecture_check(n, args.budget).to_json_dict()])],
        lambda block: [c for c in block["collisions"] if c],
        lambda bad: "counterexamples: cospectral divisor sets found",
    )


def cmd_min_energy(args) -> int:
    from . import families

    search = families.min_energy_search
    return _run_range(
        args, lambda n: check_budget(n, args.budget),
        lambda n: [_block([search(n, args.connected_only, args.budget).to_json_dict()])],
        # conjecture_holds is set only when connected-only
        lambda block: [h for h in block.get("conjecture_holds", ()) if h is False],
        lambda bad: "counterexamples: predicted minimum not attained",
    )


def cmd_verify_oracle(args) -> int:
    from . import oracle

    verify = oracle.verify_against_trig
    return _run_range(
        args, oracle.check_trig_n,
        lambda n: [_block([dataclasses.asdict(verify(n, tol=args.tol, budget=args.budget))])],
        lambda block: [ok for ok in block["ok"] if not ok],
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
