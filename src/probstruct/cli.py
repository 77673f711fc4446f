"""Command-line interface.

Exit codes: 0 success; 1 semantic failure (structures found inequivalent, a
fuzz check failed); 2 input error (bad arguments, unparseable or invalid
files); 3 unmet precondition (translating a belief structure that is not
total).
"""

from __future__ import annotations

import argparse
import sys

from .errors import NotTotalError, ProbstructError, ValidationError
from .logic import Language, format_formula, parse_formula
from .value import safe_repr

# Each command imports the modules it runs, so that a process compiles and
# loads no more of the package than its one command needs.


def cmd_validate(args) -> int:
    from .docio import load
    from .structures import validate

    st = load(args.file, check=False)
    report = validate(st)
    if report.ok:
        print("OK")
        return 0
    for problem in report.problems:
        print(problem, file=sys.stderr)
    return 2


def cmd_query(args) -> int:
    from . import structures
    from .docio import load

    st = load(args.file)
    query = getattr(structures, args.command)  # interval, bel or plb
    print(query(st, parse_formula(args.formula, st.lang)))
    return 0


def cmd_translate(args) -> int:
    from .docio import load, save, to_json
    from .translate import ds_to_ic, ic_to_ds

    st = load(args.file)
    out = ic_to_ds(st) if args.to_ds else ds_to_ic(st)
    if args.output:
        save(out, args.output)
        print(args.output)
    else:
        sys.stdout.write(to_json(out))
    return 0


def cmd_equiv(args) -> int:
    from .docio import load
    from .translate import equivalent

    a = load(args.file_a)
    b = load(args.file_b)
    report = equivalent(a, b)
    if report.equivalent:
        print(f"EQUIVALENT ({safe_repr(report.checked_count)} formulas checked)")
        return 0
    f, in_a, in_b = report.witness
    print(f"NOT EQUIVALENT: witness {format_formula(f)}: {in_a} vs {in_b}")
    return 1


def cmd_fuzz(args) -> int:
    from .translate import GenParams, ds_to_ic, equivalent, ic_to_ds, round_trip_check
    from .translate import random_ic, random_total_ds

    last = args.seed + args.iters - 1
    if args.seed < 1 << 64 <= last:  # refuse before any seed runs
        raise ValidationError(f"last seed {last} must be a 64-bit nonnegative integer")
    passed = 0
    total = 0
    for i in range(args.iters):
        seed = args.seed + i
        params = GenParams(args.props, args.worlds, seed)
        for side, make, there in (("ic", random_ic, ic_to_ds), ("ds", random_total_ds, ds_to_ic)):
            st = make(params)
            report = equivalent(st, there(st))
            if report.equivalent:
                report = round_trip_check(st)
            total += 1
            if report.equivalent:
                passed += 1
            else:
                f, in_a, in_b = report.witness
                print(f"seed {seed} ({side} round): witness {format_formula(f)}: {in_a} vs {in_b}",
                      file=sys.stderr)

    print(f"{passed}/{total} translation checks passed")
    return 0 if passed == total else 1


def cmd_example(args) -> int:
    from .docio import save
    from .fixtures import FIXTURES

    build = FIXTURES.get(args.name)
    if build is None:
        names = ", ".join(sorted(FIXTURES))
        print(f"error: unknown example {args.name!r} (available: {names})", file=sys.stderr)
        return 2
    path = args.output or f"{args.name}.json"
    save(build(), path)
    print(path)
    return 0


def cmd_parse(args) -> int:
    lang = Language(tuple(name.strip() for name in args.props.split(",")))
    print(format_formula(parse_formula(args.formula, lang)))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probstruct",
        description="Exact probability intervals for propositional formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a structure document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    for name, blurb in (
        ("interval", "lower and upper probability of a formula"),
        ("bel", "belief in a formula (ds structures)"),
        ("plb", "plausibility of a formula (ds structures)"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("file")
        p.add_argument("formula")
        p.set_defaults(func=cmd_query)

    p = sub.add_parser("translate", help="translate a structure to the other kind")
    p.add_argument("file")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-ds", action="store_true", dest="to_ds")
    direction.add_argument("--to-ic", action="store_true", dest="to_ic")
    p.add_argument("-o", "--output", help="write the document here instead of stdout")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("equiv", help="compare two structures formula by formula")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("fuzz", help="randomized translation checks")
    p.add_argument("--props", type=int, default=2, help="propositions per structure")
    p.add_argument("--worlds", type=int, default=4, help="worlds per structure")
    p.add_argument("--iters", type=_positive_int, default=100, help="number of seeds")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("example", help="write a built-in example document")
    p.add_argument("name")
    p.add_argument("-o", "--output", help="target path (default: <name>.json)")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("parse", help="canonicalize formula text")
    p.add_argument("--props", required=True, help="comma-separated proposition names")
    p.add_argument("formula")
    p.set_defaults(func=cmd_parse)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotTotalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ProbstructError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
