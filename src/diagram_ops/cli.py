"""Command-line front end with deterministic text/JSON output.

Each command imports the layers beyond the character table and the class
algebra (psym, w_ops, hurwitz, oracles) inside its cmd_* function, so an
op loads only the modules it runs.

Every degree read from argv is checked against --max-degree, itself at
most MAX_TABLE_DEGREE, before any work.  Exit codes: 0 success, 2 parse
error or invalid argument (ValueError), 3 resource bound exceeded,
4 internal consistency failure (oracle mismatch, corrupt data).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BoundError, ConsistencyError, ParseError
from .characters import MAX_TABLE_DEGREE, char_table
from .class_algebra import mult_sum
from .partitions import (
    degree,
    format_fraction,
    format_partition,
    parse_diagram_sum,
    parse_partition,
)

DEFAULT_SEED = 20101146


def _check_degrees(args, degrees):
    """Reject a negative degree (exit 2) or one above --max-degree (exit 3)."""
    for n in degrees:
        if n < 0:
            raise ParseError("degree %d is negative" % n)
        if n > args.max_degree:
            raise BoundError("degree %d exceeds max degree %d" % (n, args.max_degree))


def _emit(args, text_value, json_obj):
    if args.json:
        print(json.dumps(json_obj, sort_keys=True))
    else:
        print(text_value)


def cmd_mult(args):
    a = parse_diagram_sum(args.left)
    b = parse_diagram_sum(args.right)
    _check_degrees(args, a.degrees() + b.degrees())
    result = mult_sum(a, b)
    _emit(args, result.to_text(), {"result": result.to_json_obj()})


def cmd_chartable(args):
    _check_degrees(args, [args.n])
    table = char_table(args.n)
    lines = ["classes: " + " ".join(format_partition(p) for p in table.order)]
    lines += ["%s: %s" % (format_partition(r), " ".join(map(str, table.rows[r])))
              for r in table.order]
    _emit(args, "\n".join(lines), table.to_json_obj())


def cmd_schur(args):
    from .psym import schur

    r = parse_partition(args.r)
    _check_degrees(args, [degree(r)])
    f = schur(r)
    _emit(args, f.to_text(), f.to_json_obj())


def cmd_eigenvalue(args):
    from .w_ops import eigenvalue

    delta, r = parse_partition(args.delta), parse_partition(args.r)
    _check_degrees(args, [degree(delta), degree(r)])
    v = eigenvalue(delta, r)
    _emit(args, format_fraction(v), {"value": format_fraction(v)})


def cmd_wapply(args):
    from .psym import parse_ppoly
    from .w_ops import apply_spectral

    delta = parse_partition(args.delta)
    f = parse_ppoly(args.poly)
    _check_degrees(args, [degree(delta)] + f.homogeneous_degrees())
    if args.explicit:
        from .oracles import apply_explicit

        result = apply_explicit(delta, f)
    else:
        result = apply_spectral(delta, f)
    _emit(args, result.to_text(), result.to_json_obj())


def cmd_hurwitz(args):
    from .hurwitz import hurwitz_chain

    classes = [parse_partition(t) for t in args.classes]
    n = args.n if args.n is not None else degree(classes[0])
    _check_degrees(args, [n] + [degree(d) for d in classes])
    for d in classes:
        if degree(d) != n:
            raise ParseError("class %s does not have degree %d" % (format_partition(d), n))
    value = format_fraction(hurwitz_chain(classes))
    _emit(args, value, {"n": n, "branches": [list(d) for d in classes], "value": value})


def cmd_evolve(args):
    from .hurwitz import generating_function

    directions = [parse_partition(t) for t in args.directions]
    _check_degrees(args, [args.p_bound] + [degree(d) for d in directions])
    series = generating_function(directions, p_bound=args.p_bound, order=args.order)
    obj = series.to_json_obj()
    lines = []
    for term in obj["terms"]:
        beta = " ".join("b%s^%d" % (p, k) for p, k in term["beta"].items()) or "1"
        mono = format_partition(tuple(term["mono"]))
        lines.append("%s | p_%s : %s" % (beta, mono, term["coef"]))
    _emit(args, "\n".join(lines), obj)


def cmd_selftest(args):
    from .oracles import selftest_suites

    report = selftest_suites(args.level, args.seed)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for s in report["suites"]:
            print("%s: %d cases, %d failures" % (s["name"], s["cases"], s["failures"]))
        print("selftest %s: %s" % (report["level"], "PASS" if report["ok"] else "FAIL"))
    if not report["ok"]:
        raise ConsistencyError("selftest failures: see report")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diagram-ops",
        description="Exact algebra of Young diagrams, characters, "
                    "cut-and-join operators and Hurwitz numbers.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    parser.add_argument("--max-degree", type=int, default=10,
                        help="largest degree of any input (at most %d)" % MAX_TABLE_DEGREE)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mult", help="product of two diagram sums")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("chartable", help="character table of S_n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_chartable)

    p = sub.add_parser("schur", help="Schur function in power sums")
    p.add_argument("r")
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("eigenvalue", help="eigenvalue of W(delta) on schur(R)")
    p.add_argument("delta")
    p.add_argument("r")
    p.set_defaults(func=cmd_eigenvalue)

    p = sub.add_parser("wapply", help="apply W(delta) to a polynomial")
    p.add_argument("delta")
    p.add_argument("poly")
    p.add_argument("--explicit", action="store_true",
                   help="use the tabulated differential operator")
    p.set_defaults(func=cmd_wapply)

    p = sub.add_parser("hurwitz", help="Hurwitz bracket of equal-degree classes")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("classes", nargs="+")
    p.set_defaults(func=cmd_hurwitz)

    p = sub.add_parser("evolve", help="generating function of Hurwitz numbers")
    p.add_argument("--p-bound", type=int, default=4)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("directions", nargs="+")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("selftest", help="run oracle-equivalence suites")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_degree > MAX_TABLE_DEGREE:
            raise BoundError("max degree is capped at %d" % MAX_TABLE_DEGREE)
        args.func(args)
        return 0
    except ValueError as e:
        _fail(args, "parse", e)
        return 2
    except BoundError as e:
        _fail(args, "resource", e)
        return 3
    except ConsistencyError as e:
        _fail(args, "consistency", e)
        return 4


def _fail(args, kind, exc):
    if args.json:
        print(json.dumps({"error": {"kind": kind, "msg": str(exc)}}, sort_keys=True))
    else:
        print("error (%s): %s" % (kind, exc), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
