"""Command-line front end with deterministic text/JSON output.

    diagram-ops [--json] [--max-degree N] [--seed S] COMMAND [ARGS]

The COMMANDS table names each command's function, help line, positionals
and options, and parse_args reads argv against it (argparse would cost an
op more start-up time than most commands compute).  Global options come
before the command; command options may come anywhere after it.  Both
"--opt value" and "--opt=value" work, long options are never abbreviated,
a token such as "-1" is a value, and "--" ends the options.  -h or --help
prints help to stdout and exits 0; a usage error prints "usage: ..." and
"diagram-ops: error: ..." to stderr and exits 2.

Each command imports the layers beyond the character table (class_algebra,
psym, hurwitz, oracles) inside its cmd_* function, so an op loads only the
modules it runs: eigenvalue reads phi from the table and loads none.  JSON
is written by to_json, not the json module, whose import costs an op more
than most commands compute.

run() is the entry point of `diagram-ops` and `python -m diagram_ops.cli`;
main(argv) returns the exit code without leaving the process, for callers
that run the CLI in process.

Every degree read from argv is checked against --max-degree, itself
between 0 and MAX_TABLE_DEGREE, before any work.  Exit codes: 0 success,
2 parse error or invalid argument (ValueError), 3 resource bound exceeded,
4 internal consistency failure (oracle mismatch, corrupt data).
"""

from __future__ import annotations

import gc
import os
import re
import sys
from types import SimpleNamespace

from .errors import BoundError, ConsistencyError, ParseError
from .characters import MAX_TABLE_DEGREE, char_table, phi
from .partitions import degree, format_fraction, format_partition, parse_partition

DEFAULT_SEED = 20101146


def _check_degrees(args, degrees):
    """Reject a negative degree (exit 2) or one above --max-degree (exit 3)."""
    for n in degrees:
        if n < 0:
            raise ParseError("degree %d is negative" % n)
        if n > args.max_degree:
            raise BoundError("degree %d exceeds max degree %d" % (n, args.max_degree))


#: The escapes json.dumps writes for these characters; every other
#: character outside ' '..'~' becomes \uXXXX, as a surrogate pair above U+FFFF.
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n",
                 "\r": "\\r", "\t": "\\t"}


def _json_string(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"%s"' % text
    out = []
    for ch in text:
        c = ord(ch)
        if ch in _JSON_ESCAPES:
            out.append(_JSON_ESCAPES[ch])
        elif 0x20 <= c < 0x7F:
            out.append(ch)
        elif c < 0x10000:
            out.append("\\u%04x" % c)
        else:
            c -= 0x10000
            out.append("\\u%04x\\u%04x" % (0xD800 | c >> 10, 0xDC00 | c & 0x3FF))
    return '"%s"' % "".join(out)


def to_json(obj) -> str:
    """json.dumps(obj, sort_keys=True), byte for byte, for the values the
    commands print: dicts with str keys, lists, str, int, bool and None."""
    if isinstance(obj, str):
        return _json_string(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        return "{%s}" % ", ".join("%s: %s" % (_json_string(k), to_json(v))
                                  for k, v in sorted(obj.items()))
    if isinstance(obj, list):
        return "[%s]" % ", ".join(map(to_json, obj))
    raise TypeError("cannot write %s as JSON" % type(obj).__name__)


def _emit(args, text_value, json_obj):
    print(to_json(json_obj) if args.json else text_value)


def cmd_mult(args):
    from .class_algebra import mult_sum, parse_diagram_sum

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
    delta, r = parse_partition(args.delta), parse_partition(args.r)
    _check_degrees(args, [degree(delta), degree(r)])
    v = phi(r, delta)
    _emit(args, format_fraction(v), {"value": format_fraction(v)})


def cmd_wapply(args):
    from .psym import parse_ppoly

    delta = parse_partition(args.delta)
    f = parse_ppoly(args.poly)
    _check_degrees(args, [degree(delta)] + f.homogeneous_degrees())
    if args.explicit:
        from .oracles import apply_explicit as apply_operator
    else:
        from .psym import apply_spectral as apply_operator
    result = apply_operator(delta, f)
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
        print(to_json(report))
    else:
        for s in report["suites"]:
            print("%s: %d cases, %d failures" % (s["name"], s["cases"], s["failures"]))
        print("selftest %s: %s" % (report["level"], "PASS" if report["ok"] else "FAIL"))
    if not report["ok"]:
        raise ConsistencyError("selftest failures: see report")


#: Options read before the command: flag -> (type, default).  Type bool is
#: a flag that takes no value; a tuple lists the values allowed.
GLOBAL_OPTIONS = {
    "--json": (bool, False),
    "--max-degree": (int, 10),
    "--seed": (int, DEFAULT_SEED),
}

#: command -> (function, help, positionals, options).  A positional is
#: (name, type); the last may end in "..." and then takes a list of one or
#: more text values.  Options are as in GLOBAL_OPTIONS.
COMMANDS = {
    "mult": (cmd_mult, "product of two diagram sums", [("left", str), ("right", str)], {}),
    "chartable": (cmd_chartable, "character table of S_n", [("n", int)], {}),
    "schur": (cmd_schur, "Schur function in power sums", [("r", str)], {}),
    "eigenvalue": (cmd_eigenvalue, "eigenvalue of W(delta) on schur(R)",
                   [("delta", str), ("r", str)], {}),
    "wapply": (cmd_wapply, "apply W(delta) to a polynomial; --explicit uses partial permutations",
               [("delta", str), ("poly", str)], {"--explicit": (bool, False)}),
    "hurwitz": (cmd_hurwitz, "Hurwitz bracket of equal-degree classes",
                [("classes...", str)], {"--n": (int, None)}),
    "evolve": (cmd_evolve, "generating function of Hurwitz numbers",
               [("directions...", str)], {"--p-bound": (int, 4), "--order": (int, 2)}),
    "selftest": (cmd_selftest, "run oracle-equivalence suites", [],
                 {"--level": (("quick", "full"), "quick")}),
}

# As under argparse, "-", a token with a space and a negative number are
# values, not options.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_option(token):
    return (token.startswith("-") and token != "-" and " " not in token
            and not _NEGATIVE_NUMBER.match(token))


def _dest(name):
    return name.strip("-.").replace("-", "_")


def _synopsis(options):
    words = []
    for flag, (kind, _) in options.items():
        if kind is bool:
            words.append("[%s]" % flag)
        elif isinstance(kind, tuple):
            words.append("[%s {%s}]" % (flag, ",".join(kind)))
        else:
            words.append("[%s N]" % flag)
    return words


def _usage(command):
    words = ["usage: diagram-ops"] + _synopsis(GLOBAL_OPTIONS)
    if command is None:
        words.append("COMMAND ...")
    else:
        _, _, positionals, options = COMMANDS[command]
        words += [command] + _synopsis(options) + [name.upper() for name, _ in positionals]
    return " ".join(words)


def _help(command):
    if command is None:
        about = ["Exact algebra of Young diagrams, characters, cut-and-join operators "
                 "and Hurwitz numbers.", "", "commands:"]
        about += ["  %-11s %s" % (name, entry[1]) for name, entry in COMMANDS.items()]
        about += ["", "--json prints JSON; --max-degree bounds every input degree "
                      "(at most %d); --seed seeds selftest." % MAX_TABLE_DEGREE]
        options = GLOBAL_OPTIONS
    else:
        _, text, _, options = COMMANDS[command]
        about = [text]
    defaults = ["%s %s" % (flag, default) for flag, (kind, default) in options.items()
                if kind is not bool and default is not None]
    if defaults:
        about.append("defaults: " + ", ".join(defaults))
    return "\n".join([_usage(command), ""] + about)


def _usage_error(command, reason):
    print(_usage(command), file=sys.stderr)
    print("diagram-ops: error: %s" % reason, file=sys.stderr)
    raise SystemExit(2)


def _convert(command, what, kind, text):
    if isinstance(kind, tuple):
        if text not in kind:
            _usage_error(command, "%s must be one of %s, not %r" % (what, ", ".join(kind), text))
        return text
    try:
        return kind(text)
    except ValueError:
        _usage_error(command, "%s takes an integer, not %r" % (what, text))


def _set_defaults(args, options):
    for flag, (_, default) in options.items():
        setattr(args, _dest(flag), default)


def _read_option(args, command, options, token, tokens):
    if token in ("-h", "--help"):
        print(_help(command))
        raise SystemExit(0)
    flag, has_value, value = token.partition("=")
    if flag not in options:
        _usage_error(command, "unknown option %s" % flag)
    kind = options[flag][0]
    if kind is bool:
        if has_value:
            _usage_error(command, "%s takes no value" % flag)
        value = True
    else:
        if not has_value:
            value = next(tokens, None)
            if value is None or _is_option(value):
                _usage_error(command, "%s needs a value" % flag)
        value = _convert(command, flag, kind, value)
    setattr(args, _dest(flag), value)


def parse_args(argv):
    """Read argv against GLOBAL_OPTIONS and COMMANDS; return the command's
    function and the namespace it reads.  A usage error prints usage to
    stderr and raises SystemExit(2); -h or --help prints help and exits 0."""
    args = SimpleNamespace()
    command, options, values = None, GLOBAL_OPTIONS, []
    _set_defaults(args, options)
    tokens = iter(argv)
    for token in tokens:
        if command is not None and token == "--":
            values.extend(tokens)
        elif _is_option(token):
            _read_option(args, command, options, token, tokens)
        elif command is None:
            if token not in COMMANDS:
                _usage_error(None, "unknown command %r (choose from %s)"
                             % (token, ", ".join(COMMANDS)))
            command, options = token, COMMANDS[token][3]
            _set_defaults(args, options)
        else:
            values.append(token)
    if command is None:
        _usage_error(None, "a command is required")
    func, _, positionals, _ = COMMANDS[command]
    if len(values) < len(positionals):
        _usage_error(command, "missing %s" % positionals[len(values)][0].upper())
    if len(values) > len(positionals) and not (positionals and positionals[-1][0].endswith("...")):
        _usage_error(command, "unexpected argument %r" % values[len(positionals)])
    for i, (name, kind) in enumerate(positionals):
        value = values[i:] if name.endswith("...") else _convert(command, name, kind, values[i])
        setattr(args, _dest(name), value)
    return func, args


def main(argv=None) -> int:
    func, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.max_degree < 0:
            raise ParseError("max degree %d is negative" % args.max_degree)
        if args.max_degree > MAX_TABLE_DEGREE:
            raise BoundError("max degree is capped at %d" % MAX_TABLE_DEGREE)
        func(args)
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
        print(to_json({"error": {"kind": kind, "msg": str(exc)}}))
    else:
        print("error (%s): %s" % (kind, exc), file=sys.stderr)


def run():
    """Exit with main()'s code.  A reader that closed stdout early gets
    exit code 1 and no traceback.  gc.freeze() first moves every object into
    the permanent generation, so the collections the interpreter runs at
    exit skip objects that are about to be thrown away."""
    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        # as the Python docs advise: later flushes write to devnull, not the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
