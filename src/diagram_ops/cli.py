"""Command-line front end with deterministic text/JSON output.

    diagram-ops [--json] [--max-degree N] [--seed N] COMMAND [ARGS]

This module only reads argv, dispatches and maps errors to exit codes;
every op compiles it, so it holds nothing else.  The COMMANDS table names
each command's module, help line, positionals and options, and
parse_args reads argv against it (argparse would cost an op more
start-up time than most commands compute).  Global options come before
the command; command options may come anywhere after it.  Both
"--opt value" and "--opt=value" work, long options are never
abbreviated, and "--" ends the options.  A token is an option when it
starts with "-" and its second character is not an ASCII digit, so "-",
"-1" and a leading negative coefficient such as "-1/3*p3" are values.
An integer is an optional "+" or "-" and ASCII digits, as in the text
grammars.  -h or --help prints help to stdout and exits 0; a usage error
prints "usage: ..." and "diagram-ops: error: ..." to stderr and exits 2.
Both texts are built by diagram_ops.usage, which no other op loads.
Every message shows a token, or a degree read from one, through
errors.quote.

A command's body is cmd_<command> in the layer it runs, next to that
layer's parser and printer: mult in class_algebra, schur and wapply in
psym, hurwitz and evolve in hurwitz, selftest in oracles, and chartable
and eigenvalue in table_commands, beside characters, which every op
loads.  main imports only that module, so an op loads only the modules
it runs: eigenvalue reads phi from the table and loads no other layer.
A body takes the namespace and the degree check and returns (text,
json_obj), or (text, json_obj, error) for an error to raise once the
output is printed, as a failing selftest does.
No module imports this one: under `python -m diagram_ops.cli` it is
__main__, and an import would compile it a second time.  JSON is
written by to_json, not the json module, whose import costs an op more
than most commands compute.

run() is the entry point of `diagram-ops` and `python -m diagram_ops.cli`;
it flushes the output and leaves by os._exit, so atexit handlers do not
run.  main(argv) returns the exit code without leaving the process, for
callers that run the CLI in process, a profiler or coverage among them.

Every degree read from argv is checked against --max-degree, itself
between 0 and MAX_TABLE_DEGREE, before any work.  Exit codes: 0 success,
2 parse error or invalid argument (ValueError), 3 resource bound exceeded,
4 internal consistency failure (oracle mismatch, corrupt data).
"""

import importlib
import os
import sys
from types import SimpleNamespace

from .errors import BoundError, ConsistencyError, ParseError, quote
from .characters import MAX_TABLE_DEGREE
from .partitions import parse_digits

DEFAULT_SEED = 20101146


def _check_degrees(max_degree, degrees):
    """Reject a negative degree (exit 2) or one above --max-degree (exit 3)."""
    for n in degrees:
        if n < 0:
            raise ParseError("degree %s is negative" % quote(n))
        if n > max_degree:
            raise BoundError("degree %s exceeds max degree %d" % (quote(n), max_degree))


#: The escapes json.dumps writes for these characters; every other
#: character outside ' '..'~' becomes \uXXXX, as a surrogate pair above U+FFFF.
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n",
                 "\r": "\\r", "\t": "\\t"}


def _json_string(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"%s"' % text
    out = []
    for ch in text:
        if ch in _JSON_ESCAPES:
            out.append(_JSON_ESCAPES[ch])
        elif " " <= ch <= "~":
            out.append(ch)
        else:  # one \uXXXX per UTF-16 code unit
            units = ch.encode("utf-16-be", "surrogatepass").hex()
            out += ["\\u" + units[i:i + 4] for i in range(0, len(units), 4)]
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


#: Options read before the command: flag -> (type, default).  Type bool is
#: a flag that takes no value; a tuple lists the values allowed.
GLOBAL_OPTIONS = {
    "--json": (bool, False),
    "--max-degree": (int, 10),
    "--seed": (int, DEFAULT_SEED),
}

#: command -> (module, help, positionals, options): the command's body is
#: cmd_<command> in diagram_ops.<module>.  A positional is (name, type);
#: the last may end in "..." and then takes a list of one or more text
#: values.  Options are as in GLOBAL_OPTIONS.
COMMANDS = {
    "mult": ("class_algebra", "product of two diagram sums", [("left", str), ("right", str)], {}),
    "chartable": ("table_commands", "character table of S_n", [("n", int)], {}),
    "schur": ("psym", "Schur function in power sums", [("r", str)], {}),
    "eigenvalue": ("table_commands", "eigenvalue of W(delta) on schur(R)",
                   [("delta", str), ("r", str)], {}),
    "wapply": ("psym", "apply W(delta) to a polynomial; --explicit uses partial permutations",
               [("delta", str), ("poly", str)], {"--explicit": (bool, False)}),
    "hurwitz": ("hurwitz", "Hurwitz bracket of equal-degree classes",
                [("classes...", str)], {"--n": (int, None)}),
    "evolve": ("hurwitz", "generating function of Hurwitz numbers",
               [("directions...", str)], {"--p-bound": (int, 4), "--order": (int, 2)}),
    "selftest": ("oracles", "run oracle-equivalence suites", [],
                 {"--level": (("quick", "full"), "quick")}),
}


def _is_option(token):
    # the rule of the module docstring; "" is in every str, so "-" is a value
    return token[:1] == "-" and token[1:2] not in "0123456789"


def _dest(name):
    return name.strip("-.").replace("-", "_")


def _usage_error(command, reason):
    from .usage import usage_error

    usage_error(command, reason, COMMANDS, GLOBAL_OPTIONS)


def _convert(command, what, kind, text):
    if kind is int:
        value = parse_digits(text[1:] if text[:1] in "+-" else text)
        if value is not None:
            return -value if text[:1] == "-" else value
        expected = "takes an integer"
    elif kind is str or text in kind:
        return text
    else:
        expected = "must be one of " + ", ".join(kind)
    _usage_error(command, "%s %s, not %s" % (what, expected, quote(text)))


def _set_defaults(args, options):
    for flag, (_, default) in options.items():
        setattr(args, _dest(flag), default)


def _read_option(args, command, options, token, tokens):
    if token in ("-h", "--help"):
        from .usage import show_help

        show_help(command, COMMANDS, GLOBAL_OPTIONS)
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
    """Read argv against GLOBAL_OPTIONS and COMMANDS; return the command
    and the namespace its body reads.  A usage error prints usage to
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
                _usage_error(None, "unknown command %s (choose from %s)"
                             % (quote(token), ", ".join(COMMANDS)))
            command, options = token, COMMANDS[token][3]
            _set_defaults(args, options)
        else:
            values.append(token)
    if command is None:
        _usage_error(None, "a command is required")
    _, _, positionals, _ = COMMANDS[command]
    if len(values) < len(positionals):
        _usage_error(command, "missing %s" % positionals[len(values)][0].upper())
    if len(values) > len(positionals) and not (positionals and positionals[-1][0].endswith("...")):
        _usage_error(command, "unexpected argument %s" % quote(values[len(positionals)]))
    for i, (name, kind) in enumerate(positionals):
        value = values[i:] if name.endswith("...") else _convert(command, name, kind, values[i])
        setattr(args, _dest(name), value)
    return command, args


def main(argv=None) -> int:
    command, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.max_degree < 0:
            raise ParseError("max degree %s is negative" % quote(args.max_degree))
        if args.max_degree > MAX_TABLE_DEGREE:
            raise BoundError("max degree is capped at %d" % MAX_TABLE_DEGREE)
        module = importlib.import_module("." + COMMANDS[command][0], __package__)
        text, json_obj, *error = getattr(module, "cmd_" + command)(
            args, lambda degrees: _check_degrees(args.max_degree, degrees))
        print(to_json(json_obj) if args.json else text)
        if error:
            raise error[0]
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
    """Flush stdout and stderr and leave with main()'s code by os._exit,
    which skips the interpreter's teardown and so also every atexit handler.
    A reader that closed stdout early gets exit code 1 and no traceback."""
    try:
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except BrokenPipeError:
        code = 1  # os._exit writes no buffer, so the unwritten rest is dropped
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
