import ast
import contextlib
import io
import json
import operator
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import diagram_ops

from diagram_ops import characters, oracles
from diagram_ops.cli import COMMANDS, GLOBAL_OPTIONS, _is_option, main, parse_args, to_json
from diagram_ops.errors import ConsistencyError, quote
from diagram_ops.oracles import mult_same_degree

from test_golden import make_corpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mult_examples(capsys):
    code, out, _ = run(capsys, "mult", "[1]", "[2]")
    assert code == 0 and out == "2*[2] + 1*[2,1]\n"
    code, out, _ = run(capsys, "mult", "[2]", "[2]")
    assert code == 0 and out == "1*[1,1] + 3*[3] + 2*[2,2]\n"
    code, out, _ = run(capsys, "mult", "[]", "[3]")
    assert code == 0 and out == "1*[3]\n"
    code, out, _ = run(capsys, "mult", "1/2*[2]", "[2]")
    assert code == 0 and out == "1/2*[1,1] + 3/2*[3] + 1*[2,2]\n"
    code, out, _ = run(capsys, "mult", "4/2*[2]", "[2]")
    assert code == 0 and out == "2*[1,1] + 6*[3] + 4*[2,2]\n"
    # a/b on both sides; test_mutants' mult_sum_vs_oracle checks this product
    code, out, _ = run(capsys, "mult", "1/2*[2]", "2/3*[2] + 1/3*[1]")
    assert code == 0 and out == "1/3*[2] + 1/3*[1,1] + 1*[3] + 1/6*[2,1] + 2/3*[2,2]\n"
    code, out, _ = run(capsys, "--json", "mult", "[2]", "[2]")
    assert code == 0 and out == ('{"result": [{"coef": "1", "partition": [1, 1]}, '
                                 '{"coef": "3", "partition": [3]}, '
                                 '{"coef": "2", "partition": [2, 2]}]}\n')


def test_mult_accepts_sum_syntax(capsys):
    code, out, _ = run(capsys, "mult", "2*[2]", "[1]")
    assert code == 0 and out == "4*[2] + 2*[2,1]\n"


def test_eigenvalue(capsys):
    code, out, _ = run(capsys, "eigenvalue", "[2]", "[3]")
    assert code == 0 and out == "3\n"


def test_schur(capsys):
    code, out, _ = run(capsys, "schur", "[2,1]")
    assert code == 0 and out == "1/3*p1^3 + -1/3*p3\n"
    code, out, _ = run(capsys, "--json", "schur", "[2,1]")
    assert code == 0 and out == ('{"terms": [{"coef": "1/3", "mono": [1, 1, 1]}, '
                                 '{"coef": "-1/3", "mono": [3]}]}\n')


def test_hurwitz(capsys):
    code, out, _ = run(capsys, "hurwitz", "--n", "2", "[2]", "[2]", "[1,1]")
    assert code == 0 and out == "1/2\n"
    code, out, _ = run(capsys, "--json", "hurwitz", "[2]", "[2]", "[1,1]")
    assert code == 0
    assert out == '{"branches": [[2], [2], [1, 1]], "n": 2, "value": "1/2"}\n'


def test_wapply(capsys):
    code, out, _ = run(capsys, "wapply", "[2]", "1*p2")
    assert code == 0 and out == "1*p1^2\n"
    code2, out2, _ = run(capsys, "wapply", "--explicit", "[2]", "1*p2")
    assert code2 == 0 and out2 == out
    code, out, _ = run(capsys, "--json", "wapply", "[2]", "1*p2")
    assert code == 0 and out == '{"terms": [{"coef": "1", "mono": [1, 1]}]}\n'


def test_chartable(capsys):
    code, out, _ = run(capsys, "chartable", "3")
    assert code == 0
    assert out.splitlines() == [
        "classes: [3] [2,1] [1,1,1]",
        "[3]: 1 1 1",
        "[2,1]: -1 0 2",
        "[1,1,1]: 1 -1 1",
    ]


def test_evolve_json(capsys):
    code, out, _ = run(capsys, "--json", "evolve", "--p-bound", "2",
                       "--order", "1", "[2]")
    assert code == 0
    obj = json.loads(out)
    assert {"beta": {"[2]": 1}, "coef": "1/2", "mono": [2]} in obj["terms"]
    assert out == ('{"order": 1, "p_bound": 2, "terms": ['
                   '{"beta": {}, "coef": "1", "mono": []}, '
                   '{"beta": {}, "coef": "1", "mono": [1]}, '
                   '{"beta": {}, "coef": "1/2", "mono": [1, 1]}, '
                   '{"beta": {"[2]": 1}, "coef": "1/2", "mono": [2]}]}\n')
    code, out, _ = run(capsys, "evolve", "--p-bound", "2", "--order", "1", "[2]")
    assert code == 0 and out == ("1 | p_[] : 1\n1 | p_[1] : 1\n1 | p_[1,1] : 1/2\n"
                                 "b[2]^1 | p_[2] : 1/2\n")


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "mult", "[1,3]", "[2]")
    assert code == 2
    assert "parse" in err


def test_parse_error_json_envelope(capsys):
    code, out, _ = run(capsys, "--json", "mult", "[1,3]", "[2]")
    assert code == 2
    obj = json.loads(out)
    assert obj["error"]["kind"] == "parse"


def test_resource_error_exit_code(capsys):
    code, _, err = run(capsys, "chartable", "99")
    assert code == 3
    assert "resource" in err


def test_max_degree_guard(capsys):
    code, _, err = run(capsys, "--max-degree", "20", "chartable", "3")
    assert code == 3


def test_selftest_quick_deterministic(capsys):
    code1, out1, _ = run(capsys, "--json", "selftest", "--level", "quick")
    code2, out2, _ = run(capsys, "--json", "selftest", "--level", "quick")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["ok"] is True
    assert all(s["failures"] == 0 for s in report["suites"])


def test_consistency_error_exits_4(capsys):
    # the table of S_4 with chi_[2,1,1]([2,2]) negated
    message = "non-integral structure constant 9/4 for ((2, 2), (2, 2), (2, 2))"
    with make_corpus.installed(characters, "char_table",
                               make_corpus.char_table_with(4, (2, 1, 1), (2, 2), operator.neg)):
        with pytest.raises(ConsistencyError, match=re.escape(message)):
            mult_same_degree((2, 2), (2, 2))
        code, out, err = run(capsys, "mult", "[2,2]", "[2,2]")
        assert (code, out, err) == (4, "", "error (consistency): %s\n" % message)
        code, out, _ = run(capsys, "--json", "mult", "[2,2]", "[2,2]")
    assert code == 4
    assert json.loads(out) == {"error": {"kind": "consistency", "msg": message}}


def test_non_integral_phi_exits_4(capsys):
    # the table of S_4 with chi_[2,2]([2,2]) = 1, not 2: phi_[2,2]([2,2]) = 12/8
    message = "non-integral phi for (2, 2) at degree 4"
    with make_corpus.installed(characters, "char_table",
                               make_corpus.char_table_with(4, (2, 2), (2, 2), lambda x: 1)):
        with pytest.raises(ConsistencyError, match=re.escape(message)):
            characters.phi((2, 2), (2, 2))
        code, out, err = run(capsys, "eigenvalue", "[2,2]", "[2,2]")
    assert (code, out, err) == (4, "", "error (consistency): %s\n" % message)


def test_selftest_failure_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(oracles, "oracle_coefficient", lambda *classes: -1)
    code, out, err = run(capsys, "selftest")
    assert code == 4
    assert "structure_constants_vs_oracle: 161 cases, 161 failures" in out
    assert out.endswith("selftest quick: FAIL\n")
    assert err == "error (consistency): selftest failures: see report\n"


def test_evolve_p_bound_8(capsys):
    code, out, _ = run(capsys, "evolve", "--p-bound", "8", "--order", "1", "[2]")
    assert code == 0
    assert "b[2]^1 | p_[2,1,1,1,1,1,1] : 1/1440" in out.splitlines()


def test_zero_power_sum_index_is_parse_error(capsys):
    code, _, err = run(capsys, "wapply", "[2]", "p0")
    assert code == 2
    assert "parse" in err and "Traceback" not in err
    code, out, _ = run(capsys, "--json", "wapply", "[2]", "2*p0^2")
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "parse"


def test_cache_dir_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--cache-dir", "somewhere", "chartable", "3"])
    assert exc.value.code == 2


SRC = os.path.dirname(os.path.dirname(os.path.abspath(diagram_ops.__file__)))
EIGHT_DIRECTIONS = ["[1]", "[2]", "[1,1]", "[3]", "[2,1]", "[1,1,1]", "[4]", "[3,1]"]


@pytest.mark.parametrize("argv, code", [
    (["chartable", "-1"], 2),
    (["wapply", "--explicit", "[4]", "p4"], 0),
    (["wapply", "--explicit", "[7]", "p7"], 3),
    (["--max-degree", "12", "wapply", "--explicit", "[3,2,1]",
      "p12 + p11*p1 + p10*p2 + p9*p3"], 3),
    (["evolve", "--p-bound", "-1", "[2]"], 2),
    (["eigenvalue", "[2]", "[%s]" % ",".join(["1"] * 1200)], 3),
    (["--max-degree", "4", "mult", "[3,3]", "[2,2]"], 3),
    (["--max-degree", "4", "wapply", "[2]", "p5"], 3),
    (["--max-degree", "4", "hurwitz", "[3,2]", "[3,2]", "[5]"], 3),
    (["--max-degree", "14", "chartable", "3"], 3),
    (["--max-degree", "12", "chartable", "13"], 3),
    (["--max-degree", "12", "wapply", "[2]", "p13"], 3),
    (["wapply", "[2]", "p1^100000000"], 3),
    (["wapply", "[1]", "p2^"], 2),
    (["mult", "1e30000000*[1]", "[1]"], 2),
    (["wapply", "[1]", "1e30000000*p1"], 2),
    (["--max-degree", "-5", "chartable", "0"], 2),
    (["evolve", "--p-bound", "2", "--order", "8"] + EIGHT_DIRECTIONS, 0),
    (["evolve", "--p-bound", "10", "--order", "718", "[2]"], 3),
    (["mult", "7" * 3000 + "*[1]", "7" * 3000 + "*[1]"], 3),
    (["schur", "[\u0663]"], 2),
    (["wapply", "[2]", "p\u0663"], 2),
], ids=lambda v: " ".join(v)[:48] if isinstance(v, list) else str(v))
def test_bounds_and_exit_codes(argv, code):
    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "diagram_ops.cli"] + argv,
                          capture_output=True, text=True, env=env, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    assert elapsed < 5, elapsed


SUBMODULES = ["diagram_ops." + f[:-3]
              for f in sorted(os.listdir(os.path.dirname(diagram_ops.__file__)))
              if f.endswith(".py") and f != "__init__.py"]
LATER = ["diagram_ops." + m for m in ("psym", "hurwitz", "oracles")]
# no op parses argv with argparse or writes JSON with json, and only -h,
# --help and usage errors build usage
PARSER = ["argparse", "gettext", "json", "locale", "diagram_ops.usage"]
NO_ALGEBRA = ["diagram_ops.class_algebra"] + PARSER
# no op but selftest builds a Fraction, which loads decimal, numbers and re
NO_FRACTIONS = ["fractions", "decimal", "numbers", "re"]
NO_TABLES = ["diagram_ops.table_commands"]
RUN_CLI = "from diagram_ops.cli import main; main(sys.argv[1:]); "

#: (code, argv, the modules that running code on argv must not load)
IMPORT_CASES = [
    ("import diagram_ops.cli; ", [],
     ["diagram_ops.oracles", "dataclasses", "inspect", "__future__"] + PARSER),
    (RUN_CLI, ["--json", "mult", "[2]", "[2]"], LATER + PARSER + NO_FRACTIONS + NO_TABLES),
    (RUN_CLI, ["mult", "[4,3]", "[2,2,1]"], LATER + PARSER + NO_FRACTIONS),
    (RUN_CLI, ["chartable", "3"], LATER + NO_ALGEBRA + NO_FRACTIONS),
    (RUN_CLI, ["eigenvalue", "[2]", "[3]"], LATER + NO_ALGEBRA + NO_FRACTIONS),
    (RUN_CLI, ["schur", "[2,1]"], LATER[1:] + NO_ALGEBRA),
    (RUN_CLI, ["schur", "[3,1,1]"], LATER[1:] + NO_ALGEBRA + NO_FRACTIONS + NO_TABLES),
    (RUN_CLI, ["--json", "schur", "[3,1,1]"], LATER[1:] + NO_ALGEBRA + NO_FRACTIONS),
    (RUN_CLI, ["wapply", "[2]", "1*p2"], LATER[1:] + NO_ALGEBRA + NO_FRACTIONS),
    (RUN_CLI, ["wapply", "[2]", "1/2*p2 + 3*p1^2"],
     LATER[1:] + NO_ALGEBRA + NO_FRACTIONS + NO_TABLES),
    (RUN_CLI, ["--json", "wapply", "[3,2]", "-7/12*p3*p2 + 5/4*p1^5"],
     LATER[1:] + NO_ALGEBRA + NO_FRACTIONS),
    (RUN_CLI, ["mult", "1/2*[2]", "2/3*[2] + 1/3*[1]"], LATER + PARSER + NO_FRACTIONS),
    (RUN_CLI, ["hurwitz", "[2]", "[2]"], LATER[::2] + NO_ALGEBRA + NO_FRACTIONS + NO_TABLES),
    (RUN_CLI, ["hurwitz", "[2]", "[2]", "[1,1]"], LATER[::2] + NO_ALGEBRA + NO_FRACTIONS),
    (RUN_CLI, ["evolve", "[2]"], LATER[::2] + NO_ALGEBRA + NO_FRACTIONS),
    (RUN_CLI, ["evolve", "--p-bound", "3", "--order", "2", "[2]"],
     LATER[::2] + NO_ALGEBRA + NO_FRACTIONS),
    (RUN_CLI, ["--json", "evolve", "--p-bound", "3", "--order", "2", "[2]"],
     LATER[::2] + NO_ALGEBRA + NO_FRACTIONS),
    (RUN_CLI, ["selftest"], ["json", "argparse", "diagram_ops.usage"]),
    # the library's constructors and kernel take and make ints only
    ("from diagram_ops import DiagramSum, PPoly, from_schur, generating_function; "
     "PPoly({(2,): 1}); DiagramSum({(2,): 1}); from_schur({(2, 1): 1}); "
     "generating_function([(2,)], 4, 2); ", [], NO_FRACTIONS[:3]),
    ("import diagram_ops; ", [], SUBMODULES + ["json"]),
    ("import diagram_ops; [getattr(diagram_ops, n) for n in diagram_ops.__all__]; ", [],
     ["json"]),
]

#: op -> (argv, most AST nodes of the package's modules that the op
#: loads): the count at this version rounded up to the next 100.
COMPILE_BUDGETS = {
    "chartable": (["chartable", "3"], 4600),
    "eigenvalue": (["eigenvalue", "[2]", "[3]"], 4600),
    "mult": (["mult", "1/2*[2]", "[2,1]"], 5300),
    "schur": (["schur", "[2,1]"], 5100),
    "wapply": (["wapply", "[2]", "1/2*p2"], 5100),
    "hurwitz": (["hurwitz", "[2]", "[2]"], 5500),
    "evolve": (["evolve", "[2]"], 5500),
}


@pytest.fixture(scope="module")
def probes():
    """(code, argv) -> (the modules of its absent list that it loaded, the
    files of the package it loaded), for every import-path case and every
    budget argv, from one `python -S -c` process per argv."""
    probed = [(code, argv) for code, argv, _ in IMPORT_CASES]
    cases = IMPORT_CASES + [(RUN_CLI, argv, []) for argv, _ in COMPILE_BUDGETS.values()
                            if (RUN_CLI, argv) not in probed]
    env = dict(os.environ, PYTHONPATH=SRC)
    found = {}
    for code, argv, absent in cases:
        # the package compiles no regular expression: re comes only with fractions
        script = ("import sys; %sprint(([m for m in %r if m in sys.modules]"
                  " + ['re'] * ('re' in sys.modules and 'fractions' not in sys.modules),"
                  " [m.__file__ for k, m in sys.modules.items()"
                  " if k.split('.')[0] == 'diagram_ops']), file=sys.stderr)" % (code, absent))
        # -S: the site hooks of some installs import re themselves
        proc = subprocess.run([sys.executable, "-S", "-c", script] + argv, capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, (code, argv, proc.stderr)
        found[code, tuple(argv)] = ast.literal_eval(proc.stderr)
    return found


def test_import_path_leaves_out_oracles_and_dataclasses(probes):
    for code, argv, _ in IMPORT_CASES:
        assert probes[code, tuple(argv)][0] == [], (code, argv)


def test_op_compile_budget(probes):
    # without cached bytecode, as the benchmark runs, every op compiles
    # each package module it loads, so their size is start-up time
    for op, (argv, budget) in COMPILE_BUDGETS.items():
        nodes = 0
        for path in probes[RUN_CLI, tuple(argv)][1]:
            with open(path, encoding="utf-8") as f:
                nodes += sum(1 for _ in ast.walk(ast.parse(f.read())))
        assert nodes <= budget, (op, nodes, budget)


def test_only_oracles_imports_fractions():
    package = os.path.dirname(diagram_ops.__file__)
    importers = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            # every import statement, at module level or inside a function
            for node in ast.walk(tree):
                modules = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                           [node.module] if isinstance(node, ast.ImportFrom) else [])
                if any(m and m.split(".")[0] == "fractions" for m in modules):
                    importers.append(name)
    assert importers == ["oracles.py"]


def test_every_oracle_is_named_outside_its_def():
    # a check that nothing reads is dead: each top-level function of oracles is
    # named outside its own def by the package or a test, as a name, attribute,
    # import or string (setattr's); cli calls cmd_<command> by name
    named, functions = {"cmd_" + command for command in COMMANDS}, []
    for top in [os.path.dirname(diagram_ops.__file__), os.path.dirname(__file__)]:
        for path in [os.path.join(d, f) for d, _, files in os.walk(top) for f in files if f.endswith(".py")]:
            with open(path, encoding="utf-8") as f:
                for stmt in ast.parse(f.read()).body:
                    own = getattr(stmt, "name", None)
                    if path == oracles.__file__ and isinstance(stmt, ast.FunctionDef):
                        functions.append(own)
                    named |= {getattr(node, field, None) for node in ast.walk(stmt)
                              for field in ("id", "attr", "name", "value")} - {own}
    assert len(functions) > 40 and [f for f in functions if f not in named] == []


def _cli_process(argv, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "diagram_ops.cli"] + argv, env=env,
                          timeout=60, **kwargs)


@pytest.mark.parametrize("argv", [["--help"], ["chartable", "3"], ["--json", "mult", "[1,3]", "[2]"]],
                         ids=" ".join)
def test_closed_stdout_exits_1_without_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so its first write fails
    try:
        proc = _cli_process(argv, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_started_without_stdout_exits_with_its_code():
    # with fd 1 closed at start-up the interpreter sets sys.stdout to None
    proc = _cli_process(["chartable", "3"], stderr=subprocess.PIPE, text=True,
                        preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")


def test_run_flushes_and_exits_with_the_code_of_main(capsys):
    # run() leaves by os._exit, which flushes nothing: without
    # PYTHONUNBUFFERED, the child's output reaches the pipes only through
    # run()'s own flushes.  The chartable is about 35 KB.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for argv, exit_code in [(["chartable", "2"], 0), (["--help"], 0), (["chartable", "x"], 2),
                            (["chartable", "99"], 3),
                            (["--max-degree", "12", "--json", "chartable", "12"], 0)]:
        proc = subprocess.run([sys.executable, "-m", "diagram_ops.cli"] + argv,
                              capture_output=True, env=dict(env, PYTHONPATH=SRC), timeout=60)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            exit_code, captured.out.encode(), captured.err.encode()), argv
        assert b"Traceback" not in proc.stderr
    assert len(proc.stdout) > 30_000


JSON_CHARS = st.one_of(st.characters(exclude_categories=()),
                       st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t\u2028\ud800\udfff\U0001f600'))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(JSON_CHARS)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(JSON_CHARS, max_size=4), inner, max_size=4)),
    max_leaves=12)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(JSON_VALUES)
def test_to_json_matches_json_dumps(value):
    assert to_json(value) == json.dumps(value, sort_keys=True)


def test_package_has_no_other_attributes():
    for name in ("compose_check", "pde_residual", "rho", "kappa", "exp_p1", "p_monomial",
                 "character", "class_size", "conjugate", "graded_piece", "mult_same_degree",
                 "simple_hurwitz", "parse_fraction", "format_fraction", "no_such_name"):
        assert name not in diagram_ops.__all__
        with pytest.raises(AttributeError):
            getattr(diagram_ops, name)


@pytest.mark.parametrize("token, is_option", [
    ("-", False), ("-1", False), ("-0*[2]", False), ("-1/3*p3", False),
    ("-1/3*p3 + 2*p1", False),
    ("-h", True), ("-x", True), ("--json", True), ("--n=2", True),
])
def test_option_starts_with_a_dash_and_no_digit(token, is_option):
    assert _is_option(token) is is_option


LEADING_NEGATIVE = [
    (["mult", "-1*[2]", "[2]"], "-1*[1,1] + -3*[3] + -2*[2,2]\n"),
    (["wapply", "[2]", "-1/3*p3"], "-1*p1*p2\n"),
    (["wapply", "[]", "-1*p1^2"], "-1*p1^2\n"),
]


@pytest.mark.parametrize("argv, out", LEADING_NEGATIVE,
                         ids=[" ".join(argv) for argv, _ in LEADING_NEGATIVE])
def test_leading_negative_coefficient_round_trips(capsys, argv, out):
    # a value led by "-" and a digit needs no "--" before it, and a printed
    # value fed back against the identity ([] on either side) prints unchanged
    assert run(capsys, *argv) == run(capsys, argv[0], "--", *argv[1:]) == (0, out, "")
    again = ["mult", out.strip(), "[]"] if argv[0] == "mult" else ["wapply", "[]", out.strip()]
    assert run(capsys, *again) == (0, out, "")


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate", "3"],
    ["--cache-dir", "x", "chartable", "3"],
    ["chartable", "3", "--json"],
    ["wapply", "--implicit", "[2]", "p2"],
    ["mult", "-x", "[2]"],
    ["mult", "[1]"],
    ["hurwitz", "--n", "2"],
    ["chartable", "3", "4"],
    ["selftest", "quick"],
    ["hurwitz", "[2]", "--n"],
    ["--max-degree"],
    ["evolve", "--order", "--p-bound", "2", "[2]"],
    ["chartable", "three"],
    ["--seed", "1.5", "selftest"],
    ["evolve", "--order=two", "[2]"],
    ["selftest", "--level", "medium"],
    ["--json=1", "chartable", "3"],
    ["--max", "4", "chartable", "3"],
], ids=lambda argv: " ".join(argv) or "no command")
def test_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and err.startswith("usage: diagram-ops ")
    assert "\ndiagram-ops: error: " in err and "Traceback" not in err


#: the integer positions of argv: (argv with the token in place of None,
#: the namespace attribute that the token sets)
INTEGER_POSITIONS = [
    (["chartable", None], "n"),
    (["--max-degree", None, "chartable", "2"], "max_degree"),
    (["--seed", None, "selftest"], "seed"),
    (["hurwitz", "--n", None, "[2]"], "n"),
    (["evolve", "--p-bound", None, "[2]"], "p_bound"),
    (["evolve", "--order", None, "[2]"], "order"),
]
# the int-to-string limit of the interpreter, sys.get_int_max_str_digits(),
# is 4,300 digits by default
OVER_LONG = "1" * 4301


def _parse(argv):
    """(the namespace, "") of parse_args on argv, or (None, its stderr) for
    a usage error, which must exit 2."""
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink):
        try:
            return parse_args(argv)[1], ""
        except SystemExit as exc:
            assert exc.code == 2, (argv, exc.code)
    return None, sink.getvalue()


@pytest.mark.parametrize("argv, name", INTEGER_POSITIONS,
                         ids=[" ".join(a or "N" for a in argv) for argv, _ in INTEGER_POSITIONS])
def test_integer_argv_is_an_optional_sign_and_ascii_digits(argv, name):
    at = argv.index(None)
    for token in ["\u0663", "\uff13", "1_0", " 3 ", "3\n", OVER_LONG]:
        args, err = _parse(argv[:at] + [token] + argv[at + 1:])
        assert args is None and "takes an integer, not %s" % quote(token) in err, token
    for token, value in [("+3", 3), ("007", 7), ("3", 3)]:
        args, err = _parse(argv[:at] + [token] + argv[at + 1:])
        assert getattr(args, name) == value and err == "", token


def test_negative_degree_keeps_its_message(capsys):
    assert run(capsys, "chartable", "-1") == (2, "", "error (parse): degree -1 is negative\n")


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.text(st.sampled_from("0123456789\u0663\uff13_ +-"), max_size=6))
def test_integer_argv_parses_as_its_regular_expression(token):
    # the argv counterpart of the text grammars' ASCII-digit rule
    expected = int(token) if re.fullmatch(r"[+-]?[0-9]+", token, re.ASCII) else None
    for argv, name in [(["chartable", "--", token], "n"),
                       (["--max-degree=" + token, "chartable", "2"], "max_degree")]:
        args, err = _parse(argv)
        assert (None if args is None else getattr(args, name)) == expected, (argv, err)


@pytest.mark.parametrize("argv, message", [
    (["mult", "[1%s]" % OVER_LONG, "[1]"], "malformed partition"),
    (["wapply", "[2]", "p%s" % OVER_LONG], "malformed power-sum factor"),
    (["wapply", "[2]", "p1^%s" % OVER_LONG], "malformed power-sum factor"),
    (["mult", "%s*[1]" % OVER_LONG, "[1]"], "malformed rational"),
], ids=["part", "power-sum index", "power-sum exponent", "coefficient"])
def test_over_long_integer_text_is_a_parse_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error (parse): " + message)
    assert "set_int_max_str_digits" not in err


NINES = "9" * 4300  # the most digits the integer reader takes
ONES = "1" * 4300

#: (argv whose error shows long input, its exit code): the first six exit
#: as they did when messages echoed the whole input, the last three with a
#: degree over the int-to-string limit, a resource error
LONG_INPUT_PROBES = [
    (["schur", "[%s]" % ",".join(["1"] * 3000 + ["2"])], 2),
    (["chartable", NINES], 3),
    (["chartable", "x" * 5000], 2),
    (["x" * 5000], 2),
    (["wapply", "[2]", "p1*" + "q" * 5000], 2),
    (["mult", "[%s]" % NINES, "[%s]" % NINES], 3),
    (["evolve", "--order", NINES, "[2]"], 3),
    (["schur", "[%s,%s]" % (NINES, NINES)], 3),
    (["wapply", "[2]", "p%s^%s" % (ONES, ONES)], 3),
]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv, code", LONG_INPUT_PROBES, ids=[
    "schur of 3001 parts", "chartable of 4300 digits", "chartable of 5000 characters",
    "unknown command", "wapply factor of 5000 characters", "mult of 4300-digit degrees",
    "evolve order of 4300 digits", "schur of two 4300-digit parts",
    "wapply index and exponent of 4300 digits"])
def test_an_error_shows_long_input_bounded(capsys, json_flag, argv, code):
    try:
        got = main(json_flag + argv)
    except SystemExit as exc:  # a usage error
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    if code == 3:
        assert ('"kind": "resource"' in out) if json_flag else err.startswith("error (resource): ")
    assert max(len(line.encode()) for line in (out + err).splitlines()) <= 300
    assert "Exceeds the limit" not in out + err and "(at position" not in out + err


def test_quote_shows_at_most_its_limit():
    assert [quote("[2,x]"), quote(-3), quote((2, 1))] == ["'[2,x]'", "-3", "(2, 1)"]
    assert quote("x" * 5000) == "'%s... (5002 characters)" % ("x" * 59)
    assert quote(10 ** 59) == str(10 ** 59)
    # past the limit an int is not converted, so neither is one over 4,300 digits
    assert quote(10 ** 60) == quote(-10 ** 5000) == "<an integer of more than 60 digits>"


def test_every_parse_error_has_one_message():
    # ValueError keeps all its arguments, so a second one, as a position
    # once was, would make str(e) a tuple
    package = os.path.dirname(diagram_ops.__file__)
    calls = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                calls += [(name, node.lineno, len(node.args) + len(node.keywords))
                          for node in ast.walk(ast.parse(f.read()))
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", None) == "ParseError"]
    assert len(calls) > 5 and [call for call in calls if call[2] != 1] == []


@pytest.mark.parametrize("argv, names", [
    (["--help"], list(COMMANDS)),
    (["-h"], list(COMMANDS)),
    (["mult", "--help"], ["mult LEFT RIGHT"]),
    (["--json", "evolve", "[2]", "-h"], ["evolve [--p-bound N] [--order N] DIRECTIONS..."]),
])
def test_help(capsys, argv, names):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == "" and out.startswith("usage: diagram-ops ")
    assert all(name in out for name in names)


@pytest.mark.parametrize("usual, other", [
    (["--max-degree", "4", "chartable", "4"], ["--max-degree=4", "chartable", "4"]),
    (["--max-degree", "4", "chartable", "5"], ["--max-degree=4", "chartable", "5"]),
    (["--json", "evolve", "--order", "1", "[2]"], ["--json", "evolve", "--order=1", "[2]"]),
    (["evolve", "--p-bound", "2", "--order", "1", "[2]"], ["evolve", "[2]", "--order=1", "--p-bound", "2"]),
    (["hurwitz", "--n", "2", "[2]", "[2]"], ["hurwitz", "[2]", "--n", "2", "[2]"]),
    (["mult", "[1]", "[2]"], ["mult", "--", "[1]", "[2]"]),
])
def test_equivalent_argv(capsys, usual, other):
    expected = run(capsys, *usual)
    assert expected[0] in (0, 3) and expected[1] + expected[2]
    assert run(capsys, *other) == expected


INTEGER = st.integers(-3, 6).map(str)
TEXT = st.sampled_from([
    "[]", "[1]", "[2]", "[1,1]", "[3]", "[2,1]", "[2,2]", "[3,1]", "[1,3]", "[0]", "[4,2]",
    "2*[2] + [1]", "1/2*[2,1]", "-1*[2] + [3]", "p1", "p2^2", "2*p2*p1",
    "1/3*p1^3 + -1/3*p3", "p0", "p1^100000000", "1",
])
JUNK = st.sampled_from(["", "-", "-x", "--", "--max", "--json", "-h", "[", "[2,", "*", "1e3",
                        "quick"] + list(COMMANDS))


def _option(flag, kind):
    if kind is bool:
        return st.just([flag])
    value = INTEGER if kind is int else st.sampled_from(["quick", "medium"])
    return st.one_of(value.map(lambda v: [flag, v]), value.map(lambda v: [flag + "=" + v]))


def _options(options):
    return [_option(flag, kind) for flag, (kind, _) in options.items()]


@st.composite
def _command_argv(draw):
    """Global options, a command, then its positionals and options in any
    order, sometimes with a junk token, a missing or an extra value."""
    argv = sum(draw(st.lists(st.one_of(*_options(GLOBAL_OPTIONS)), max_size=2)), [])
    name = draw(st.sampled_from(list(COMMANDS)))
    _, _, positionals, options = COMMANDS[name]
    units = [[draw(INTEGER if kind is int else TEXT)] for _, kind in positionals]
    if positionals and positionals[-1][0].endswith("..."):
        units += [[t] for t in draw(st.lists(TEXT, max_size=3))]
    if options:
        units += draw(st.lists(st.one_of(*_options(options)), max_size=2))
    units += [[t] for t in draw(st.lists(JUNK, max_size=1))]
    units = draw(st.permutations(units))
    if units and draw(st.integers(0, 3)) == 0:
        units = units[:-1]
    return argv + [name] + sum(units, [])


ARGV = st.one_of(_command_argv(), st.lists(st.one_of(TEXT, INTEGER, JUNK), max_size=6))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(ARGV)
def test_cli_fuzz_exit_codes(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    assert code in (0, 2, 3, 4, ("SystemExit", 0), ("SystemExit", 2)), (argv, code)
