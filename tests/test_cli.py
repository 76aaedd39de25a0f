import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import diagram_ops

from diagram_ops import characters, oracles
from diagram_ops.cli import COMMANDS, GLOBAL_OPTIONS, _is_negative_number, main, to_json
from diagram_ops.errors import ConsistencyError
from diagram_ops.oracles import mult_same_degree


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


def install_s4_table(monkeypatch, r, cls, value):
    """Bind, wherever the package holds char_table, one that gives the
    table of S_4 with chi_r(cls) = value(chi_r(cls))."""
    real = characters.char_table
    table = real(4)
    rows = {s: list(row) for s, row in table.rows.items()}
    rows[r][table.column(cls)] = value(rows[r][table.column(cls)])
    broken = characters.CharacterTable(4, table.order, rows)
    for name, module in list(sys.modules.items()):
        if name.startswith("diagram_ops") and getattr(module, "char_table", None) is real:
            monkeypatch.setattr(module, "char_table", lambda n: broken if n == 4 else real(n))


def test_consistency_error_exits_4(capsys, monkeypatch):
    # the table of S_4 with chi_[2,1,1]([2,2]) negated
    install_s4_table(monkeypatch, (2, 1, 1), (2, 2), lambda x: -x)
    message = "non-integral structure constant 9/4 for ((2, 2), (2, 2), (2, 2))"
    with pytest.raises(ConsistencyError, match=re.escape(message)):
        mult_same_degree((2, 2), (2, 2))
    code, out, err = run(capsys, "mult", "[2,2]", "[2,2]")
    assert (code, out, err) == (4, "", "error (consistency): %s\n" % message)
    code, out, _ = run(capsys, "--json", "mult", "[2,2]", "[2,2]")
    assert code == 4
    assert json.loads(out) == {"error": {"kind": "consistency", "msg": message}}


def test_non_integral_phi_exits_4(capsys, monkeypatch):
    # the table of S_4 with chi_[2,2]([2,2]) = 1, not 2: phi_[2,2]([2,2]) = 12/8
    install_s4_table(monkeypatch, (2, 2), (2, 2), lambda x: 1)
    message = "non-integral phi for (2, 2) at degree 4"
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


def test_import_path_leaves_out_oracles_and_dataclasses():
    package = os.path.dirname(diagram_ops.__file__)
    submodules = ["diagram_ops." + f[:-3] for f in sorted(os.listdir(package))
                  if f.endswith(".py") and f != "__init__.py"]
    later = ["diagram_ops." + m for m in ("psym", "hurwitz", "oracles")]
    # no op parses argv with argparse or writes JSON with json, and only -h,
    # --help and usage errors build usage
    parser = ["argparse", "gettext", "json", "locale", "diagram_ops.usage"]
    no_algebra = ["diagram_ops.class_algebra"] + parser
    # no op but selftest builds a Fraction, which loads decimal, numbers and re
    no_fractions = ["fractions", "decimal", "numbers", "re"]
    no_tables = ["diagram_ops.table_commands"]
    run_cli = "from diagram_ops.cli import main; main(sys.argv[1:]); "
    cases = [
        ("import diagram_ops.cli; ", [],
         ["diagram_ops.oracles", "dataclasses", "inspect", "__future__"] + parser),
        (run_cli, ["--json", "mult", "[2]", "[2]"], later + parser + no_fractions + no_tables),
        (run_cli, ["mult", "[4,3]", "[2,2,1]"], later + parser + no_fractions),
        (run_cli, ["chartable", "3"], later + no_algebra + no_fractions),
        (run_cli, ["eigenvalue", "[2]", "[3]"], later + no_algebra + no_fractions),
        (run_cli, ["schur", "[2,1]"], later[1:] + no_algebra),
        (run_cli, ["schur", "[3,1,1]"], later[1:] + no_algebra + no_fractions + no_tables),
        (run_cli, ["--json", "schur", "[3,1,1]"], later[1:] + no_algebra + no_fractions),
        (run_cli, ["wapply", "[2]", "1*p2"], later[1:] + no_algebra + no_fractions),
        (run_cli, ["wapply", "[2]", "1/2*p2 + 3*p1^2"],
         later[1:] + no_algebra + no_fractions + no_tables),
        (run_cli, ["--json", "wapply", "[3,2]", "-7/12*p3*p2 + 5/4*p1^5"],
         later[1:] + no_algebra + no_fractions),
        (run_cli, ["mult", "1/2*[2]", "2/3*[2] + 1/3*[1]"], later + parser + no_fractions),
        (run_cli, ["hurwitz", "[2]", "[2]"], later[::2] + no_algebra + no_fractions + no_tables),
        (run_cli, ["hurwitz", "[2]", "[2]", "[1,1]"], later[::2] + no_algebra + no_fractions),
        (run_cli, ["evolve", "[2]"], later[::2] + no_algebra + no_fractions),
        (run_cli, ["evolve", "--p-bound", "3", "--order", "2", "[2]"],
         later[::2] + no_algebra + no_fractions),
        (run_cli, ["--json", "evolve", "--p-bound", "3", "--order", "2", "[2]"],
         later[::2] + no_algebra + no_fractions),
        (run_cli, ["selftest"], ["json", "argparse", "diagram_ops.usage"]),
        # the library's constructors and kernel take and make ints only
        ("from diagram_ops import DiagramSum, PPoly, from_schur, generating_function; "
         "PPoly({(2,): 1}); DiagramSum({(2,): 1}); from_schur({(2, 1): 1}); "
         "generating_function([(2,)], 4, 2); ", [], no_fractions[:3]),
        ("import diagram_ops; ", [], submodules + ["json"]),
        ("import diagram_ops; [getattr(diagram_ops, n) for n in diagram_ops.__all__]; ", [],
         ["json"]),
    ]
    env = dict(os.environ, PYTHONPATH=SRC)
    for code, argv, absent in cases:
        # the package compiles no regular expression: re comes only with fractions
        code = ("import sys; %sprint([m for m in %r if m in sys.modules]"
                " + ['re'] * ('re' in sys.modules and 'fractions' not in sys.modules),"
                " file=sys.stderr)" % (code, absent))
        # -S: the site hooks of some installs import re themselves
        proc = subprocess.run([sys.executable, "-S", "-c", code] + argv, capture_output=True,
                              text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "[]\n"), (code, argv, proc.stderr)


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


def test_op_compile_budget():
    # without cached bytecode, as the benchmark runs, every op compiles
    # each package module it loads, so their size is start-up time
    code = ("import sys; from diagram_ops.cli import main; main(sys.argv[1:]); "
            "print([m.__file__ for k, m in sys.modules.items()"
            " if k.split('.')[0] == 'diagram_ops'], file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=SRC)
    for op, (argv, budget) in COMPILE_BUDGETS.items():
        proc = subprocess.run([sys.executable, "-S", "-c", code] + argv, capture_output=True,
                              text=True, env=env, timeout=60)
        assert proc.returncode == 0, (argv, proc.stderr)
        nodes = 0
        for path in ast.literal_eval(proc.stderr):
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


# The pattern _is_option was written with, kept as the oracle of its
# str-method check: \d is any Unicode decimal digit, and $ also matches
# before one final newline.
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
TOKEN_CHARS = st.sampled_from("-.0123456789\u0663\uff11\u00b2 \n\tx")


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.one_of(st.text(TOKEN_CHARS, max_size=6),
                 st.text(TOKEN_CHARS, max_size=6).map(lambda t: "-" + t)))
def test_negative_number_matches_its_regular_expression(token):
    assert bool(_is_negative_number(token)) == bool(NEGATIVE_NUMBER.match(token)), token


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
