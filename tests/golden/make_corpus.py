"""Write corpus.jsonl, the byte-identity corpus of the CLI.

Each line of corpus.jsonl is one record: an argv, the exit code of
diagram_ops.cli.main on it, and the byte length and sha256 of its stdout
and of its stderr.  A record may also name a patch from PATCHES, a broken
character table that the argv runs under, for an exit code that working
code never reaches.  tests/test_golden.py runs every record again and
compares.  The same char_table_with and installed break the tables of
tests/test_cli.py and tests/test_mutants.py.

This script is the only writer of corpus.jsonl.  Run it from the root of
a checkout, on the code whose output the corpus should pin:

    PYTHONPATH=src python3 tests/golden/make_corpus.py

The argv are those of corpus.jsonl, with their patches, in file order,
then each argv of corpus_argv that the file does not hold yet, so a
rerun rewrites records but never drops or reorders one.  The first
records are the seed 1-5 rounds of the products, operators and hurwitz
workloads of perfbench/workloads.py as it was when the corpus began, each
in text and --json; then come edge cases: W([3,2]) on every monomial of
degree <= 12, phi at every R with |R| <= 12, a long evolve, a 6-class
bracket at n = 12, both selftest levels, empty diagrams, and one argv per
exit code.
"""

import contextlib
import hashlib
import io
import json
import operator
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus.jsonl")


def char_table_with(n, r, cls, value):
    """char_table, but the table of S_n has value(chi_r(cls)) in place of
    chi_r(cls), which it must change."""
    from diagram_ops import characters

    real = characters.char_table
    table = real(n)
    rows = {s: list(row) for s, row in table.rows.items()}
    i = table.column(cls)
    rows[r][i] = value(rows[r][i])
    assert rows[r][i] != table.rows[r][i], "an unchanged entry tests nothing"
    broken = characters.CharacterTable(n, table.order, rows)
    return lambda k: broken if k == n else real(k)


@contextlib.contextmanager
def installed(module, name, replacement):
    """Bind replacement wherever the package holds module.name.  Both
    table memos are emptied before and after, so no table built under one
    binding is read under the other."""
    from diagram_ops import characters

    real = getattr(module, name)
    holders = [m for key, m in list(sys.modules.items())
               if key.startswith("diagram_ops") and getattr(m, name, None) is real]
    memos = [characters.char_table, characters._strip_column]
    for memo in memos:
        memo.cache_clear()
    for m in holders:
        setattr(m, name, replacement)
    try:
        yield
    finally:
        for m in holders:
            setattr(m, name, real)
        for memo in memos:
            memo.cache_clear()


def _negated_s4_entry():
    """The table of S_4 with chi_[2,1,1]([2,2]) negated."""
    from diagram_ops import characters

    return installed(characters, "char_table", char_table_with(4, (2, 1, 1), (2, 2), operator.neg))


PATCHES = {"s4-negated-entry": _negated_s4_entry}


def digest(data: bytes) -> list:
    return [len(data), hashlib.sha256(data).hexdigest()]


def run_in_process(argv, patch=None):
    """(exit code, stdout bytes, stderr bytes) of cli.main(argv)."""
    from diagram_ops.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if patch is not None:
            stack.enter_context(PATCHES[patch]())
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = main(list(argv))
        except SystemExit as exc:  # usage errors and --help
            code = exc.code
    encode = lambda s: s.getvalue().encode("utf-8", "surrogateescape")
    return code, encode(out), encode(err)


def make_record(argv, patch=None) -> dict:
    code, out, err = run_in_process(argv, patch)
    rec = {"argv": list(argv), "code": code, "stdout": digest(out), "stderr": digest(err)}
    if patch is not None:
        rec["patch"] = patch
    return rec


def _monomial(p) -> str:
    factors = ["p%d" % k if p.count(k) == 1 else "p%d^%d" % (k, p.count(k))
               for k in sorted(set(p), reverse=True)]
    return "*".join(factors) or "1"


def corpus_argv():
    """[(argv, patch)] in corpus order, each once: those of corpus.jsonl in
    file order, then those below that it does not hold."""
    from diagram_ops.partitions import format_partition, partitions_of

    out = []
    if os.path.exists(CORPUS):
        with open(CORPUS, encoding="ascii") as f:
            out = [(rec["argv"], rec.get("patch")) for rec in map(json.loads, f)]
    up_to_12 = [p for n in range(13) for p in partitions_of(n)]
    argvs = [["--max-degree", "12", "wapply", "[3,2]", _monomial(p)] for p in up_to_12]
    for delta in ("[2]", "[3]", "[2,1]", "[2,2]", "[4]"):
        argvs += [["--max-degree", "12", "eigenvalue", delta, format_partition(r)] for r in up_to_12]
    argvs += [["--json", "--max-degree", "12", "eigenvalue", "[2]", format_partition(r)]
              for r in up_to_12]
    twelve = ["[12]", "[11,1]", "[6,6]", "[5,4,3]", "[3,3,3,3]", "[2,2,2,2,2,2]"]
    argvs += [
        ["--max-degree", "12", "evolve", "--p-bound", "12", "--order", "100", "[11,1]"],
        ["--max-degree", "12", "hurwitz"] + twelve,
        ["--json", "--max-degree", "12", "hurwitz", "--n", "12"] + twelve,
        ["selftest", "--level", "quick"],
        ["--json", "selftest", "--level", "full"],
        # empty diagrams
        ["mult", "[]", "[]"], ["mult", "[]", "[2,1]"], ["--json", "mult", "1/2*[] + [1]", "[]"],
        ["chartable", "0"], ["--json", "chartable", "0"], ["schur", "[]"],
        ["eigenvalue", "[]", "[]"], ["eigenvalue", "[]", "[3,1]"], ["eigenvalue", "[2]", "[]"],
        ["wapply", "[]", "p2*p1 + 3"], ["wapply", "[2]", "1"], ["wapply", "--explicit", "[]", "p2"],
        ["hurwitz", "[]"], ["hurwitz", "[]", "[]", "[]"], ["evolve", "[]"],
        ["--json", "evolve", "--p-bound", "3", "[]", "[2]"],
        # exit code 2: a parse error and a usage error
        ["chartable", "-1"], ["--json", "mult", "[2,3]", "[1]"], ["frobnicate", "3"],
        # exit code 3
        ["--max-degree", "12", "chartable", "13"], ["--json", "evolve", "--order", "101", "[2]"],
    ]
    # exit code 4, which only a broken table reaches
    patched = [(["mult", "[2,2]", "[2,2]"], "s4-negated-entry"),
               (["--json", "mult", "[2,2]", "[2,2]"], "s4-negated-entry")]
    seen = {(tuple(argv), patch) for argv, patch in out}
    for argv, patch in [(argv, None) for argv in argvs] + patched:
        if (tuple(argv), patch) not in seen:
            seen.add((tuple(argv), patch))
            out.append((argv, patch))
    return out


def main():
    lines = [json.dumps(make_record(argv, patch), sort_keys=True) + "\n"
             for argv, patch in corpus_argv()]
    with open(CORPUS, "w", encoding="ascii") as f:
        f.writelines(lines)


if __name__ == "__main__":
    main()
