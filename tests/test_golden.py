"""Byte-identity corpus: every record of tests/golden/corpus.jsonl run
again through cli.main must give the same exit code and the same bytes on
stdout and stderr; a few run as `python -m diagram_ops.cli` processes.
tests/golden/make_corpus.py writes the corpus and says how to rerun it."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import diagram_ops

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "make_corpus", os.path.join(HERE, "golden", "make_corpus.py"))
make_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_corpus)

with open(make_corpus.CORPUS, encoding="ascii") as _f:
    RECORDS = [json.loads(line) for line in _f]

SRC = os.path.dirname(os.path.dirname(os.path.abspath(diagram_ops.__file__)))


def _mismatch(rec, got) -> str:
    return "%s: exit %s -> %s, stdout %d -> %d bytes, stderr %d -> %d bytes" % (
        rec["argv"], rec["code"], got["code"], rec["stdout"][0], got["stdout"][0],
        rec["stderr"][0], got["stderr"][0])


def test_corpus_in_process():
    assert len(RECORDS) > 2000
    bad = []
    for rec in RECORDS:
        got = make_corpus.make_record(rec["argv"], rec.get("patch"))
        if got != rec:
            bad.append(_mismatch(rec, got))
    if bad:
        pytest.fail("%d of %d records differ:\n%s" % (len(bad), len(RECORDS), "\n".join(bad[:20])),
                    pytrace=False)


@pytest.mark.parametrize("argv", [
    ["chartable", "0"],
    ["mult", "[]", "[2,1]"],
    ["--max-degree", "12", "eigenvalue", "[2,2]", "[5,4,3]"],
    ["--json", "--max-degree", "12", "hurwitz", "--n", "12", "[12]", "[11,1]", "[6,6]",
     "[5,4,3]", "[3,3,3,3]", "[2,2,2,2,2,2]"],
    ["chartable", "-1"],
    ["frobnicate", "3"],
    ["--max-degree", "12", "chartable", "13"],
], ids=" ".join)
def test_corpus_as_process(argv):
    rec = next(r for r in RECORDS if r["argv"] == argv and "patch" not in r)
    proc = subprocess.run([sys.executable, "-m", "diagram_ops.cli"] + argv, capture_output=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    got = {"argv": argv, "code": proc.returncode, "stdout": make_corpus.digest(proc.stdout),
           "stderr": make_corpus.digest(proc.stderr)}
    assert got == rec, _mismatch(rec, got)
