"""End-to-end benchmark of the diagram-ops CLI.

    python3 perfbench/run.py --workload products --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One process runs the seed's round of
`python -m diagram_ops.cli --json ...` calls one at a time, each in its
own process (a closed loop with one client), and repeats the whole round
as often as brings the timed phase closest to --seconds.  Each run first
makes an empty character-table cache of its own, passed through
DIAGRAM_OPS_CACHE_DIR, and fills it in a timed set-up phase
(`chartable n` for every table the round reads).  Outputs are checked
outside the timed sections against perfbench/checks.py, which does not
use the program.

--trace 0 prints the end-to-end metrics; --trace 1 runs every op once
plain and once under perfbench/trace_child.py and prints the per-layer
metrics.  --smoke swaps in a few tiny ops per workload and checks the
results, not the speed.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple
from fractions import Fraction

_IMPORTED_AT = time.perf_counter()

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_CHILD = os.path.join(HERE, "trace_child.py")
RUNS_DIR = os.path.join(ROOT, ".perfbench-run")

#: An op still running after this long is killed and counts as failed.
OP_TIMEOUT_S = 60
#: Past this age of the run, each op gets 1 s, so that a run whose ops
#: hang still ends within 180 s.
DEADLINE_S = 120
#: `chartable` refuses n above --max-degree; 12 covers every table used.
SETUP_MAX_DEGREE = 12

CHECKERS = {
    "mult": checks.check_mult,
    "wapply": checks.check_wapply,
    "schur": checks.check_schur,
    "hurwitz": checks.check_hurwitz,
    "evolve": checks.check_evolve,
}

OpResult = namedtuple("OpResult", "wall cpu rss_kb code stdout spawned")


def since_process_start() -> float:
    """Seconds since this process started, interpreter start included."""
    try:
        with open("/proc/self/stat") as f:
            ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _IMPORTED_AT


def reference_loop() -> float:
    """Time a fixed stdlib loop of small Fraction and dict work, the kind
    the program does, to follow the machine's speed between ops."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(3000):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11 + 1, i % 17 + 1)
    return time.perf_counter() - t0


class Runner:
    """Runs CLI calls in fresh processes inside one run directory."""

    def __init__(self, run_dir):
        self.run_dir = run_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        self.env["DIAGRAM_OPS_CACHE_DIR"] = os.path.join(run_dir, "cache")
        self.env["PYTHONHASHSEED"] = "0"
        self.spans_made = 0

    def run(self, argv, traced=False):
        """Run one call; returns (OpResult, path of its span file or None)."""
        spans = None
        if traced:
            self.spans_made += 1
            spans = os.path.join(self.run_dir, "spans-%d.json" % self.spans_made)
            cmd = [sys.executable, TRACE_CHILD, spans, "--json"] + list(argv)
        else:
            cmd = [sys.executable, "-m", "diagram_ops.cli", "--json"] + list(argv)
        timeout = min(OP_TIMEOUT_S, max(1.0, DEADLINE_S - since_process_start()))
        out_path = os.path.join(self.run_dir, "op.out")
        err_path = os.path.join(self.run_dir, "op.err")
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            spawned = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=self.run_dir, env=self.env)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - spawned
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            if proc.returncode != 0:
                err.seek(0)
                last = (err.read().decode("utf-8", "replace").strip().splitlines() or [""])[-1]
                print("perfbench: %s exited %d: %s" % (" ".join(argv), proc.returncode, last),
                      file=sys.stderr)
        result = OpResult(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                          proc.returncode, stdout, spawned)
        return result, spans


def check_output(op, stdout):
    """None when the op's JSON output passes its independent check."""
    try:
        obj = json.loads(stdout)
        return CHECKERS[op.kind](*op.data, obj)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return "unreadable output: %r" % (exc,)


def setup(runner, ops, traced):
    """Fill the run's cache with every table the round reads; returns the
    setup results (n, OpResult, span file)."""
    out = []
    for n in sorted(set().union(*(op.tables for op in ops))):
        result, spans = runner.run(("--max-degree", str(SETUP_MAX_DEGREE), "chartable", str(n)),
                                   traced)
        out.append((n, result, spans))
    return out


def setup_problems(results):
    problems = []
    for n, result, _ in results:
        if result.code != 0:
            problems.append("chartable %d exited %d" % (n, result.code))
            continue
        try:
            reason = checks.check_chartable(n, json.loads(result.stdout))
        except (ValueError, KeyError, TypeError) as exc:
            reason = "unreadable output: %r" % (exc,)
        if reason:
            problems.append("chartable %d: %s" % (n, reason))
    return problems


def timed_phase(runner, ops, seconds, traced):
    """Repeat whole rounds, at least one, for as many as brings the phase
    closest to `seconds`.  Returns the op records (op, plain OpResult,
    traced OpResult or None, span file), the reference-loop times, the
    number of rounds and the wall time of the phase without the
    reference loops."""
    records, refs = [], []
    rounds = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            refs.append(reference_loop())
            plain, _ = runner.run(op.argv)
            traced_result, spans = runner.run(op.argv, traced=True) if traced else (None, None)
            records.append((op, plain, traced_result, spans))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            break
    wall = time.perf_counter() - start - sum(refs)
    return records, refs, rounds, wall


def output_problems(records):
    problems = []
    checked = {}
    for op, *results, _ in records:
        for result in results:
            if result is None or result.code != 0:
                continue
            key = (op, result.stdout)
            if key not in checked:
                checked[key] = check_output(op, result.stdout)
                if checked[key]:
                    problems.append("%s: %s" % (" ".join(op.argv), checked[key]))
    return problems


def end_to_end_metrics(records, refs, rounds, wall, setup_s):
    walls = [plain.wall for _, plain, _, _ in records]
    return {
        "ops_per_s": (sum(1 for _, plain, _, _ in records if plain.code == 0) / wall, "op/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "cpu_s": (sum(plain.cpu for _, plain, _, _ in records) / rounds, "s"),
        "peak_rss_mb": (max(plain.rss_kb for _, plain, _, _ in records) / 1024, "MB"),
        "setup_s": (setup_s, "s"),
        "ops_time_ref": (wall / rounds / statistics.median(refs), "refloop"),
    }


# Per-layer metrics: (function span, statistic).  Times and counts are
# per round of the op mix; "distinct" sums each op process's memo size.
LAYERS = [
    ("characters.char_table", ("calls", "distinct", "self_s")),
    ("class_algebra.structure_constant", ("calls", "distinct", "self_s")),
    ("class_algebra.mult_same_degree", ("calls", "self_s")),
    ("class_algebra.mult_infinity", ("self_s",)),
    ("class_algebra.mult_sum", ("self_s",)),
    ("psym.schur", ("calls", "distinct", "self_s")),
    ("psym.schur_expand", ("self_s",)),
    ("psym.from_schur", ("self_s",)),
    ("w_ops.apply_spectral", ("calls", "self_s")),
    ("characters.phi", ("calls", "distinct", "self_s")),
    ("characters.character", ("calls", "self_s")),
    ("hurwitz.hurwitz_chain", ("calls", "self_s")),
    ("hurwitz.hurwitz3", ("calls",)),
    ("hurwitz.generating_function", ("self_s",)),
    ("partitions.partitions_of", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
]


def span_totals(span_files):
    """Sum calls, self time and distinct counts per span name, and the
    start-up time before cli.main, over the given span files."""
    totals = {}
    start_s = 0.0
    for path, spawned in span_files:
        with open(path) as f:
            dump = json.load(f)
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
            if name == "cli.main":
                start_s += t0 - spawned - dump["wrap_s"]
        for (name, t0, t1, _), inner in zip(spans, child_time):
            entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "distinct": 0})
            entry["calls"] += 1
            entry["self_s"] += t1 - t0 - inner
        for name, count in dump["distinct"].items():
            totals.setdefault(name, {"calls": 0, "self_s": 0.0, "distinct": 0})
            totals[name]["distinct"] += count
    return totals, start_s


def per_layer_metrics(records, refs, rounds, setup_results):
    totals, start_s = span_totals([(spans, traced.spawned)
                                   for _, _, traced, spans in records if traced.code == 0])
    metrics = {}
    for name, stats in LAYERS:
        entry = totals.get(name, {"calls": 0, "self_s": 0.0, "distinct": 0})
        for stat in stats:
            unit = "s" if stat == "self_s" else "count"
            metrics["%s.%s" % (name, stat)] = (entry[stat] / rounds, unit)
    metrics["cli.start_s"] = (start_s / rounds, "s")
    setup_totals, _ = span_totals([(spans, result.spawned)
                                   for _, result, spans in setup_results if result.code == 0])
    metrics["setup.characters.char_table.self_s"] = (
        setup_totals.get("characters.char_table", {"self_s": 0.0})["self_s"], "s")
    metrics["bench.ref_loop_s"] = (statistics.median(refs), "s")
    overhead = sum(traced.wall - plain.wall for _, plain, traced, _ in records)
    metrics["bench.trace_overhead_s"] = (overhead / rounds, "s")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few tiny ops per workload; checks results, not speed")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diagram_ops", "cli.py")):
        print("perfbench: no program at %s; run from a diagram-ops checkout" % SRC,
              file=sys.stderr)
        return 2
    ops = workloads.make_round(args.workload, args.seed, smoke=args.smoke)
    traced = bool(args.trace)
    run_dir = os.path.join(RUNS_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(run_dir)
    try:
        runner = Runner(run_dir)
        setup_results = setup(runner, ops, traced)
        setup_s = since_process_start()
        records, refs, rounds, wall = timed_phase(runner, ops, args.seconds, traced)
        if traced:
            metrics = per_layer_metrics(records, refs, rounds, setup_results)
        else:
            metrics = end_to_end_metrics(records, refs, rounds, wall, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass
    checked_at = time.perf_counter()
    problems = setup_problems(setup_results) + output_problems(records)
    print("perfbench: %s seed %d: %d rounds of %d ops in %.1f s, checks %.1f s"
          % (args.workload, args.seed, rounds, len(ops), wall,
             time.perf_counter() - checked_at), file=sys.stderr)
    for problem in problems:
        print("perfbench: incorrect output: %s" % problem, file=sys.stderr)
    failed = sum(1 for _, plain, traced_result, _ in records
                 if plain.code != 0 or (traced_result is not None and traced_result.code != 0))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
