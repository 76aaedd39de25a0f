"""Run one diagram-ops CLI call with a span around each traced function.

Usage: python3 trace_child.py SPANS_OUT CLI_ARGS...

Wraps the public functions named in TRACED, rebinding each wrapper in
every diagram_ops module that imported the function, then calls
diagram_ops.cli.main(CLI_ARGS).  Spans are kept in memory as
(name, start, end, parent index) and written as JSON to SPANS_OUT when
main returns, together with the number of distinct argument tuples seen
per function.  A module or function the program no longer has is
skipped, and its metrics read 0.
"""

import json
import sys
import time

TRACED = {
    "characters": ("char_table", "phi", "character"),
    "class_algebra": ("structure_constant", "mult_same_degree", "mult_infinity", "mult_sum"),
    "psym": ("schur", "schur_expand", "from_schur"),
    "w_ops": ("apply_spectral",),
    "hurwitz": ("hurwitz_chain", "hurwitz3", "generating_function"),
    "partitions": ("partitions_of",),
}
# functions whose memo size (distinct argument tuples) is reported
DISTINCT = {"characters.char_table", "characters.phi", "class_algebra.structure_constant",
            "psym.schur"}

spans = []
stack = [-1]
seen = {name: set() for name in DISTINCT}


def _span(name, fn):
    clock = time.perf_counter
    keys = seen.get(name)

    def wrapper(*args, **kwargs):
        if keys is not None:
            keys.add((args, tuple(sorted(kwargs.items()))))
        index = len(spans)
        spans.append([name, clock(), 0.0, stack[-1]])
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[index][2] = clock()

    return wrapper


def install():
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "diagram_ops"]
    for module_name, names in TRACED.items():
        module = sys.modules.get("diagram_ops." + module_name)
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                continue
            wrapper = _span("%s.%s" % (module_name, name), original)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def main(out_path, argv):
    from diagram_ops import cli

    t0 = time.perf_counter()
    install()
    wrap_s = time.perf_counter() - t0
    code = 1
    try:
        code = _span("cli.main", cli.main)(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as f:
            json.dump({"wrap_s": wrap_s, "spans": spans,
                       "distinct": {name: len(keys) for name, keys in seen.items()}}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
