"""The bodies of the chartable and eigenvalue commands, which print what
the character table holds.  They live apart from diagram_ops.characters,
which every op loads, so that no other op compiles them."""

from .partitions import degree, format_partition, parse_partition
from .characters import char_table, phi


def cmd_chartable(args, check_degrees):
    """The chartable command: the table of S_n as text and as JSON."""
    check_degrees([args.n])
    table = char_table(args.n)
    rows = {format_partition(r): [str(x) for x in table.rows[r]] for r in table.order}
    lines = ["classes: " + " ".join(map(format_partition, table.order))]
    lines += ["%s: %s" % (r, " ".join(row)) for r, row in rows.items()]
    return "\n".join(lines), {"n": args.n, "order": [list(p) for p in table.order], "rows": rows}


def cmd_eigenvalue(args, check_degrees):
    """The eigenvalue command: phi_R(delta)."""
    delta, r = parse_partition(args.delta), parse_partition(args.r)
    check_degrees([degree(delta), degree(r)])
    value = str(phi(r, delta))
    return value, {"value": value}
