"""The usage line and the help text of the CLI, built from its option and
command tables, which diagram_ops.cli passes in.  Only -h, --help and
usage errors load this module."""

import sys

from .characters import MAX_TABLE_DEGREE


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


def usage(command, commands, global_options):
    """'usage: diagram-ops ...' for command, or for any command when None."""
    words = ["usage: diagram-ops"] + _synopsis(global_options)
    if command is None:
        words.append("COMMAND ...")
    else:
        _, _, positionals, options = commands[command]
        words += [command] + _synopsis(options) + [name.upper() for name, _ in positionals]
    return " ".join(words)


def help_text(command, commands, global_options):
    """The usage line, a blank line, what the command does and its defaults."""
    if command is None:
        about = ["Exact algebra of Young diagrams, characters, cut-and-join operators "
                 "and Hurwitz numbers.", "", "commands:"]
        about += ["  %-11s %s" % (name, entry[1]) for name, entry in commands.items()]
        about += ["", "--json prints JSON; --max-degree bounds every input degree "
                      "(at most %d); --seed seeds selftest." % MAX_TABLE_DEGREE]
        options = global_options
    else:
        _, text, _, options = commands[command]
        about = [text]
    defaults = ["%s %s" % (flag, default) for flag, (kind, default) in options.items()
                if kind is not bool and default is not None]
    if defaults:
        about.append("defaults: " + ", ".join(defaults))
    return "\n".join([usage(command, commands, global_options), ""] + about)


def show_help(command, commands, global_options):
    """Print the help text to stdout and exit 0."""
    print(help_text(command, commands, global_options))
    raise SystemExit(0)


def usage_error(command, reason, commands, global_options):
    """Print the usage line and the reason to stderr and exit 2."""
    print(usage(command, commands, global_options), file=sys.stderr)
    print("diagram-ops: error: %s" % reason, file=sys.stderr)
    raise SystemExit(2)
