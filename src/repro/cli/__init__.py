"""The ``insane`` umbrella command line.

One entry point in front of every subsystem::

    insane bench fig7 --profile cloud     # tables and figures
    insane validate differential --n 50   # engine oracles and fuzzing
    insane scenario run corpus/           # scenario DSL + SLO verdicts

Sub-command argv is forwarded *verbatim* to the sub-CLI mains, which are
also reachable as ``python -m repro.bench`` and ``python -m
repro.validate``.
"""

import importlib
import sys

#: sub-command -> (module with a ``main(argv)``, one-line description).
COMMANDS = {
    "bench": ("repro.bench.cli",
              "regenerate the paper's tables and figures"),
    "validate": ("repro.validate.cli",
                 "differential validation, fuzzing, golden corpus"),
    "scenario": ("repro.scenario.cli",
                 "run scenario suites and evaluate SLOs"),
}


def _usage():
    lines = [
        "usage: insane COMMAND [ARGS...]",
        "",
        "Reproduction toolkit for INSANE (Middleware '23).  Commands:",
        "",
    ]
    for name in sorted(COMMANDS):
        lines.append("  %-10s %s" % (name, COMMANDS[name][1]))
    lines.append("")
    lines.append("Run `insane COMMAND --help` for command options.")
    return "\n".join(lines)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(_usage(), file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command in ("-h", "--help", "help"):
        print(_usage())
        return 0
    entry = COMMANDS.get(command)
    if entry is None:
        print("insane: unknown command %r\n" % command, file=sys.stderr)
        print(_usage(), file=sys.stderr)
        return 2
    module = importlib.import_module(entry[0])
    return module.main(rest)
