"""Deterministic cost counts: the bytecode a command runs in the library.

:func:`opcodes` runs ``cli.main`` in-process under :func:`sys.settrace`,
sets ``f_trace_opcodes`` on every frame of a module of the ``oneideal``
package, and counts the opcodes those frames execute.  Frames of the
standard library (argparse, json) and of builtins are not counted, and a
builtin call counts as one opcode however long it runs, so the count
measures the library's own Python work.  Unlike wall time it is exact and
repeats from run to run on any host, so a complexity claim can be a tier-1
assertion.

``python tests/cost.py ARGV...`` prints the count for one command line,
for example ``python tests/cost.py invariant --m 3073 --n 1,2,3``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import oneideal
from oneideal import cli

PACKAGE = os.path.dirname(oneideal.__file__)


def opcodes(argv: list[str]) -> int:
    """The opcodes ``oneideal`` frames execute while ``cli.main(argv)`` runs;
    the command's output is discarded."""
    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcode

    def call(frame, event, arg):
        if os.path.dirname(frame.f_code.co_filename) != PACKAGE:
            return None
        frame.f_trace_opcodes = True
        return opcode

    cli.build_parser()  # built once per process, so not counted in any command
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        outer = sys.gettrace()
        sys.settrace(call)
        try:
            cli.main(argv)
        finally:
            sys.settrace(outer)
    return count


if __name__ == "__main__":
    print(opcodes(sys.argv[1:]))
