"""Deterministic cost counts: the bytecode a command runs in the library.

:func:`opcodes` runs ``cli.main`` in-process under :func:`sys.settrace`,
sets ``f_trace_opcodes`` on every frame of a module of the ``oneideal``
package, and counts the opcodes those frames execute.  Frames of the
standard library (argparse, json, fractions) are not counted, so the count
measures the library's own Python work; with ``every_frame=True`` every
Python frame under ``cli.main`` counts, so the count is the whole query's
Python work.  A builtin call counts as one opcode however long it runs.
Unlike wall time the count is exact and repeats from run to run on any
host, so a complexity claim can be a tier-1 assertion.

``python tests/cost.py ARGV...`` prints both counts for one command line,
the library's and then every frame's, for example
``python tests/cost.py invariant --m 3073 --n 1,2,3``.  With
``--by-function`` first it prints every frame's count per function, largest
first, as count, ``file:line`` and qualified name, then the total.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from collections import Counter

import oneideal
from oneideal import cli

PACKAGE = os.path.dirname(oneideal.__file__)


def opcodes(argv: list[str], every_frame: bool = False) -> int:
    """The opcodes ``oneideal`` frames, or with ``every_frame`` all Python
    frames, execute while ``cli.main(argv)`` runs; the command's output is
    discarded."""
    return sum(opcodes_by_function(argv, every_frame).values())


def opcodes_by_function(argv: list[str], every_frame: bool = False) -> Counter:
    """:func:`opcodes`, counted by the code object whose frame executes them."""
    counts = Counter()

    def opcode(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return opcode

    def call(frame, event, arg):
        if not every_frame and os.path.dirname(frame.f_code.co_filename) != PACKAGE:
            return None
        frame.f_trace_opcodes = True
        return opcode

    # built once per process, and only for an argv the table reader hands
    # on, so not counted in any command
    cli.build_parser()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        outer = sys.gettrace()
        sys.settrace(call)
        try:
            cli.main(argv)
        finally:
            sys.settrace(outer)
    return counts


if __name__ == "__main__":
    if sys.argv[1:2] == ["--by-function"]:
        counts = opcodes_by_function(sys.argv[2:], every_frame=True)
        for code, count in counts.most_common():
            where = f"{os.path.basename(code.co_filename)}:{code.co_firstlineno}"
            print(f"{count:8d}  {where:<24} {code.co_qualname}")
        print(f"{counts.total():8d}  total")
    else:
        print(opcodes(sys.argv[1:]), opcodes(sys.argv[1:], every_frame=True))
