"""The golden master: every command line in ``corpus.jsonl``, run once,
its output pinned byte for byte, and what it entered.

A corpus row holds a tag, an argv, and the exit status and sha256 of stdout
and stderr when the row was written.  The tag's first word names the row's
source: ``golden NAME FORMAT``, one argv per command and section shape,
whose bytes ``golden/NAME.txt`` and ``golden/NAME.json`` also hold (x = 1
without a torsion summand, leading zeros dropped from the echo, the minimal
witness of each branch, a scan without divergence and one past m = 100);
``error NAME``, each row of ``test_cli.ERROR_LINES``; ``scan``, ``scan
--max-m 100000``; a perfbench workload, its first three blocks at seeds 11
and 12; ``spec``, the ``--spec`` and compact-JSON spec forms; ``argparse``,
a help and a usage error, which the table reader hands to argparse;
``cost``, the command lines whose opcodes ``test_cost.py`` bounds; and
``unreached``, verdicts whose textbook route would enter a function of
:data:`UNREACHED` (the units of the modulus, a two-power orbit).

:func:`one_pass` runs every row through ``cli.main`` in this process, each
golden argv also without ``--format`` (so in text), and each golden JSON
report back through ``Report.from_json_dict``.  It pins ``COLUMNS`` to 80,
as argparse wraps its help to the terminal width, and a profile function
counts, for each row, the code objects it enters, named as the library's
functions or argparse's; :func:`entered` runs any other argv under the same
profile function.  From that pass the tests check each row's status and
digests, each golden file's bytes, and that every function, method and
property in ``src/oneideal`` (bar ``__main__``, whose import runs the
command line) is entered or listed in :data:`UNREACHED` with its reason.
An entry that the corpus reaches, or that names nothing, fails too, so the
table can only shrink.  ``test_cli.py`` reads what a command line entered
from the same records.

``PYTHONPATH=src python tests/test_golden.py --regenerate`` reruns every
row and rewrites its status and digests and the golden files; the diff
names what changed.  To add a command line, append a row with its tag and
argv, any status and digests, and regenerate.  ``PYTHONPATH=src python
tests/test_golden.py --entered ARGV...`` prints the functions one command
line enters, most entries first, as count and qualified name.
"""

import argparse
import contextlib
import hashlib
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from functools import cache
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest

import oneideal
from oneideal import cli
from oneideal.report import Report

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(oneideal.__file__).parent
ARGPARSE = Path(argparse.__file__)
CORPUS = ROOT / "tests" / "corpus.jsonl"
GOLDEN = ROOT / "tests" / "golden"
SUFFIX = {"text": ".txt", "json": ".json"}
ROWS = [json.loads(line) for line in CORPUS.read_text().splitlines()]


def tagged(source: str) -> dict[str, list[str]]:
    """The argv of each row whose tag's first word is ``source``, by the rest of its tag."""
    return {row["tag"].partition(" ")[2]: row["argv"] for row in ROWS
            if row["tag"].partition(" ")[0] == source}


# each golden argv, without its --format, by the golden file name
ARGV = {tag[:-5]: argv[:-2] for tag, argv in tagged("golden").items() if tag.endswith(" text")}


def run(*argv: str) -> tuple[int, str, str]:
    """The exit status of ``cli.main(argv)`` and what it wrote to stdout and
    stderr; argparse's own exits (help, usage errors) give their status.
    The tests that read a command's output in this process read it here."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(argv))
        except SystemExit as exit_:
            status = exit_.code
    return status, out.getvalue(), err.getvalue()


def child_env() -> dict[str, str]:
    """This process's environment, with ``PYTHONPATH`` pinned to the
    directory this process imported the package from."""
    return {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}


def spawn(*argv: str, probe: str | None = None) -> tuple[int, str, str, float]:
    """The exit status, stdout, stderr and wall seconds of ``python -m
    oneideal ARGV``, or of ``python -c probe ARGV``, in a fresh interpreter
    under :func:`child_env`, stopped after 60 s.  The tests that need a
    process of their own run it here."""
    command = ["-m", "oneideal"] if probe is None else ["-c", probe]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *command, *argv], capture_output=True, text=True,
                          timeout=60, env=child_env())
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


@cache
def _name(code) -> str | None:
    """``module.qualname`` of a code object of the library, as :func:`_defined`
    names it, or of argparse; None for any other."""
    path = Path(code.co_filename)
    return f"{path.stem}.{code.co_qualname}" if path.parent == PACKAGE or path == ARGPARSE else None


def _named(calls: Counter) -> Counter:
    """The entries in ``calls`` of the library's and argparse's code objects, by name."""
    named = Counter()
    for code, count in calls.items():
        name = _name(code)
        if name is not None:
            named[name] += count
    return named


def observed(calls: Counter, call, *args):
    """``call(*args)`` under a profile function that counts in ``calls`` each
    code object entered (a generator's each time it resumes)."""

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        return call(*args)
    finally:
        sys.setprofile(previous)


def entered(*argv: str) -> tuple[int, str, str, Counter]:
    """:func:`run`'s status, stdout and stderr, and the functions the command
    line entered, qualified name -> entries, counted as :func:`one_pass`
    counts a row."""
    calls = Counter()
    status, out, err = observed(calls, run, *argv)
    return status, out, err, _named(calls)


class Pass(NamedTuple):
    outcomes: list  # (status, stdout digest, stderr digest) of each row, in order
    printed: dict  # (golden name, format or None for the default) -> run(argv)
    calls: list  # the functions each row entered, qualified name -> entries, in order
    reached: set  # the qualified names entered anywhere in the pass


@cache
def one_pass() -> Pass:
    """Every corpus row, and each golden argv without its format, run once
    under :func:`observed`; a row that raises names its tag."""
    outcomes, printed, calls, reached = [], {}, [], Counter()
    # the parser is built once per process; a fresh one is built in the pass
    cli.build_parser.cache_clear()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for row in ROWS:
            row_calls = Counter()
            try:
                status, out, err = observed(row_calls, run, *row["argv"])
                if row["tag"].startswith("golden "):
                    _, name, fmt = row["tag"].split()
                    printed[name, fmt] = status, out, err
                    if fmt == "text":
                        printed[name, None] = observed(reached, run, *ARGV[name])
                    else:
                        observed(reached, Report.from_json_dict, json.loads(out))
            except Exception as error:
                error.add_note(f"corpus row {row['tag']!r}")
                raise
            outcomes.append((status, digest(out), digest(err)))
            calls.append(_named(row_calls))
            reached.update(row_calls)
    return Pass(outcomes, printed, calls, set(_named(reached)))


@pytest.mark.parametrize("fmt", SUFFIX)
@pytest.mark.parametrize("name", ARGV)
def test_output_matches_the_golden_bytes(name, fmt):
    expected = (0, (GOLDEN / (name + SUFFIX[fmt])).read_bytes().decode(), "")
    printed = one_pass().printed
    assert printed[name, fmt] == expected
    if fmt == "text":  # the default format
        assert printed[name, None] == expected


def test_every_corpus_row_prints_the_bytes_it_printed_when_written():
    changed = [
        row["tag"] for row, got in zip(ROWS, one_pass().outcomes)
        if got != (row["status"], row["stdout"], row["stderr"])
    ]
    assert changed == []


def test_the_corpus_holds_every_golden_and_error_line_argv():
    from test_cli import ERROR_LINES

    files = sorted(path.name for path in GOLDEN.iterdir())
    assert files == sorted(name + suffix for name in ARGV for suffix in SUFFIX.values())
    held = {tuple(row["argv"]) for row in ROWS}
    assert [name for name, (argv, _, _) in ERROR_LINES.items() if argv not in held] == []


ACCEPTANCE = "test_acceptance.py imports it"
PERFBENCH = "perfbench's POINTS or worker.py looks it up (item 1 drops the point)"
# The files a reason cites, which must name the function it is given for.
CITED = {
    ACCEPTANCE: ("tests/test_acceptance.py",),
    PERFBENCH: ("perfbench/tracing.py", "perfbench/worker.py"),
}

# Library functions that no command enters, each with the reason it stays.
UNREACHED = {
    "classify.units_mod": PERFBENCH + "; only perfbench reads it",
    "classify._unit_multiples": PERFBENCH + "; only perfbench reads it",
    "classify.class_counts": PERFBENCH + "; test_sympy_reference.py checks it",
    "dyadic.factorize": "class_counts factorises with it",
    "dyadic.residue_cycle": PERFBENCH + "; the tests check two_power_log against it",
    "family.validate_family": ACCEPTANCE + "; " + PERFBENCH,
}


def _defined() -> dict:
    """Qualified name -> code object of each function, method and property
    whose source is in the library (the methods that ``namedtuple`` makes
    are not)."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":
            continue
        name = "oneideal" if path.stem == "__init__" else f"oneideal.{path.stem}"
        module = importlib.import_module(name)
        objects = list(vars(module).values())
        for cls in [v for v in objects if inspect.isclass(v)]:
            for attr in vars(cls).values():
                attr = getattr(attr, "fget", None) or getattr(attr, "__func__", attr)
                objects.append(attr)
        for obj in objects:
            code = getattr(inspect.unwrap(obj), "__code__", None)
            if code is not None and code.co_filename == str(path):
                found[f"{path.stem}.{code.co_qualname}"] = code
    return found


def test_every_library_function_is_entered_or_listed_as_unreached():
    defined = _defined()
    unreached = defined.keys() - one_pass().reached
    assert sorted(unreached - UNREACHED.keys()) == [], "entered by no command"
    assert sorted(UNREACHED.keys() - defined.keys()) == [], "defined nowhere"
    assert sorted(UNREACHED.keys() & (defined.keys() - unreached)) == [], "entered by the corpus"


def test_no_unreached_function_is_exported():
    # a function no command enters is no part of what users call
    exported = [name for name in UNREACHED if name.split(".")[1] in oneideal.__all__]
    assert exported == []


def test_each_reason_that_cites_a_file_is_borne_out_by_that_file():
    stale = []
    for reason, paths in CITED.items():
        text = "".join((ROOT / path).read_text() for path in paths)
        for name, why in UNREACHED.items():
            short = name.rsplit(".", 1)[1]
            if reason in why and not re.search(rf"\b{re.escape(short)}\b", text):
                stale.append(f"{name}: no {short} in {', '.join(paths)}")
    assert stale == []


if __name__ == "__main__":
    if sys.argv[1:2] == ["--entered"]:
        status, _, _, calls = entered(*sys.argv[2:])
        for name, count in calls.most_common():
            print(f"{count:8d}  {name}")
        print(f"{calls.total():8d}  total, exit status {status}")
        sys.exit()
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --regenerate | --entered ARGV...")
    done = one_pass()
    with CORPUS.open("w") as out:
        for row, (status, stdout, stderr) in zip(ROWS, done.outcomes):
            out.write(json.dumps({**row, "status": status, "stdout": stdout, "stderr": stderr}))
            out.write("\n")
    for (name, fmt), (status, text, err) in done.printed.items():
        if fmt is not None:
            assert (status, err) == (0, ""), (name, fmt)
            (GOLDEN / (name + SUFFIX[fmt])).write_bytes(text.encode())
