"""Every function in the library runs in some command, or says why not.

The gate runs a fixed corpus through ``cli.main`` and
``Report.from_json_dict`` with a profile function installed, and records
each code object that is entered.  The corpus is every golden argv in text
and JSON, every error line, the ``--spec`` and compact-JSON spec forms, a
help and a usage error (the argv that argparse reads), and the reader on
each golden JSON report.  Every function, method and property
defined in ``src/oneideal`` (bar ``__main__``, whose import runs the command
line) must be entered, or be listed in :data:`UNREACHED` with its reason.
An entry that the corpus reaches, or that names nothing, fails too, so the
table can only shrink.  A reason that cites the acceptance tests or
perfbench's lookups is checked against the files it cites.
"""

import importlib
import inspect
import json
import re
import sys
from pathlib import Path

import oneideal
from oneideal import cli
from oneideal.report import Report
from test_cli import ERROR_LINES
from test_golden import ARGV, GOLDEN, run

ROOT = Path(__file__).resolve().parents[1]
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

SPEC_FORMS = (
    ("invariant", "--spec", '{"m": 9, "n": [1, 0, 3]}'),
    ("fullness", "--spec", '{"m": "inf", "n": ["2"], "tail": {"kind": "constant", "c": 4}}'),
    ("compare", "--a", '{"m": 8, "n": [1]}', "--b", "m=8,n=[3]", "--mode", "stable"),
)
# argv the table reader hands to argparse, which exits
ARGPARSE_FORMS = (("--help",), ("compare", "--a", "m=8,n=1", "--mode", "exact"))


def _defined() -> dict:
    """Qualified name -> code object of each function, method and property
    whose source is in the library (the methods that ``namedtuple`` makes
    are not)."""
    package = Path(oneideal.__file__).parent
    found = {}
    for path in sorted(package.glob("*.py")):
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


def _entered_by_the_corpus() -> set:
    argvs = [(*argv, "--format", fmt) for argv in ARGV.values() for fmt in ("text", "json")]
    argvs += [argv for argv, _, _ in ERROR_LINES.values()]
    argvs += SPEC_FORMS + ARGPARSE_FORMS
    reports = [json.loads(path.read_text()) for path in sorted(GOLDEN.glob("*.json"))]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # the parser is built once per process; a fresh one is built in the corpus
    cli.build_parser.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in argvs:
            run(*argv)
        for report in reports:
            Report.from_json_dict(report)
    finally:
        sys.setprofile(previous)
    return entered


def test_every_library_function_is_entered_or_listed_as_unreached():
    defined = _defined()
    entered = _entered_by_the_corpus()
    unreached = {name for name, code in defined.items() if code not in entered}
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
