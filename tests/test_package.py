"""The public names: ``__all__`` lists each exactly once, only names the
package binds, and no function that merely calls a constructor; the
library imports nothing outside the standard library and itself, and
nothing it does not use; and a query loads exactly the pinned library
modules, and neither ``dataclasses`` nor ``inspect`` nor ``argparse``;
and every Hypothesis setting but a test's ``max_examples`` comes from the
one profile, which derandomizes every property."""

import ast
import inspect
import re
import sys
import textwrap
from pathlib import Path

from hypothesis import settings

import oneideal
from test_golden import spawn

# Public functions whose body is one call to a library class, each with the
# reason it stays; callers use the class itself otherwise.
PASS_THROUGHS: dict[str, str] = {}


def test_every_name_in_all_resolves_on_the_package():
    assert [name for name in oneideal.__all__ if not hasattr(oneideal, name)] == []


def test_no_name_in_all_repeats():
    assert len(set(oneideal.__all__)) == len(oneideal.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from oneideal import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(oneideal.__all__)


def test_the_library_imports_only_the_standard_library_and_itself():
    # sympy and hypothesis are test dependencies; the library has none
    outside = []
    for path in sorted(Path(oneideal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "oneideal" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []


def test_every_library_import_is_used():
    # __init__ re-exports what it imports; elsewhere an unused import is dead
    # code, unless perfbench looks the name up in that module to trace it
    tracing = (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text()
    unmarked, untraced = [], []
    for path in sorted(Path(oneideal.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        tree = ast.parse(source, str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        lines = source.splitlines()
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            marked = "# noqa: F401" in lines[node.end_lineno - 1]
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name in used:
                    continue
                if not marked:
                    unmarked.append(f"{path.name}:{node.lineno}: {name}")
                elif not re.search(rf"\b{name}\b", tracing):
                    untraced.append(f"{path.name}:{node.lineno}: {name}")
    assert unmarked == [], "imported and never used"
    assert untraced == [], "marked as traced, but perfbench/tracing.py never names it"


def test_no_public_function_only_returns_a_library_class():
    found = []
    for name in oneideal.__all__:
        function = getattr(oneideal, name)
        if not inspect.isfunction(function):
            continue
        body = ast.parse(textwrap.dedent(inspect.getsource(function))).body[0].body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # the docstring
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        call = body[0].value
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            target = function.__globals__.get(call.func.id)
            if inspect.isclass(target) and target.__module__.startswith("oneideal."):
                found.append(name)
    # an entry that is no longer a pass-through fails too, so the table only shrinks
    assert sorted(found) == sorted(PASS_THROUGHS)


def _modules_after(*argv: str) -> list[str]:
    """The modules loaded in a fresh process that has run ``cli.main(argv)``."""
    code, out, err, _ = spawn(*argv, probe="import sys; from oneideal.cli import main; "
                              "assert main(sys.argv[1:]) == 0; print(*sorted(sys.modules))")
    assert code == 0, err
    return out.splitlines()[-1].split()


# The library modules in a process that has run one text ``fullness`` query.
# A change that loads another module at start-up adds it here and says why.
STARTUP_MODULES = ["oneideal"] + [f"oneideal.{name}" for name in (
    "classify", "cli", "dyadic", "errors", "exactlinalg", "family", "ktheory", "report", "version"
)]


def test_a_fullness_query_loads_exactly_the_pinned_library_modules():
    loaded = _modules_after("fullness", "--m", "0", "--n", "2")
    assert [name for name in loaded if name.split(".")[0] == "oneideal"] == STARTUP_MODULES


def test_a_text_compare_loads_neither_dataclasses_nor_inspect_nor_argparse():
    # dataclasses (which imports inspect) cost a process about 25 ms of start-up,
    # and only help and usage errors build the argparse parser
    loaded = _modules_after("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "exact")
    assert sorted({"argparse", "dataclasses", "inspect"}.intersection(loaded)) == []


def test_every_hypothesis_setting_but_max_examples_comes_from_the_profile():
    # conftest.py's profile runs fixed examples with no deadline; a test's own
    # settings(...) only sizes its run
    assert (settings.default.derandomize, settings.default.deadline) == (True, None)
    other = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "settings":
                other += [f"{path.name}:{node.lineno}: {kw.arg}" for kw in node.keywords
                          if kw.arg != "max_examples"]
    assert other == []
