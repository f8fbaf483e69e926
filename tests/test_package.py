"""The public names: ``__all__`` lists each exactly once, and only names
the package binds; and the library imports nothing outside the standard
library and itself."""

import ast
import sys
from pathlib import Path

import oneideal


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
