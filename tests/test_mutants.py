import ast
import re

from mutants import MUTANTS, PACKAGE, ROOT


def test_each_mutant_old_text_occurs_exactly_once_in_its_module():
    counts = {m.name: (PACKAGE / m.module).read_text().count(m.old) for m in MUTANTS}
    assert {name: n for name, n in counts.items() if n != 1} == {}


def test_each_mutant_test_id_names_a_top_level_test_function():
    # parsed, not collected, so a renamed test fails here and not only in the
    # slow catalogue run
    ids = [
        re.fullmatch(r"([^:]+)::(\w+)(\[.*\])?", test).group(1, 2)
        for mutant in MUTANTS
        for test in mutant.tests
    ]
    defined = {
        path: {
            node.name
            for node in ast.parse((ROOT / path).read_text()).body
            if isinstance(node, ast.FunctionDef)
        }
        for path in {path for path, _ in ids}
        if (ROOT / path).is_file()
    }
    assert [f"{path}::{name}" for path, name in ids if name not in defined.get(path, ())] == []
