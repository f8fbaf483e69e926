from mutants import MUTANTS, PACKAGE


def test_each_mutant_old_text_occurs_exactly_once_in_its_module():
    counts = {m.name: (PACKAGE / m.module).read_text().count(m.old) for m in MUTANTS}
    assert {name: n for name, n in counts.items() if n != 1} == {}
