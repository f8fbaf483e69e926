"""The public names: ``__all__`` lists each exactly once, and only names
the package binds."""

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
