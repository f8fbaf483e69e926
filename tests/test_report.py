"""``report.write_json`` against ``json.dumps(..., indent=2, sort_keys=True)``,
the text each shared section holds against its contents, and the scan rows
rendered from ints against the JSON row dicts."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oneideal import report as report_module
from oneideal.cli import compare_report, fullness_report, invariant_report, scan_report
from oneideal.report import Report, _Shared, spec_from_json, write_json
from oracles import scan_text_from_json
from test_golden import run

# Characters whose escapes differ between encoders: a quote, a backslash,
# control characters, non-ASCII text (two bytes, three bytes, past the BMP)
# and both halves of a lone surrogate.
SPECIAL = '"\\/\x00\b\t\n\x1f\x7f\xe9' + "".join(
    map(chr, (0x3B1, 0x2028, 0xD800, 0xDFFF, 0x1F600))
)
TEXT = st.text(st.one_of(st.characters(), st.sampled_from(SPECIAL)), max_size=8)
# leaves, and lists of strings, which the writer joins in one piece
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | TEXT | st.lists(TEXT, max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=12,
)


def written(value) -> str:
    chunks: list[str] = []
    write_json(value, chunks.append)
    return "".join(chunks)


@settings(max_examples=100)
@given(JSON_VALUES)
@example({})
@example([])
@example({"": {}, "b": [], "a": [[], {}, None, True, False]})
@example([SPECIAL, {SPECIAL: SPECIAL}])
@example({"n": ["1", SPECIAL, ""], "torsion": [["2"], []]})  # lists of strings, in one write
@example(chr(0xDC00) + "x" + chr(0xD800))
def test_write_json_is_byte_identical_to_json_dumps(value):
    assert written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def with_an_int(value, data):
    """``value`` with one leaf, or one empty list or dict, drawn from ``data``
    and replaced by an int."""
    if isinstance(value, list) and value:
        i = data.draw(st.integers(0, len(value) - 1))
        return [*value[:i], with_an_int(value[i], data), *value[i + 1 :]]
    if isinstance(value, dict) and value:
        key = data.draw(st.sampled_from(sorted(value)))
        return {**value, key: with_an_int(value[key], data)}
    return data.draw(st.integers())


@settings(max_examples=100)
@given(JSON_VALUES, st.data())
def test_write_json_rejects_an_int_wherever_it_stands(value, data):
    with pytest.raises(TypeError):
        written(with_an_int(value, data))


@pytest.mark.parametrize("value", [1, 1.5, ("a",), {"a": 1}, ["a", 2.0], {1: "a"}], ids=repr)
def test_write_json_rejects_what_the_builders_never_emit(value):
    with pytest.raises(TypeError):
        written(value)


def shared_in(value) -> list:
    """Each shared section in ``value``'s dicts and lists, by identity."""
    found, todo = {}, [value]
    while todo:
        value = todo.pop()
        if type(value) is _Shared:
            found[id(value)] = value
        if isinstance(value, dict):
            todo += value.values()
        elif isinstance(value, list):
            todo += value
    return list(found.values())


# every shared section of the module, each one once
SECTIONS = shared_in([v for name, v in vars(report_module).items() if name != "__builtins__"])


def test_each_shared_section_holds_the_text_of_its_contents_after_every_report():
    # one report of each regime for each command: x = 1 and x > 1 at finite m,
    # both fullness verdicts at m = 0; a builder that mutates a shared section
    # while building or writing one leaves its stored text stale
    specs = [spec_from_json(json.loads(text)) for text in (
        '{"m": 0, "n": [2]}', '{"m": 0, "n": [1], "tail": {"kind": "doubling", "c": 1}}',
        '{"m": 2, "n": [1]}', '{"m": 9, "n": [1]}', '{"m": "inf", "n": [2]}',
    )]
    reports = [build(*spec) for spec in specs for build in (invariant_report, fullness_report)]
    reports += [compare_report(*specs[3], *spec_from_json({"m": 9, "n": [3]}), mode)
                for mode in ("exact", "stable")]
    reports.append(scan_report(12))
    texts = [written(report._asdict()) for report in reports]  # what cli.main writes
    for report, text in zip(reports, texts):
        assert text == json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    held = shared_in([report._asdict() for report in reports])
    assert sorted(map(id, held)) == sorted(map(id, SECTIONS))
    for section in SECTIONS:
        # a fresh encoding of its contents at its indent, where some report places it
        fresh = json.dumps(section, indent=2, sort_keys=True).replace("\n", section.indent)
        assert section.text == fresh
        assert any(section.text in text for text in texts)


@pytest.mark.parametrize("depth", range(4))
def test_a_shared_section_placed_at_another_depth_is_encoded_there(depth):
    for section in SECTIONS:
        value = section
        for _ in range(depth):
            value = {"key": value}
        assert written(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


# the examples are where the text m column widens
@settings(max_examples=40)
@given(st.integers(2, 3000))
@example(2)
@example(9)
@example(10)
@example(11)
@example(99)
@example(100)
@example(101)
@example(999)
@example(1000)
@example(1001)
def test_scan_rows_from_ints_render_as_their_json_row_dicts(max_m):
    report = scan_report(max_m)
    d = report.to_json_dict()
    table = d["verdict"]["table"]
    assert type(table) is list and all(type(row) is dict for row in table)
    argv = ("scan", "--max-m", str(max_m))
    status, streamed, err = run(*argv, "--format", "json")
    assert (status, streamed, err) == (0, json.dumps(d, indent=2, sort_keys=True) + "\n", "")
    assert run(*argv, "--format", "text") == (0, scan_text_from_json(d) + "\n", "")
    assert Report.from_json_dict(json.loads(streamed)) == report
