import functools
import json
import math
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oneideal
from oneideal import INF, FamilySpec, IsoWitness, TailSpec, WorkLimitError, cli
from oneideal.ktheory import MAX_TRUNCATION_DEPTH, stable_oracle_depth
from oneideal.report import (
    MAX_INTEGER_DIGITS,
    MAX_PREFIX_LENGTH,
    MAX_SCAN_M,
    Report,
    spec_from_json,
)
from test_golden import ROWS, child_env, entered, one_pass, run, spawn


def run_json(*argv):
    code, out, err = run(*argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


def test_invariant_m0():
    code, data, _ = run_json("invariant", "--m", "0", "--n", "2")
    assert code == 0
    assert data["scalars"]["alpha"] == "1"
    assert data["invariant"]["middle"]["cone"] == {"tag": "AlphaCone", "alpha": "1"}
    assert data["invariant"]["caseTag"] == "AF-AF"


def test_invariant_m_inf():
    code, data, _ = run_json("invariant", "--m", "inf", "--n", "1")
    assert code == 0
    cone = data["invariant"]["middle"]["cone"]
    assert cone == {"tag": "AllPositive", "withFullClass": True}


def test_invariant_integers_are_strings():
    code, data, _ = run_json("invariant", "--m", "8", "--n", "1")
    assert code == 0
    assert data["scalars"] == {"alpha": "1/2", "k": "1", "N": "1", "x": "1", "M": "7"}
    assert data["inputs"][0] == {"m": "8", "n": ["1"], "tail": {"kind": "zero"}}
    assert data["invariant"]["quotient"]["group"]["modulus"] == "7"


def test_invariant_depth_override():
    code, data, _ = run_json("invariant", "--m", "3", "--n", "1", "--depth", "5")
    assert code == 0
    trunc = data["invariant"]["truncation"]
    assert trunc == {"depth": "5", "freeRank": "1", "torsion": ["2"]}
    code, _, err = run("invariant", "--m", "3", "--n", "1", "--depth", "0")
    assert code == 2


def test_compare_accepts_json_and_bracket_specs():
    spec_json = json.dumps({"m": 5, "n": [1, 0, 3], "tail": {"kind": "zero"}})
    code, data, _ = run_json(
        "compare", "--a", spec_json, "--b", "m=5,n=[1,0,3]", "--mode", "exact"
    )
    assert code == 0
    assert data["verdict"]["isomorphic"] is True
    assert data["inputs"][0] == data["inputs"][1]


def test_spec_json_flag():
    spec_json = json.dumps({"m": "inf", "n": [2], "tail": {"kind": "constant", "c": 4}})
    code, data, _ = run_json("invariant", "--spec", spec_json)
    assert code == 0
    assert data["inputs"][0]["m"] == "inf"
    assert data["inputs"][0]["tail"] == {"kind": "constant", "c": "4"}


@pytest.mark.parametrize(
    "argv, flags",
    [
        (("invariant", "--m", "9", "--n", "1"), "--m, --n"),
        (("invariant", "--m", "9"), "--m"),
        (("fullness", "--n", "1"), "--n"),
        # the default tail, given explicitly, is still a flag
        (("invariant", "--tail", "zero"), "--tail"),
        (("fullness", "--m", "8", "--n", "3", "--tail", "constant:2"), "--m, --n, --tail"),
    ],
)
def test_spec_with_a_spec_flag_exits_2_naming_the_flags(argv, flags):
    code, out, err = run(*argv, "--spec", '{"m": 8, "n": [3]}')
    assert (code, out) == (2, "")
    assert err == f"error: --spec cannot be combined with {flags}\n"


def test_scan_divergence():
    code, data, _ = run_json("scan", "--max-m", "20")
    assert code == 0
    assert data["verdict"]["smallestDivergentM"] == "8"
    code, data, _ = run_json("scan", "--max-m", "7")
    assert code == 0
    assert data["verdict"]["smallestDivergentM"] is None
    code, data, _ = run_json("scan", "--max-m", "2")
    assert data["verdict"]["smallestDivergentM"] is None
    code, _, err = run("scan", "--max-m", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "--m", "8", "--n", "1"),
        ("invariant", "--m", "0", "--n", "1,0,3", "--tail", "constant:2"),
        ("fullness", "--m", "0", "--n", "2"),
        ("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "stable"),
        ("scan", "--max-m", "12"),
        # below saturation, so the reader must take the depth from the report
        ("invariant", "--m", "9", "--n", "1", "--depth", "3"),
        ("invariant", "--m", "inf", "--n", "1", "--tail", "doubling:1"),
        ("compare", "--a", "m=4,n=1", "--b", "m=8,n=1", "--mode", "exact"),
        ("scan", "--max-m", "2"),
    ],
)
def test_json_report_round_trips(argv):
    code, data, _ = run_json(*argv)
    assert code == 0
    report = Report.from_json_dict(data)
    assert report.to_json_dict() == data
    assert Report.from_json_dict(report.to_json_dict()) == report


INVARIANT_M9 = ("invariant", "--m", "9", "--n", "1")
INVARIANT_M0 = ("invariant", "--m", "0", "--n", "1,1")
COMPARE_STABLE = ("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "stable")
COMPARE_EXACT = ("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "exact")
SCAN_12 = ("scan", "--max-m", "12")
FULLNESS_M0 = ("fullness", "--m", "0", "--n", "2")
FULLNESS_M9 = ("fullness", "--m", "9", "--n", "1")
MISSING = object()  # deletes the key instead of setting it
EDITS = object()  # sets every path in the value, a dict of path -> value
NESTED = object()  # sets a value nested past the recursion limit, built by the test


@pytest.mark.parametrize(
    "argv, path, value",
    [
        (INVARIANT_M9, ("scalars", "k"), " +1"),
        (INVARIANT_M9, ("scalars", "N"), "+1"),
        (INVARIANT_M9, ("scalars", "x"), "8 "),
        (INVARIANT_M9, ("scalars", "M"), True),
        (INVARIANT_M9, ("invariant", "truncation", "depth"), "1_0"),
        (INVARIANT_M9, ("invariant", "truncation", "freeRank"), "-1"),
        (INVARIANT_M9, ("invariant", "truncation", "torsion", 0), "+8"),
        (INVARIANT_M9, ("invariant", "middle", "group", "torsion"), "+8"),
        (INVARIANT_M9, ("invariant", "quotient", "group", "modulus"), " 8"),
        (INVARIANT_M0, ("scalars", "alpha"), " 1/2"),
        (INVARIANT_M0, ("scalars", "alpha"), "+1/2"),
        (INVARIANT_M0, ("scalars", "alpha"), "1_0/2"),
        (INVARIANT_M0, ("scalars", "alpha"), "1/0"),
        (INVARIANT_M0, ("scalars", "alpha"), "0.75"),
        (INVARIANT_M0, ("scalars", "alpha"), 0.75),
        (INVARIANT_M0, ("scalars", "alpha"), None),
        (INVARIANT_M0, ("invariant", "middle", "cone", "alpha"), "3/4 "),
        (COMPARE_STABLE, ("witness", "unit"), "+5"),
        (COMPARE_STABLE, ("witness", "l"), " 0"),
        (SCAN_12, ("inputs", 0, "maxM"), "1_2"),
        (SCAN_12, ("verdict", "smallestDivergentM"), "+8"),
        (SCAN_12, ("verdict", "table", 0, "exactClasses"), " 1"),
        (COMPARE_STABLE, ("verdict", "isomorphic"), "no"),
        (FULLNESS_M0, ("verdict", "stenotic"), "yes"),
        (INVARIANT_M9, ("invariant", "indexMapZero"), 1),
        (INVARIANT_M9, ("invariant", "middle", "cone", "withFullClass"), "x"),
        (COMPARE_STABLE, ("verdict", "mode"), "bogus"),
        (COMPARE_STABLE, ("command",), "bogus"),
        (FULLNESS_M0, ("verdict", "unstabilized"), "Maybe"),
        (COMPARE_STABLE, ("verdict", "reason"), 7),
        (INVARIANT_M9, ("version",), 3),
        (INVARIANT_M9, ("invariant", "quotient", "group", "symbol"), "Z/99"),
        (FULLNESS_M0, ("verdict", "note"), "K-theory decides"),
        (INVARIANT_M9, ("inputs",), 5),
        (COMPARE_STABLE, ("witness",), [1, 2, 3]),
        (INVARIANT_M9, ("command",), MISSING),
        (INVARIANT_M9, ("invariant", "middle", "cone"), {"tag": "Lexicographic", "parts": []}),
        (INVARIANT_M9, ("scalars", "k"), MISSING),
        (INVARIANT_M9, ("junk",), "1"),
        (INVARIANT_M9, ("witness",), {"l": "0", "lPrime": "0", "unit": "1"}),
        (INVARIANT_M9, ("verdict",), {"mode": "stable", "isomorphic": True}),
        (INVARIANT_M9, ("invariant", "middle", "cone", "alpha"), "1"),
        (INVARIANT_M9, ("inputs", 0, "tail"), MISSING),
        (COMPARE_STABLE, ("verdict", "junk"), True),
        (SCAN_12, ("verdict", "table", 0, "junk"), "1"),
        (FULLNESS_M0, ("verdict",), None),
        # an empty path sets several top-level keys at once
        (SCAN_12, (), {"command": "invariant", "scalars": None, "invariant": None,
                       "verdict": None}),
        (FULLNESS_M9, ("invariant", "truncation"), {"depth": "5", "freeRank": "1",
                                                    "torsion": ["8"]}),
        (INVARIANT_M9, ("inputs", 0, "m"), "1"),
        (INVARIANT_M9, ("inputs", 0, "n"), ["0"]),
        # report integers are read only as the writer emits them
        (INVARIANT_M9, ("scalars", "k"), 1),
        (SCAN_12, ("verdict", "smallestDivergentM"), "9"),
        # without a note, only the verdict type rejects an unknown value
        (FULLNESS_M9, ("verdict", "unstabilized"), "Maybe"),
        # reports that re-emit as given, but that no inputs make this program write
        (INVARIANT_M9, EDITS, {
            ("scalars", "x"): "4",
            ("invariant", "middle", "group", "torsion"): "4",
            ("invariant", "middle", "group", "symbol"): "Z[1/2] (+) Z/4",
            ("invariant", "truncation", "torsion", 0): "4",
        }),
        (INVARIANT_M9, ("inputs", 0, "n"), ["3"]),
        # 12 = 5 mod 7 also re-substitutes, but the minimal unit is 5
        (COMPARE_STABLE, ("witness", "unit"), "12"),
        (COMPARE_EXACT, (), {"verdict": {"mode": "exact", "isomorphic": True},
                             "witness": {"l": "0", "lPrime": "0", "unit": "1"}}),
        # the row of m = 12, past the smallest divergent m
        (SCAN_12, ("verdict", "table", 10, "exactClasses"), "3"),
        (FULLNESS_M0, ("verdict", "stabilizedFull"), True),
        # a wrong number of inputs
        (INVARIANT_M9, ("inputs",), [{"m": "9", "n": ["1"], "tail": {"kind": "zero"}}] * 2),
        (COMPARE_STABLE, ("inputs",), [{"m": "8", "n": ["1"], "tail": {"kind": "zero"}}]),
        (SCAN_12, ("inputs",), []),
        # too deep for json.dumps, and for the repr in an error message
        (COMPARE_STABLE, ("witness",), NESTED),
        (COMPARE_STABLE, ("inputs", 0, "tail", "c"), NESTED),
    ],
)
def test_tampered_report_is_rejected(argv, path, value):
    code, data, _ = run_json(*argv)
    assert code == 0
    edits = value.items() if path is EDITS else [(path, value)]
    for path, value in edits:
        target = data
        for key in path[:-1]:
            target = target[key]
        if not path:
            data.update(value)
        elif value is MISSING:
            del target[path[-1]]
        elif value is NESTED:
            target[path[-1]] = functools.reduce(lambda v, _: [v], range(10**5), "1")
        else:
            target[path[-1]] = value
    with pytest.raises(ValueError):
        Report.from_json_dict(data)


def test_reader_propagates_an_internal_consistency_failure(monkeypatch):
    import oneideal.ktheory
    from oneideal import InternalConsistencyError

    code, data, _ = run_json(*INVARIANT_M9)
    assert code == 0
    monkeypatch.setattr(oneideal.ktheory, "torsion_order", lambda spec: 4)
    with pytest.raises(InternalConsistencyError):
        Report.from_json_dict(data)


# One emitted report per command and section shape.
READER_ARGV = (
    INVARIANT_M9,
    ("invariant", "--m", "9", "--n", "1", "--depth", "3"),
    ("invariant", "--m", "0", "--n", "1,0,3", "--tail", "constant:2"),
    ("invariant", "--m", "inf", "--n", "1", "--tail", "doubling:1"),
    FULLNESS_M0,
    FULLNESS_M9,
    COMPARE_STABLE,
    ("compare", "--a", "m=4,n=1", "--b", "m=8,n=1", "--mode", "exact"),
    SCAN_12,
    ("scan", "--max-m", "2"),
)
JSON_VALUES = (
    0, 1, -1, 2**70, True, False, None, "1", "+1", "-1", " 1", "1 ", "01", "1_0", "1/0",
    "0/1", "1/2", "inf", "", "x", "Full", "Unknown", "exact", "AllPositive", [], ["1"], [{}],
    {}, {"tag": "AllPositive", "withFullClass": True}, 0.5,
)
JSON_KEYS = (
    "junk", "tag", "torsion", "modulus", "alpha", "withFullClass", "parts", "truncation",
    "note", "reason", "maxM", "c", "witness",
)


@functools.cache
def _emitted(argv):
    code, out, _ = run(*argv, "--format", "json")
    assert code == 0
    return out


def _containers(v, path=()):
    """Paths to every JSON object and list in ``v``, the root included."""
    if isinstance(v, (dict, list)):
        yield path
        for key, child in (v.items() if isinstance(v, dict) else enumerate(v)):
            yield from _containers(child, path + (key,))


@settings(max_examples=200)
@given(st.sampled_from(READER_ARGV), st.data())
def test_reader_rejects_or_re_emits_any_single_key_mutation(argv, data):
    d = json.loads(_emitted(argv))
    target = d
    for key in data.draw(st.sampled_from(list(_containers(d)))):
        target = target[key]
    keys = list(target) if isinstance(target, dict) else list(range(len(target)))
    mutation = data.draw(st.sampled_from(["delete", "replace", "add"] if keys else ["add"]))
    if mutation == "add" and isinstance(target, list):
        target.append(data.draw(st.sampled_from(JSON_VALUES)))
    elif mutation == "add":
        target[data.draw(st.sampled_from(JSON_KEYS))] = data.draw(st.sampled_from(JSON_VALUES))
    elif mutation == "delete":
        del target[data.draw(st.sampled_from(keys))]
    else:
        target[data.draw(st.sampled_from(keys))] = data.draw(st.sampled_from(JSON_VALUES))
    try:
        report = Report.from_json_dict(d)
    except ValueError:
        return
    assert json.dumps(report.to_json_dict(), sort_keys=True) == json.dumps(d, sort_keys=True)


def test_internal_consistency_failure_exits_3(monkeypatch):
    from oneideal import InternalConsistencyError
    from oneideal import cli as cli_module

    def explode(a, b):
        raise InternalConsistencyError("routes disagree")

    monkeypatch.setattr(cli_module.classify, "stable_iso", explode)
    code, _, err = run("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "stable")
    assert code == 3
    assert "InternalConsistency" in err


@pytest.mark.parametrize(
    "bad",
    [IsoWitness(0, 0, 1), IsoWitness(0, 0, 5)],
    # 1 != 3 mod 7; 1 == 5 * 3 mod 7, but an exact witness has unit 1
    ids=["not congruent", "unit not 1"],
)
def test_an_exact_witness_that_fails_re_substitution_exits_3(monkeypatch, bad):
    import oneideal.classify

    monkeypatch.setattr(oneideal.classify, "exact_orbit_witness", lambda *args: bad)
    code, out, err = run("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "exact")
    assert (code, out) == (3, "")
    assert err == (
        f"error [InternalConsistency]: exact witness {bad} fails re-substitution "
        "at modulus 7, weights 1, 3\n"
    )


# Each error kind: its argv, exit status and stderr line.  The
# InternalConsistency line needs a swapped scan row, which the test below
# patches in; the corpus runs every argv here unpatched.
ERROR_LINES = {
    "ConditionK": (
        ("invariant", "--m", "1", "--n", "1"),
        2,
        "error [ConditionK]: m = 1 is excluded: the loop structure must satisfy condition (K)",
    ),
    "NoIdealEdge": (
        ("invariant", "--m", "8", "--n", "0"),
        2,
        "error [NoIdealEdge]: at least one edge multiplicity n_i must be nonzero",
    ),
    "InfiniteSum": (
        ("invariant", "--m", "8", "--n", "1", "--tail", "constant:2"),
        2,
        "error [InfiniteSum]: for finite m > 1 the multiplicity sum must be finite "
        "(tail must be zero)",
    ),
    "OutOfScope": (
        ("compare", "--a", "m=0,n=2", "--b", "m=0,n=2", "--mode", "exact"),
        2,
        "error [OutOfScope]: isomorphism comparison is defined for 1 < m < infinity only",
    ),
    "WorkLimit": (
        ("scan", "--max-m", str(MAX_SCAN_M + 1)),
        2,
        f"error [WorkLimit]: --max-m is {MAX_SCAN_M + 1}, more than the limit {MAX_SCAN_M}",
    ),
    "InternalConsistency": (
        ("scan", "--max-m", "8"),
        3,
        "error [InternalConsistency]: at m = 8 the scan counts 2 exact classes "
        "but 3 stable ones",
    ),
    "plain": (
        ("compare", "--a", "m=8,n=1,junk=3", "--b", "m=8,n=1", "--mode", "exact"),
        2,
        "error: unknown key 'junk' in spec 'm=8,n=1,junk=3' (want m, n, tail)",
    ),
    "no n": (
        ("invariant", "--m", "8"),
        2,
        "error: provide --m and --n (or --spec with a JSON object)",
    ),
    "spec without n": (
        ("compare", "--a", "m=8", "--b", "m=8,n=1", "--mode", "exact"),
        2,
        "error: spec 'm=8' needs at least m= and n=",
    ),
    "depth outside finite m": (
        ("invariant", "--m", "0", "--n", "1", "--depth", "3"),
        2,
        "error: --depth applies only when 1 < m < infinity",
    ),
    "repeated JSON key": (
        ("invariant", "--spec", '{"m": 8, "m": 9, "n": [1]}'),
        2,
        "error: repeated key in JSON object with keys ['m', 'm', 'n']",
    ),
    "JSON nested too deeply": (
        ("invariant", "--spec", "[" * 10_000),
        2,
        "error: the JSON spec is nested too deeply",
    ),
    "spec with a flag": (
        ("invariant", "--spec", '{"m": 9, "n": [1]}', "--m", "9"),
        2,
        "error: --spec cannot be combined with --m",
    ),
    "unclosed bracket": (
        ("compare", "--a", "m=8,n=[1", "--b", "m=8,n=1", "--mode", "exact"),
        2,
        "error: unclosed '[' in spec 'm=8,n=[1'",
    ),
    "max-m below 2": (
        ("scan", "--max-m", "1"),
        2,
        "error: --max-m must be at least 2",
    ),
    "compact spec without =": (
        ("compare", "--a", "m8", "--b", "m=8,n=1", "--mode", "exact"),
        2,
        "error: expected key=value in 'm8'",
    ),
    "compact spec with a repeated key": (
        ("compare", "--a", "m=8,m=9,n=1", "--b", "m=8,n=1", "--mode", "exact"),
        2,
        "error: key 'm' repeated in spec 'm=8,m=9,n=1'",
    ),
    "compact spec with a key after ]": (
        ("compare", "--a", "n=[1]m=8", "--b", "m=8,n=1", "--mode", "exact"),
        2,
        "error: expected ',' or the end after ']' in spec 'n=[1]m=8'",
    ),
    "compact spec with a trailing comma": (
        ("compare", "--a", "m=8,n=1,", "--b", "m=8,n=1", "--mode", "exact"),
        2,
        "error: expected key=value in 'm=8,n=1,'",
    ),
    "JSON spec not an object": (
        ("invariant", "--spec", "[1]"),
        2,
        "error: family spec must be a JSON object, got ['1']",
    ),
    "JSON spec with an unknown key": (
        ("invariant", "--spec", '{"m": 8, "n": [1], "junk": 3}'),
        2,
        "error: family spec has unknown keys ['junk']",
    ),
    "JSON spec without n": (
        ("invariant", "--spec", '{"m": 8}'),
        2,
        "error: family spec is missing keys ['n']",
    ),
    "JSON n not a list": (
        ("invariant", "--spec", '{"m": 8, "n": 5}'),
        2,
        "error: n must be a JSON list, got '5'",
    ),
    "JSON n entry null": (
        ("invariant", "--spec", '{"m": 8, "n": [null]}'),
        2,
        "error: each entry of n must be an integer or a string of decimal digits, got None",
    ),
    "JSON n entry not digits": (
        ("invariant", "--spec", '{"m": 8, "n": ["x"]}'),
        2,
        "error: each entry of n must be an integer or a string of decimal digits, got 'x'",
    ),
    "JSON n past the prefix limit": (
        ("invariant", "--spec", json.dumps({"m": 8, "n": [1] * (MAX_PREFIX_LENGTH + 1)})),
        2,
        f"error [WorkLimit]: n has {MAX_PREFIX_LENGTH + 1} entries, "
        f"more than the limit {MAX_PREFIX_LENGTH}",
    ),
    "m past the digit limit": (
        ("invariant", "--m", "9" * (MAX_INTEGER_DIGITS + 1), "--n", "1"),
        2,
        f"error [WorkLimit]: m has {MAX_INTEGER_DIGITS + 1} digits, "
        f"more than the limit {MAX_INTEGER_DIGITS}",
    ),
    # text that is not digits is no integer, however long
    "m of non-digit text past the digit limit": (
        ("invariant", "--m", "x" * (MAX_INTEGER_DIGITS + 1), "--n", "1"),
        2,
        "error: m must be an integer or a string of decimal digits, "
        f"got {'x' * (MAX_INTEGER_DIGITS + 1)!r}",
    ),
    "n entry of non-digit text past the digit limit": (
        ("invariant", "--m", "8", "--n", "x" * (MAX_INTEGER_DIGITS + 1)),
        2,
        "error: each entry of n must be an integer or a string of decimal digits, "
        f"got {'x' * (MAX_INTEGER_DIGITS + 1)!r}",
    ),
    "depth past the limit": (
        ("invariant", "--m", "9", "--n", "1", "--depth", "999999999"),
        2,
        f"error [WorkLimit]: truncation depth 999999999 exceeds the limit {MAX_TRUNCATION_DEPTH}",
    ),
    "depth below the prefix": (
        ("invariant", "--m", "9", "--n", "1,1,1", "--depth", "1"),
        2,
        "error: depth 1 is below the prefix length 3",
    ),
    # m - 1 = 4194371 is the first prime modulo which 2 has an order past
    # the discrete logarithm's table (see the admitted worst case below)
    "order past the logarithm table": (
        ("compare", "--a", "m=4194372,n=[1]", "--b", "m=4194372,n=[3]", "--mode", "exact"),
        2,
        "error [WorkLimit]: the order of 2 modulo 4194371 is more than 4194304, "
        "past the 2048-entry table of the discrete logarithm",
    ),
    "unknown tail kind": (
        ("fullness", "--m", "0", "--n", "1", "--tail", "bogus"),
        2,
        "error: unknown tail kind 'bogus'",
    ),
    "zero tail with a parameter": (
        ("invariant", "--m", "0", "--n", "1", "--tail", "zero:3"),
        2,
        "error: zero tail takes no parameter",
    ),
    "constant tail below 1": (
        ("invariant", "--m", "inf", "--n", "1", "--tail", "constant:0"),
        2,
        "error: constant tail requires c >= 1",
    ),
}


@pytest.mark.parametrize("argv, status, line", ERROR_LINES.values(), ids=list(ERROR_LINES))
def test_each_error_kind_prints_its_line_and_exit_status(monkeypatch, argv, status, line):
    import oneideal.classify

    # a swapped scan row, as in the scan test below; only `scan --max-m 8` reads it
    monkeypatch.setattr(oneideal.classify, "divergence_table", lambda limit_m: [(8, 2, 3)])
    assert run(*argv) == (status, "", line + "\n")


def test_a_key_error_in_a_route_is_a_bug_and_not_an_input_error(monkeypatch):
    def explode(a, b):
        raise KeyError("mode")

    monkeypatch.setattr(cli.classify, "stable_iso", explode)
    with pytest.raises(KeyError):
        run(*COMPARE_STABLE)


def test_output_is_deterministic():
    first = run_json("scan", "--max-m", "15")
    second = run_json("scan", "--max-m", "15")
    assert first == second
    a = run("invariant", "--m", "6", "--n", "2,1")
    b = run("invariant", "--m", "6", "--n", "2,1")
    assert a == b


# Each case keeps the id pytest gave it by position before the ids were
# written out, so removing a case renames no other; a new case takes a name
# that says what is malformed.  An argv that is also an ERROR_LINES row is
# not repeated here: that row pins its exact line.
MALFORMED_SPECS = {
    "argv0": ("invariant", "--spec", '{"m": 8, "n": "13"}'),
    "argv1": ("invariant", "--spec", '{"m": 8, "n": [1.7]}'),
    "argv2": ("invariant", "--spec", '{"m": 8, "n": [true]}'),
    "argv3": ("invariant", "--spec", '{"m": 8.0, "n": [1]}'),
    "argv4": ("invariant", "--spec", '{"m": "08x", "n": [1]}'),
    "argv5": ("invariant", "--spec", '{"m": 0, "n": [1], "tail": {"kind": "constant", "c": 2.5}}'),
    "argv6": ("invariant", "--spec", '{"m": 0, "n": [1], "tail": "zero"}'),
    "argv8": ("invariant", "--spec", "[1,2]"),
    "argv9": ("fullness", "--spec", '"m=8,n=1"'),
    "argv10": ("compare", "--a", '{"m": 8, "n": [" 1"]}', "--b", "m=8,n=1", "--mode", "exact"),
    "argv12": ("compare", "--a", "m=8,m=9,n=3", "--b", "m=9,n=3", "--mode", "exact"),
    "argv13": ("compare", "--a", "[1,2]", "--b", "m=8,n=1", "--mode", "exact"),
    "argv15": (
        "invariant", "--spec", '{"m": 0, "n": [1], "tail": {"kind": "zero", "kind": "zero"}}',
    ),
    "argv16": (
        "compare", "--a", '{"m": 8, "n": [1], "n": [2]}', "--b", "m=8,n=1", "--mode", "exact",
    ),
    "argv17": ("invariant", "--m", "8", "--n", " +1,1_0"),
    "argv18": ("invariant", "--m", "8", "--n", "1, 2"),
    "argv19": ("invariant", "--m", "+8", "--n", "1"),
    "argv20": ("invariant", "--m", " inf", "--n", "1"),
    "argv21": ("invariant", "--m", "0", "--n", "1", "--tail", "constant:1_0"),
    "argv22": ("compare", "--a", "m=8,n=1_0", "--b", "m=8,n=1", "--mode", "exact"),
    "argv23": ("scan", "--max-m", "1_0"),
    "argv24": ("scan", "--max-m", " 10"),
    "argv25": ("compare", "--a", "m=8,n=[1,2", "--b", "m=8,n=1", "--mode", "exact"),
    "argv26": ("invariant", "--m", "8", "--n", "1", "--depth", " 1_0"),
    "argv27": ("invariant", "--m", "8", "--n", "1", "--depth", "+3"),
    "argv28": ("invariant", "--m", "0", "--n", "1", "--tail", "ZERO"),
    "argv29": ("invariant", "--m", "0", "--n", "1", "--tail", " Constant:2"),
    "argv30": ("invariant", "--m", "8", "--n", "1", "--tail", "zero:"),
    "argv31": ("compare", "--a", " m = 8 , n=1", "--b", "m=8,n=1", "--mode", "exact"),
    "argv32": ("compare", "--a", "n=[1],,m=8", "--b", "m=8,n=1", "--mode", "exact"),
    "argv33": ("invariant", "--spec", '{"m": 8, "n": [1], "tail": {"kind": "zero", "c": null}}'),
    "argv34": (
        "invariant", "--spec", '{"m": 0, "n": [1], "tail": {"kind": "constant", "c": null}}',
    ),
    "argv35": ("invariant", "--spec", '{"m": 8, "n": ' + "[" * 10**5 + "]" * 10**5 + "}"),
    "argv36": ("compare", "--a", '{"m": ' + "[" * 10**5, "--b", "m=8,n=1", "--mode", "exact"),
    "argv37": ("compare", "--a", "m=8,n=1,", "--b", "m=8,n=[3]", "--mode", "stable"),
    "argv38": ("compare", "--a", "m=8,n=1", "--b", "m=8,n=[3],", "--mode", "stable"),
    "argv39": ("compare", "--a", "n=[1]m=8", "--b", "m=8,n=[3]", "--mode", "stable"),
    "argv40": ("compare", "--a", "m=8,n=[1]tail=zero", "--b", "m=8,n=[3]", "--mode", "stable"),
}


@pytest.mark.parametrize("argv", MALFORMED_SPECS.values(), ids=list(MALFORMED_SPECS))
def test_malformed_specs_exit_2_with_a_reason(argv):
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error") and "Traceback" not in err


@pytest.mark.parametrize("max_m", [str(MAX_SCAN_M + 1), "1" + "0" * 29])
def test_scan_past_the_limit_exits_2_before_any_class_count(max_m):
    code, out, err, calls = entered("scan", "--max-m", max_m)
    assert (code, out, calls["classify.divergence_table"]) == (2, "", 0)
    assert err == f"error [WorkLimit]: --max-m is {max_m}, more than the limit {MAX_SCAN_M}\n"


def test_scan_at_the_limit_is_computed():
    from oneideal.classify import class_counts

    code, data, _ = run_json("scan", "--max-m", str(MAX_SCAN_M))
    assert code == 0
    rows = data["verdict"]["table"]
    assert len(rows) == MAX_SCAN_M - 1
    for row in rows[::997]:
        m = int(row["m"])
        assert (int(row["exactClasses"]), int(row["stableClasses"])) == class_counts(m), m


def test_closed_reader_pipe_is_not_an_error():
    proc = subprocess.Popen(
        [sys.executable, "-m", "oneideal", "scan", "--max-m", "40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    proc.stdout.close()  # before the command writes anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_a_reader_that_leaves_mid_stream_is_not_an_error():
    proc = subprocess.Popen(
        [sys.executable, "-m", "oneideal", "scan", "--max-m", str(MAX_SCAN_M), "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()  # with almost all of the 9.8 MB report still to write
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


# Runs main(argv) in a fresh interpreter, then prints its peak RSS in KiB.  The
# address space is capped at 1 GiB, so a route without a budget fails early.
# The peak is VmHWM, the child's own: a child spawned by vfork, as subprocess
# does, also counts the parent's peak in its ru_maxrss.
PEAK_RSS_PROBE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from oneideal.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def _exact_compare_in_a_subprocess(m):
    return spawn("compare", "--a", f"m={m},n=[1]", "--b", f"m={m},n=[3]", "--mode", "exact",
                 probe=PEAK_RSS_PROBE)


@pytest.mark.parametrize("m", [10**30 + 58, 10**999 + 2], ids=["31 digits", "1000 digits"])
def test_an_order_past_the_logarithm_table_exits_2_in_bounded_time_and_memory(m):
    code, out, err, seconds = _exact_compare_in_a_subprocess(m)
    assert code == 2, err
    assert err.startswith(f"error [WorkLimit]: the order of 2 modulo {m - 1} is ")
    assert seconds < 5
    assert int(out) < 300 * 1024  # peak RSS in KiB


def _scan_at_the_limit_in_a_subprocess(fmt):
    """The report of ``scan --max-m MAX_SCAN_M`` and the peak RSS in KiB."""
    code, out, err, _ = spawn("scan", "--max-m", str(MAX_SCAN_M), "--format", fmt,
                              probe=PEAK_RSS_PROBE)
    assert code == 0, err
    report, peak_rss = out.rstrip("\n").rsplit("\n", 1)
    return report, int(peak_rss)


# The rows are the sieve's ints until each is written: a dict of three digit
# strings per row would add about 32 MiB, and the whole 9.8 MB JSON string
# about 65 MiB more.
def test_scan_at_the_limit_streams_its_json_in_bounded_memory():
    from oneideal.cli import scan_report

    report, peak_rss = _scan_at_the_limit_in_a_subprocess("json")
    assert json.loads(report) == scan_report(MAX_SCAN_M).to_json_dict()
    assert peak_rss < 50 * 1024


def test_scan_at_the_limit_renders_its_text_in_bounded_memory():
    from oneideal.cli import scan_report

    report, peak_rss = _scan_at_the_limit_in_a_subprocess("text")
    assert report == scan_report(MAX_SCAN_M).to_text()
    assert peak_rss < 50 * 1024


def test_an_orbit_of_a_million_residues_is_decided():
    # m - 1 = 1000003 is prime and 2 has order 1000002 modulo it
    code, out, err, _ = _exact_compare_in_a_subprocess(1000004)
    assert code == 0, err
    assert "witness: l=254277 l'=0 unit=1" in out


# The discrete logarithm's table of MAX_LOG_STEP = 2048 entries finds an
# order of 2 up to 2048**2 = 4194304, whatever the modulus's size.  4194187
# and 4194371 are the primes modulo which 2 has the full order p - 1 on
# either side of that limit (test_sympy_reference.py derives them and the
# witnesses), so m - 1 = 4194187 is the largest such modulus admitted and
# 4194371 the first refused (ERROR_LINES pins its line).  The 21-bit primes
# 1597829 and 1597931 lie well inside; m - 1 = 2 * 1597829 is decided modulo
# its odd part, 1597829; and m - 1 = (2**101 - 1)(2**103 - 1)(2**107 - 1), a
# 311-bit modulus where 2 has order 101 * 103 * 107, is decided too.
@pytest.mark.parametrize(
    "m, line",
    [
        (1597830, "witness: l=0 l'=19211 unit=1"),
        (1597932, "witness: l=725374 l'=0 unit=1"),
        (3195659, "witness: l=1 l'=19212 unit=1"),
        (4194188, "witness: l=1157275 l'=0 unit=1"),
        ((2**101 - 1) * (2**103 - 1) * (2**107 - 1) + 1, "isomorphic: False"),
    ],
    ids=["prime 1597829", "prime 1597931", "priced at the odd part", "largest admitted",
         "311-bit modulus"],
)
def test_the_logarithm_table_admits_its_worst_case_and_refuses_the_next(m, line):
    argv = ("compare", "--a", f"m={m},n=[1]", "--b", f"m={m},n=[3]", "--mode", "exact")
    got, out, _ = run(*argv)
    assert got == 0
    assert line in out.splitlines()


def test_importing_the_package_leaves_the_cli_unimported():
    code, out, err, _ = spawn(probe="import sys, oneideal; print('oneideal.cli' in sys.modules)")
    assert (code, out) == (0, "False\n"), err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("invariant", "--m", "9", "--n", "1,0,3"), 1),
        (("invariant", "--m", "9", "--n", "1", "--format", "json"), 1),
        (("fullness", "--m", "9", "--n", "1,0,3"), 0),
        (("invariant", "--m", "0", "--n", "2"), 0),
        (("invariant", "--m", "inf", "--n", "2"), 0),
        (("fullness", "--m", "0", "--n", "2"), 0),
        (("fullness", "--m", "inf", "--n", "2"), 0),
        (("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "stable"), 0),
        (("scan", "--max-m", "12"), 0),
    ],
)
def test_smith_forms_per_command(argv, expected):
    code, _, _, calls = entered(*argv)
    assert (code, calls["exactlinalg.cokernel_invariants"]) == (0, expected)


@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "--m", "9", "--n", "1", "--depth", "100000"),
        ("invariant", "--m", "9", "--n", "1", "--depth", str(MAX_TRUNCATION_DEPTH + 1)),
    ],
)
def test_truncation_depth_past_the_limit_exits_2_before_building_the_matrix(argv):
    code, out, err, calls = entered(*argv)
    assert (code, out, calls["family.truncated_presentation"]) == (2, "", 0)
    assert err.startswith("error [WorkLimit]: truncation depth ")
    assert err.rstrip().endswith(f"exceeds the limit {MAX_TRUNCATION_DEPTH}")


@pytest.mark.parametrize(
    "argv, depth, x",
    [
        # default depth max(k + 3, k + v2(m-1) + 1)
        (("invariant", "--m", "9", "--n", ",".join(["1"] * 2046)), 2050, 8),
        (("invariant", "--m", str(2**2047 + 1), "--n", "1"), 2049, 2**2047),
    ],
    ids=["2046 ones", "m = 2^2047 + 1"],
)
def test_a_default_depth_above_2048_gives_the_closed_form(argv, depth, x):
    code, data, err = run_json(*argv)
    assert (code, err) == (0, "")
    assert data["scalars"]["x"] == str(x)
    truncation = {"depth": str(depth), "freeRank": "1", "torsion": [str(x)]}
    assert data["invariant"]["truncation"] == truncation


def test_truncation_at_the_depth_limit_is_computed():
    depth = str(MAX_TRUNCATION_DEPTH)
    code, data, _ = run_json("invariant", "--m", "9", "--n", "1", "--depth", depth)
    assert code == 0
    assert data["invariant"]["truncation"] == {"depth": depth, "freeRank": "1", "torsion": ["8"]}


def test_the_deepest_default_truncation_is_computed_in_bounded_time_and_memory():
    # k = MAX_PREFIX_LENGTH and v2(m - 1) = 3321, the largest below 10**1000
    argv = ("invariant", "--m", str(2**3321 + 1), "--n", ",".join(["1"] * MAX_PREFIX_LENGTH))
    code, out, err, seconds = spawn(*argv, probe=PEAK_RSS_PROBE)
    assert code == 0, err
    assert f"truncation oracle: depth={MAX_TRUNCATION_DEPTH} free rank=1 " in out
    assert seconds < 5
    assert int(out.splitlines()[-1]) < 300 * 1024  # peak RSS in KiB


LONG_PREFIX = ",".join(["1"] * (MAX_PREFIX_LENGTH + 1))
LONG_INT = "1" + "0" * MAX_INTEGER_DIGITS


@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "--m", "0", "--n", LONG_PREFIX),
        ("invariant", "--m", "inf", "--n", LONG_PREFIX, "--tail", "constant:1"),
        ("invariant", "--m", "9", "--n", LONG_PREFIX),
        ("fullness", "--m", "0", "--n", LONG_PREFIX),
        ("fullness", "--m", "9", "--n", LONG_PREFIX),
        ("invariant", "--spec", json.dumps({"m": "inf", "n": [1] * (MAX_PREFIX_LENGTH + 1)})),
        ("compare", "--a", f"m=9,n=[{LONG_PREFIX}]", "--b", "m=9,n=1", "--mode", "exact"),
        ("invariant", "--m", LONG_INT, "--n", "1"),
        ("invariant", "--m", "0", "--n", f"1,{LONG_INT}"),
        ("fullness", "--m", "inf", "--n", "1", "--tail", f"doubling:{LONG_INT}"),
        ("fullness", "--spec", f'{{"m": {LONG_INT}, "n": [1]}}'),
        # past Python's own 4,300-digit limit on converting a JSON integer
        ("invariant", "--spec", f'{{"m": 0, "n": [{"9" * 5000}]}}'),
        ("compare", "--a", "m=9,n=1", "--b", f'{{"m": 9, "n": [{LONG_INT}]}}', "--mode", "stable"),
        ("compare", "--a", f"m={LONG_INT},n=1", "--b", "m=9,n=1", "--mode", "stable"),
        ("scan", "--max-m", LONG_INT),
        ("scan", "--max-m", "0" * 4999 + "5"),
        ("invariant", "--m", "9", "--n", "1", "--depth", LONG_INT),
        ("invariant", "--m", "9", "--n", "1", "--depth", "9" * 5000),
    ],
)
def test_input_past_the_size_limits_exits_2_before_any_arithmetic(argv):
    code, out, err, calls = entered(*argv)
    assert (code, out) == (2, "")
    arithmetic = {"family.weight_of", "family.alpha_of", "classify.divergence_table"}
    assert calls.keys() & arithmetic == set()
    assert err.startswith("error [WorkLimit]: ") and "more than the limit" in err


# The largest input, with the largest integers a report shows: alpha's numerator
# N + c and, at finite m, m - 1 itself.  The test puts in the 10 MB prefix,
# as --n after --m and its value.
@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "--m", "0", "--tail", f"constant:{'9' * MAX_INTEGER_DIGITS}",
         "--format", "text"),
        ("fullness", "--m", "9" * MAX_INTEGER_DIGITS, "--format", "json"),
        ("invariant", "--m", "9" * MAX_INTEGER_DIGITS, "--format", "text"),
    ],
)
def test_the_largest_accepted_input_renders(argv):
    largest_prefix = ",".join(["9" * MAX_INTEGER_DIGITS] * MAX_PREFIX_LENGTH)
    code, out, err = run(*argv[:3], "--n", largest_prefix, *argv[3:])
    assert (code, err) == (0, "")
    assert out.startswith("command: " if "text" in argv else "{")


@pytest.mark.parametrize(
    "m", [10**5000, 10**MAX_INTEGER_DIGITS], ids=["5001 digits", "1001 digits"]
)
def test_a_python_int_past_the_digit_limit_is_a_work_limit(m):
    with pytest.raises(WorkLimitError, match="more digits than the limit"):
        spec_from_json({"m": m, "n": [1]})
    largest = 10**MAX_INTEGER_DIGITS - 1
    assert spec_from_json({"m": largest, "n": [1]})[0].m == largest


def test_wrong_torsion_order_is_caught_by_the_truncation(monkeypatch):
    import oneideal.ktheory

    monkeypatch.setattr(oneideal.ktheory, "torsion_order", lambda spec: 4)
    code, out, err = run("invariant", "--m", "9", "--n", "1")
    assert code == 3
    assert out == ""
    assert "[InternalConsistency]" in err


def test_a_wrong_truncation_below_saturation_exits_3(monkeypatch):
    # m = 9, k = 1, depth 1: the truncation is Z, torsion gcd(1, 8) = 1
    monkeypatch.setattr(cli, "truncated_k0", lambda spec, depth: (1, [2]))
    code, out, err = run("invariant", "--m", "9", "--n", "1", "--depth", "1")
    assert (code, out) == (3, "")
    assert "[InternalConsistency]" in err


def test_the_truncation_check_holds_at_every_depth():
    # free rank 1 and torsion gcd(2^(d-k) N, m - 1) from the prefix length k
    # to one past the stable depth
    for prefix in ((1,), (2, 0, 3), (0, 6), (5, 1, 0, 4)):
        k, weight = len(prefix), functools.reduce(lambda w, n: 2 * w + n, prefix)
        for m in range(2, 130):
            member = spec_from_json({"m": m, "n": list(prefix)})
            for depth in range(k, stable_oracle_depth(member[0]) + 2):
                y = math.gcd(weight << (depth - k), m - 1)
                torsion = [str(y)] if y > 1 else []
                expected = {"depth": str(depth), "freeRank": "1", "torsion": torsion}
                assert cli.invariant_report(*member, depth).invariant["truncation"] == expected


# Valid members with bounded work per query: m <= 10^4, at most 12 prefix entries.
@st.composite
def family_specs(draw):
    m = draw(st.one_of(st.sampled_from([0, INF]), st.integers(min_value=2, max_value=10**4)))
    prefix = tuple(draw(st.lists(st.integers(min_value=0, max_value=10**4), max_size=12)))
    kinds = ["zero"] if 1 < m < INF else ["zero", "constant", "doubling"]
    kind = draw(st.sampled_from(kinds))
    c = None if kind == "zero" else draw(st.integers(min_value=1, max_value=10**4))
    assume(kind != "zero" or any(prefix))
    return FamilySpec(m, prefix, TailSpec(kind, c))


def schema_of(spec: FamilySpec) -> dict:
    """The input-schema object of ``spec`` with every integer in canonical
    decimal text: the inputs entry a report echoes for it."""
    tail = {"kind": spec.tail.kind}
    if spec.tail.c is not None:
        tail["c"] = str(spec.tail.c)
    m = "inf" if spec.m == INF else str(spec.m)
    return {"m": m, "n": list(map(str, spec.prefix)), "tail": tail}


@given(family_specs())
def test_spec_json_round_trips(spec):
    assert spec_from_json(schema_of(spec)) == (spec, schema_of(spec))


@given(family_specs(), st.sampled_from(["text", "json"]))
def test_flag_compact_and_json_forms_read_alike(spec, fmt):
    d = schema_of(spec)
    tail = d["tail"]["kind"] + (":" + d["tail"]["c"] if "c" in d["tail"] else "")
    n = ",".join(d["n"])
    flags = ("--m", d["m"], "--n", n, "--tail", tail)
    spec_json = json.dumps(d)
    compact = f"m={d['m']},n=[{n}],tail={tail}"
    invariant = run("invariant", *flags, "--format", fmt)
    assert invariant[0] == 0
    assert run("invariant", "--spec", spec_json, "--format", fmt) == invariant
    compare = run("compare", "--a", compact, "--b", compact, "--mode", "exact", "--format", fmt)
    assert compare[0] == (0 if spec.has_finite_loops else 2)
    assert run("compare", "--a", spec_json, "--b", spec_json, "--mode", "exact",
               "--format", fmt) == compare


# Zeros to put before m, each of up to 12 prefix entries and the tail c.
LEADING_ZEROS = st.lists(st.integers(0, 3), min_size=14, max_size=14)


@settings(max_examples=30)
@given(family_specs(), LEADING_ZEROS)
def test_every_spelling_of_a_member_prints_the_same_bytes(spec, zeros):
    # flags or the compact form, and --spec with digit strings or JSON ints,
    # with and without leading zeros or the default tail: one output, whose
    # inputs echo the canonical text and whose text view is the one
    # Report.from_json_dict gives of its JSON
    d = schema_of(spec)
    kind, c = d["tail"]["kind"], d["tail"].get("c")

    def spelled(m, n, c, tail=True):
        """(the spec's argv, the compact form) and (--spec, its JSON object)."""
        tail_text = kind if c is None else f"{kind}:{c}"
        flags, compact = ("--m", m, "--n", ",".join(n)), f"m={m},n=[{','.join(n)}]"
        obj = {"m": m, "n": n}
        if tail:
            flags, compact = (*flags, "--tail", tail_text), f"{compact},tail={tail_text}"
            obj["tail"] = {"kind": kind} if c is None else {"kind": kind, "c": c}
        return [(flags, compact), (("--spec", json.dumps(obj)), json.dumps(obj))]

    padded = (
        d["m"] if spec.m == INF else "0" * zeros[0] + d["m"],
        ["0" * zeros[i + 1] + x for i, x in enumerate(d["n"])],
        None if c is None else "0" * zeros[13] + c,
    )
    spellings = spelled(d["m"], d["n"], c) + spelled(*padded)
    if kind == "zero":
        spellings += spelled(*padded, tail=False)
    ints = json.dumps({"m": d["m"] if spec.m == INF else spec.m, "n": list(spec.prefix),
                       "tail": {"kind": kind, **({} if c is None else {"c": spec.tail.c})}})
    spellings.append((("--spec", ints), ints))
    canonical = spellings[0][1]
    for fmt in ("text", "json"):
        for command in ("invariant", "fullness"):
            runs = {run(command, *argv, "--format", fmt) for argv, _ in spellings}
            assert len(runs) == 1
        runs = {run("compare", "--a", a, "--b", canonical, "--mode", "exact",
                    "--format", fmt) for _, a in spellings}
        assert len(runs) == 1
    for command in ("invariant", "fullness"):
        code, out, _ = run(command, *spellings[0][0], "--format", "json")
        assert code == 0 and json.loads(out)["inputs"] == [d]
        text = run(command, *spellings[0][0], "--format", "text")[1]
        assert text == Report.from_json_dict(json.loads(out)).to_text() + "\n"


# Padding a member with one zero maps its weight data (k, N) to (k + 1, 2N),
# so (l, l') = (1, 0) is an exact witness against the padding and the
# minimal one has l + l' <= 1: (0, 0) when N == 0 and (0, 1) when 3N == 0
# modulo m - 1.  A relation between two runs of the exact route, no oracle;
# m - 1 in {1, 3, 6, 9} reaches all three witnesses.
@settings(max_examples=40)
@given(st.one_of(st.sampled_from([2, 4, 7, 10]), st.integers(min_value=2, max_value=10**4)),
       st.lists(st.integers(min_value=0, max_value=10**4), min_size=1, max_size=8))
def test_padding_a_zero_is_an_exact_isomorphism(m, prefix):
    assume(any(prefix))
    n = ",".join(map(str, prefix))
    argv = ("compare", "--a", f"m={m},n=[{n}]", "--b", f"m={m},n=[{n},0]", "--mode", "exact")
    weight = sum(x << (len(prefix) - i) for i, x in enumerate(prefix, 1))
    l, l_prime = (0, 0) if weight % (m - 1) == 0 else (0, 1) if 3 * weight % (m - 1) == 0 else (1, 0)
    code, text, err = run(*argv)
    assert (code, err) == (0, "")
    assert f"witness: l={l} l'={l_prime} unit=1" in text.splitlines()
    code, out, err = run(*argv, "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["verdict"] == {"isomorphic": True, "mode": "exact"}
    assert data["witness"] == {"l": str(l), "lPrime": str(l_prime), "unit": "1"}
    assert Report.from_json_dict(data).to_text() + "\n" == text


# Relation laws between runs of compare on members n=[N] (weight N) with the
# same m: the verdict is symmetric in --a and --b in both modes, an exact
# "yes" is a stable "yes", and multiplying N_b by a unit of Z/(m - 1) keeps
# the stable verdict.  N_b is drawn as N_a times a power of 2 or another
# factor, as a multiple of m - 1, or at random, so every pair of verdicts
# occurs.
@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=10**4), st.integers(min_value=1, max_value=10**4),
       st.sampled_from(["power", "factor", "zero", "random"]),
       st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=10**4))
def test_compare_verdicts_keep_the_relation_laws(m, n_a, kind, x, unit):
    n_b = {"power": n_a << x % 20, "factor": n_a * x, "zero": (m - 1) * x, "random": x}[kind]
    assume(math.gcd(unit, m - 1) == 1)

    def isomorphic(mode, n_a, n_b):
        code, out, err = run("compare", "--a", f"m={m},n=[{n_a}]",
                             "--b", f"m={m},n=[{n_b}]", "--mode", mode)
        assert (code, err) == (0, "")
        return "isomorphic: True" in out.splitlines()

    exact, stable = isomorphic("exact", n_a, n_b), isomorphic("stable", n_a, n_b)
    assert isomorphic("exact", n_b, n_a) == exact
    assert isomorphic("stable", n_b, n_a) == stable
    assert stable or not exact
    assert isomorphic("stable", n_a, unit * n_b) == stable


# Appending a zero to the prefix maps the weight data (k, N) to (k + 1, 2N)
# and keeps alpha = N / 2^k and, M being odd, x = 2^v2(m-1) gcd(M, N), so
# the invariant does not move: the same groups, cones and case tag, and the
# same truncation, which each run reads off the cokernel at its own depth.
@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=10**4),
       st.lists(st.integers(min_value=0, max_value=10**4), min_size=1, max_size=8))
def test_appending_a_zero_keeps_the_invariant_and_doubles_the_weight(m, prefix):
    assume(any(prefix))

    def invariant(prefix):
        n = ",".join(map(str, prefix))
        code, out, err = run("invariant", "--m", str(m), "--n", n, "--format", "json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        del data["inputs"], data["invariant"]["truncation"]["depth"]
        return data, int(data["scalars"].pop("k")), int(data["scalars"].pop("N"))

    base, k, n_weight = invariant(prefix)
    assert invariant(prefix + [0]) == (base, k + 1, 2 * n_weight)


# A stable "yes" is the invariant's own verdict: two members with the same m
# are stably isomorphic exactly when their reports show the same ideal,
# middle and quotient, that is, the same torsion order x = 2^v2(m-1)
# gcd(M, N).  This ties the stable route to torsion_order across two
# commands.  The second prefix is the first scaled entrywise, or drawn
# alone, so both verdicts occur.
@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=10**4),
       st.lists(st.integers(min_value=0, max_value=10**4), min_size=1, max_size=4),
       st.one_of(st.integers(min_value=1, max_value=10**4),
                 st.lists(st.integers(min_value=0, max_value=10**4), min_size=1, max_size=4)))
def test_a_stable_yes_is_an_equal_invariant(m, prefix_a, scale_or_prefix):
    prefix_b = ([scale_or_prefix * n for n in prefix_a] if isinstance(scale_or_prefix, int)
                else scale_or_prefix)
    assume(any(prefix_a) and any(prefix_b))
    n_a, n_b = (",".join(map(str, prefix)) for prefix in (prefix_a, prefix_b))

    def sections(n):
        code, out, err = run("invariant", "--m", str(m), "--n", n, "--format", "json")
        assert (code, err) == (0, "")
        invariant = json.loads(out)["invariant"]
        return [invariant[key] for key in ("ideal", "middle", "quotient")]

    code, out, err = run("compare", "--a", f"m={m},n=[{n_a}]", "--b", f"m={m},n=[{n_b}]",
                         "--mode", "stable")
    assert (code, err) == (0, "")
    assert ("isomorphic: True" in out.splitlines()) == (sections(n_a) == sections(n_b))


# Doubling every prefix entry doubles the weight N and keeps k, so
# (l, l') = (1, 0) is an exact witness and the minimal one has l + l' <= 1.
@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=10**4),
       st.lists(st.integers(min_value=0, max_value=10**4), min_size=1, max_size=8))
def test_doubling_every_entry_keeps_the_exact_class(m, prefix):
    assume(any(prefix))
    a = ",".join(map(str, prefix))
    b = ",".join(str(2 * n) for n in prefix)
    code, out, err = run("compare", "--a", f"m={m},n=[{a}]", "--b", f"m={m},n=[{b}]",
                         "--mode", "exact", "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["verdict"] == {"isomorphic": True, "mode": "exact"}
    assert int(data["witness"]["l"]) + int(data["witness"]["lPrime"]) <= 1


# Every scan row is a function of the odd part of m - 1, and m and 2m - 1
# share it: (2m - 1) - 1 = 2(m - 1).
def test_scan_rows_depend_only_on_the_odd_part_of_m_minus_1():
    code, data, err = run_json("scan", "--max-m", "4000")
    assert (code, err) == (0, "")
    rows = {int(row["m"]): (row["exactClasses"], row["stableClasses"])
            for row in data["verdict"]["table"]}
    assert sorted(rows) == list(range(2, 4001))
    assert [m for m in range(2, 2001) if rows[m] != rows[2 * m - 1]] == []


@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "--m", "9", "--n", "1,2"),
        ("fullness", "--m", "0", "--n", "1", "--tail", "doubling:1", "--format", "json"),
        ("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "stable"),
        ("scan", "--max-m", "12"),
        ("compare", "--a", "m=8,n=1", "--mode", "exact"),
        ("--help",),
        (),
        ("bogus",),
        ("--",),
        ("invariant", "--m", "9", "--n", "1,2", "extra"),
        ("scan", "--max-m", "12", "--bogus"),
        ("invariant", "-h"),
        ("scan", "--max-m", "12", "--for", "json"),
        ("invariant", "--m=8", "--n", "1"),
        ("invariant", "--m", "8", "--n", "1", "--"),
        ("compare", "--", "--a", "m=8,n=1"),
        ("scan", "--max-m", "7", "--max-m", "12"),
        ("invariant", "--m", "9", "--n", "-1"),
        ("scan", "--max-m", "12", "--format=json"),
        ("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mo", "exact"),
        ("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "bogus"),
        ("compare", "--mode", "stable", "--a", "m=8,n=1"),
        ("invariant", "--m", "9", "--n", ""),
        ("invariant", "--n", "--m", "--m", "8"),
    ],
    ids=lambda argv: " ".join(argv) or "no arguments",
)
def test_one_pass_over_argv_answers_as_the_whole_parser(monkeypatch, argv):
    from oneideal import cli

    monkeypatch.setenv("COLUMNS", "80")
    got = run(*argv)
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
        assert got == run(*argv)


# Tokens for argv the table reader may take or hand on: every option string
# of every command, near misses that only argparse reads (abbreviations,
# ``--flag=value``, ``--``, help, values that start with ``-``), the choice
# values and junk.
OPTION_STRINGS = sorted({flag for _, _, options in cli.COMMANDS.values() for flag in options})
ODD_TOKENS = ["--for", "--mo", "--max", "--m=8", "--", "-h", "-1", "-", "", " -1"]
VALUES = ["text", "json", "exact", "stable", "bogus", "8", "1,2", "m=8,n=1"]
ANY_TOKEN = st.sampled_from(OPTION_STRINGS + ODD_TOKENS + VALUES) | st.text(max_size=3)


@st.composite
def command_lines(draw):
    """A command, then its own flags in any order, some left out or
    repeated, each with a value it takes; then up to two tokens of any kind
    put in anywhere or put in place of one."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    options = cli.COMMANDS[command][2]
    flags = draw(st.permutations(list(options)))[: draw(st.integers(len(options) - 2, 9))]
    argv = [command]
    for flag in flags + draw(st.lists(st.sampled_from(list(options)), max_size=2)):
        argv += [flag, draw(st.sampled_from(options[flag][1].get("choices", VALUES)))]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, len(argv)))
        argv[i : i + draw(st.integers(0, 1))] = [draw(ANY_TOKEN)]
    return argv


@settings(max_examples=150)
@given(command_lines())
def test_the_table_reader_returns_what_the_parser_returns(argv):
    args = cli._read_argv(argv)
    if args is not None:
        assert vars(args) == vars(cli.build_parser().parse_args(argv))


def test_the_common_argv_never_reaches_argparse():
    # every corpus row that gives a verdict, but argparse's own help, between
    # them spelling every option of every command
    done = one_pass()
    rows = [(row, calls) for row, calls, (code, _, _) in zip(ROWS, done.calls, done.outcomes)
            if code == 0 and not row["tag"].startswith("argparse ")]
    reached = [row["tag"] for row, calls in rows if any(n.startswith("argparse.") for n in calls)]
    assert reached == []
    assert set(OPTION_STRINGS) <= {token for row, _ in rows for token in row["argv"]}


def test_queries_reuse_one_parser():
    # the corpus pass starts with no parser built: the first row that argparse
    # reads builds it, and the later ones reuse it
    calls = one_pass().calls
    parsed = [c for c in calls if c["argparse.ArgumentParser.parse_known_args"]]
    built = [c["cli.build_parser"] for c in calls if c["argparse.ArgumentParser.__init__"]]
    assert len(parsed) > 1 and built == [1]


def test_no_state_is_carried_between_queries(monkeypatch):
    # the same help and usage width in this process and in the fresh ones
    monkeypatch.setenv("COLUMNS", "80")
    spec = ("--m", "17", "--n", "1")
    sequence = (
        ("invariant", *spec, "--depth", "5"),
        ("invariant", *spec),
        ("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "exact", "--format", "json"),
        ("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "bogus"),
        ("fullness", *spec),
        ("scan", "--max-m", "12"),
        ("scan", "--max-m", "12", "--format", "json"),
    )
    in_process = [run(*argv) for argv in sequence]
    assert [code for code, _, _ in in_process] == [0, 0, 0, 2, 0, 0, 0]
    assert in_process[0] != in_process[1]
    for argv, seen in zip(sequence, in_process):
        assert seen == spawn(*argv)[:3], argv
