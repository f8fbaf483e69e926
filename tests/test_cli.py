import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oneideal import INF, FamilySpec, TailSpec
from oneideal.cli import main
from oneideal.report import Report, UNKNOWN_NOTE, spec_from_json, spec_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out else None), err


def test_invariant_m0(capsys):
    code, data, _ = run_json(capsys, "invariant", "--m", "0", "--n", "2")
    assert code == 0
    assert data["scalars"]["alpha"] == "1"
    assert data["invariant"]["middle"]["cone"] == {"tag": "AlphaCone", "alpha": "1"}
    assert data["invariant"]["caseTag"] == "AF-AF"


def test_invariant_m_inf(capsys):
    code, data, _ = run_json(capsys, "invariant", "--m", "inf", "--n", "1")
    assert code == 0
    cone = data["invariant"]["middle"]["cone"]
    assert cone == {"tag": "AllPositive", "withFullClass": True}


def test_invariant_m1_rejected(capsys):
    code, out, err = run(capsys, "invariant", "--m", "1", "--n", "1")
    assert code == 2
    assert "ConditionK" in err
    assert out == ""


def test_invariant_integers_are_strings(capsys):
    code, data, _ = run_json(capsys, "invariant", "--m", "8", "--n", "1")
    assert code == 0
    assert data["scalars"] == {"alpha": "1/2", "k": "1", "N": "1", "x": "1", "M": "7"}
    assert data["inputs"][0] == {"m": "8", "n": ["1"], "tail": {"kind": "zero"}}
    assert data["invariant"]["quotient"]["group"]["modulus"] == "7"


def test_invariant_depth_override(capsys):
    code, data, _ = run_json(capsys, "invariant", "--m", "3", "--n", "1", "--depth", "5")
    assert code == 0
    trunc = data["invariant"]["truncation"]
    assert trunc == {"depth": "5", "freeRank": "1", "torsion": ["2"]}
    code, _, err = run(capsys, "invariant", "--m", "3", "--n", "1", "--depth", "0")
    assert code == 2


def test_fullness_m8(capsys):
    code, data, _ = run_json(capsys, "fullness", "--m", "8", "--n", "1")
    assert code == 0
    assert data["verdict"]["stabilizedFull"] is True
    assert data["verdict"]["unstabilized"] == "Full"


def test_fullness_m0_unknown_has_note(capsys):
    code, data, _ = run_json(capsys, "fullness", "--m", "0", "--n", "2")
    assert code == 0
    assert data["verdict"]["stabilizedFull"] is False
    assert data["verdict"]["unstabilized"] == "Unknown"
    assert data["verdict"]["note"] == UNKNOWN_NOTE
    code, out, _ = run(capsys, "fullness", "--m", "0", "--n", "2")
    assert UNKNOWN_NOTE in out


def test_fullness_m0_doubling_full(capsys):
    code, data, _ = run_json(
        capsys, "fullness", "--m", "0", "--n", "1", "--tail", "doubling:1"
    )
    assert code == 0
    assert data["verdict"]["kLexicographic"] is True
    assert data["verdict"]["stabilizedFull"] is True
    assert data["verdict"]["unstabilized"] == "Full"


def test_compare_exact_negative(capsys):
    code, data, _ = run_json(
        capsys, "compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "exact"
    )
    assert code == 0
    assert data["verdict"]["isomorphic"] is False
    assert data["witness"] is None


def test_compare_stable_positive_with_unit(capsys):
    code, data, _ = run_json(
        capsys, "compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "stable"
    )
    assert code == 0
    assert data["verdict"]["isomorphic"] is True
    assert data["witness"]["unit"] == "5"


def test_compare_m_mismatch(capsys):
    code, data, _ = run_json(
        capsys, "compare", "--a", "m=4,n=1", "--b", "m=8,n=1", "--mode", "stable"
    )
    assert code == 0
    assert data["verdict"]["isomorphic"] is False
    assert data["verdict"]["reason"] == "m mismatch"


def test_compare_out_of_scope_exits_2(capsys):
    code, _, err = run(capsys, "compare", "--a", "m=0,n=2", "--b", "m=0,n=2", "--mode", "exact")
    assert code == 2
    assert "OutOfScope" in err


def test_compare_accepts_json_and_bracket_specs(capsys):
    spec_json = json.dumps({"m": 5, "n": [1, 0, 3], "tail": {"kind": "zero"}})
    code, data, _ = run_json(
        capsys, "compare", "--a", spec_json, "--b", "m=5,n=[1,0,3]", "--mode", "exact"
    )
    assert code == 0
    assert data["verdict"]["isomorphic"] is True
    assert data["inputs"][0] == data["inputs"][1]


def test_spec_json_flag(capsys):
    spec_json = json.dumps({"m": "inf", "n": [2], "tail": {"kind": "constant", "c": 4}})
    code, data, _ = run_json(capsys, "invariant", "--spec", spec_json)
    assert code == 0
    assert data["inputs"][0]["m"] == "inf"
    assert data["inputs"][0]["tail"] == {"kind": "constant", "c": "4"}


def test_scan_divergence(capsys):
    code, data, _ = run_json(capsys, "scan", "--max-m", "20")
    assert code == 0
    assert data["verdict"]["smallestDivergentM"] == "8"
    code, data, _ = run_json(capsys, "scan", "--max-m", "7")
    assert code == 0
    assert data["verdict"]["smallestDivergentM"] is None
    code, data, _ = run_json(capsys, "scan", "--max-m", "2")
    assert data["verdict"]["smallestDivergentM"] is None
    code, _, err = run(capsys, "scan", "--max-m", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "--m", "8", "--n", "1"),
        ("invariant", "--m", "0", "--n", "1,0,3", "--tail", "constant:2"),
        ("fullness", "--m", "0", "--n", "2"),
        ("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "stable"),
        ("scan", "--max-m", "12"),
    ],
)
def test_json_report_round_trips(capsys, argv):
    code, data, _ = run_json(capsys, *argv)
    assert code == 0
    report = Report.from_json_dict(data)
    assert report.to_json_dict() == data
    assert Report.from_json_dict(report.to_json_dict()) == report


INVARIANT_M9 = ("invariant", "--m", "9", "--n", "1")
INVARIANT_M0 = ("invariant", "--m", "0", "--n", "1,1")
COMPARE_STABLE = ("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "stable")
SCAN_12 = ("scan", "--max-m", "12")
FULLNESS_M0 = ("fullness", "--m", "0", "--n", "2")
MISSING = object()  # deletes the key instead of setting it


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
    ],
)
def test_tampered_report_is_rejected(capsys, argv, path, value):
    code, data, _ = run_json(capsys, *argv)
    assert code == 0
    target = data
    for key in path[:-1]:
        target = target[key]
    if value is MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    with pytest.raises(ValueError):
        Report.from_json_dict(data)


def test_internal_consistency_failure_exits_3(capsys, monkeypatch):
    from oneideal import InternalConsistencyError
    from oneideal import cli as cli_module

    def explode(a, b):
        raise InternalConsistencyError("routes disagree")

    monkeypatch.setattr(cli_module.classify, "stable_iso", explode)
    code, _, err = run(capsys, "compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "stable")
    assert code == 3
    assert "InternalConsistency" in err


def test_output_is_deterministic(capsys):
    first = run_json(capsys, "scan", "--max-m", "15")
    second = run_json(capsys, "scan", "--max-m", "15")
    assert first == second
    a = run(capsys, "invariant", "--m", "6", "--n", "2,1")
    b = run(capsys, "invariant", "--m", "6", "--n", "2,1")
    assert a == b


def test_text_and_json_carry_same_values(capsys):
    _, text, _ = run(capsys, "compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "stable")
    _, data, _ = run_json(capsys, "compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "stable")
    assert "isomorphic: True" in text
    assert "unit=5" in text
    assert data["witness"]["unit"] == "5"
    _, text, _ = run(capsys, "invariant", "--m", "0", "--n", "1,1")
    assert "alpha=3/4" in text
    assert "alpha-cone(3/4)" in text


@pytest.mark.parametrize(
    "argv",
    [
        ("invariant", "--spec", '{"m": 8, "n": "13"}'),
        ("invariant", "--spec", '{"m": 8, "n": [1.7]}'),
        ("invariant", "--spec", '{"m": 8, "n": [true]}'),
        ("invariant", "--spec", '{"m": 8.0, "n": [1]}'),
        ("invariant", "--spec", '{"m": "08x", "n": [1]}'),
        ("invariant", "--spec", '{"m": 0, "n": [1], "tail": {"kind": "constant", "c": 2.5}}'),
        ("invariant", "--spec", '{"m": 0, "n": [1], "tail": "zero"}'),
        ("invariant", "--spec", '{"m": 8, "n": [1], "junk": 3}'),
        ("invariant", "--spec", "[1,2]"),
        ("fullness", "--spec", '"m=8,n=1"'),
        ("compare", "--a", '{"m": 8, "n": [" 1"]}', "--b", "m=8,n=1", "--mode", "exact"),
        ("compare", "--a", "m=8,n=1,junk=3", "--b", "m=8,n=1", "--mode", "exact"),
        ("compare", "--a", "m=8,m=9,n=3", "--b", "m=9,n=3", "--mode", "exact"),
        ("compare", "--a", "[1,2]", "--b", "m=8,n=1", "--mode", "exact"),
        ("invariant", "--spec", '{"m": 8, "m": 9, "n": [1]}'),
        ("invariant", "--spec", '{"m": 0, "n": [1], "tail": {"kind": "zero", "kind": "zero"}}'),
        ("compare", "--a", '{"m": 8, "n": [1], "n": [2]}', "--b", "m=8,n=1", "--mode", "exact"),
        ("invariant", "--m", "8", "--n", " +1,1_0"),
        ("invariant", "--m", "8", "--n", "1, 2"),
        ("invariant", "--m", "+8", "--n", "1"),
        ("invariant", "--m", " inf", "--n", "1"),
        ("invariant", "--m", "0", "--n", "1", "--tail", "constant:1_0"),
        ("compare", "--a", "m=8,n=1_0", "--b", "m=8,n=1", "--mode", "exact"),
        ("scan", "--max-m", "1_0"),
        ("scan", "--max-m", " 10"),
        ("compare", "--a", "m=8,n=[1,2", "--b", "m=8,n=1", "--mode", "exact"),
        ("invariant", "--m", "8", "--n", "1", "--depth", " 1_0"),
        ("invariant", "--m", "8", "--n", "1", "--depth", "+3"),
        ("invariant", "--m", "0", "--n", "1", "--tail", "ZERO"),
        ("invariant", "--m", "0", "--n", "1", "--tail", " Constant:2"),
        ("invariant", "--m", "8", "--n", "1", "--tail", "zero:"),
        ("compare", "--a", " m = 8 , n=1", "--b", "m=8,n=1", "--mode", "exact"),
        ("compare", "--a", "n=[1],,m=8", "--b", "m=8,n=1", "--mode", "exact"),
    ],
)
def test_malformed_specs_exit_2_with_a_reason(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error") and "Traceback" not in err


def test_congruence_routes_enumerate_no_units(capsys, monkeypatch):
    from oneideal import classify

    def refuse(*args):
        raise AssertionError("the congruence layer enumerated the units")

    monkeypatch.setattr(classify, "units_mod", refuse)
    monkeypatch.setattr(classify, "_unit_multiples", refuse)
    # m - 1 = 262143 = 3^3 * 7 * 19 * 73
    for n_b, isomorphic in (("5", True), ("3", False)):
        code, data, _ = run_json(
            capsys, "compare", "--a", "m=262144,n=1", "--b", f"m=262144,n={n_b}", "--mode", "stable"
        )
        assert code == 0
        assert data["verdict"]["isomorphic"] is isomorphic
    code, data, _ = run_json(capsys, "scan", "--max-m", "400")
    assert code == 0
    assert data["verdict"]["smallestDivergentM"] == "8"
    assert len(data["verdict"]["table"]) == 399


def test_scan_text_columns_stay_apart_past_m_100(capsys):
    code, out, _ = run(capsys, "scan", "--max-m", "120")
    assert code == 0
    _, data, _ = run_json(capsys, "scan", "--max-m", "120")
    lines = out.splitlines()
    start = lines.index("m  exact-classes  stable-classes") + 1
    rows = data["verdict"]["table"]
    assert len(rows) == 119
    for line, row in zip(lines[start:], rows):
        assert line.split()[:3] == [row["m"], row["exactClasses"], row["stableClasses"]]


def test_closed_reader_pipe_is_not_an_error():
    proc = subprocess.Popen(
        [sys.executable, "-m", "oneideal", "scan", "--max-m", "40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # before the command writes anything
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def _smith_forms(capsys, monkeypatch, *argv):
    import oneideal.ktheory

    calls = []
    cokernel_invariants = oneideal.ktheory.cokernel_invariants

    def counted(matrix):
        calls.append(matrix)
        return cokernel_invariants(matrix)

    monkeypatch.setattr(oneideal.ktheory, "cokernel_invariants", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return len(calls)


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
def test_smith_forms_per_command(capsys, monkeypatch, argv, expected):
    assert _smith_forms(capsys, monkeypatch, *argv) == expected


def test_wrong_torsion_order_is_caught_by_the_truncation(capsys, monkeypatch):
    import oneideal.ktheory

    monkeypatch.setattr(oneideal.ktheory, "torsion_order", lambda spec: 4)
    code, out, err = run(capsys, "invariant", "--m", "9", "--n", "1")
    assert code == 3
    assert out == ""
    assert "[InternalConsistency]" in err


def test_truncation_below_the_stable_depth_is_not_checked(capsys):
    # m = 9, k = 1: the stable depth is 5, and depth 3 still shows Z/4 < Z/8
    code, out, _ = run(capsys, "invariant", "--m", "9", "--n", "1", "--depth", "3")
    assert code == 0
    assert "x=8" in out
    assert "truncation oracle: depth=3 free rank=1 torsion=[4]" in out


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


def run_captured(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@given(family_specs())
def test_spec_json_round_trips(spec):
    assert spec_from_json(spec_to_json(spec)) == spec


@given(family_specs(), st.sampled_from(["text", "json"]))
def test_flag_compact_and_json_forms_read_alike(spec, fmt):
    d = spec_to_json(spec)
    tail = d["tail"]["kind"] + (":" + d["tail"]["c"] if "c" in d["tail"] else "")
    n = ",".join(d["n"])
    flags = ("--m", d["m"], "--n", n, "--tail", tail)
    spec_json = json.dumps(d)
    compact = f"m={d['m']},n=[{n}],tail={tail}"
    invariant = run_captured("invariant", *flags, "--format", fmt)
    assert invariant[0] == 0
    assert run_captured("invariant", "--spec", spec_json, "--format", fmt) == invariant
    compare = run_captured("compare", "--a", compact, "--b", compact, "--mode", "exact",
                           "--format", fmt)
    assert compare[0] == (0 if spec.has_finite_loops else 2)
    assert run_captured("compare", "--a", spec_json, "--b", spec_json, "--mode", "exact",
                        "--format", fmt) == compare
