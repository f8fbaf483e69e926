"""The ordered side: the paper's fullness condition against the library's,
and the alpha-cone isomorphism oracles against each other.

``oracles.k_lexicographic_by_clauses`` reads the two clauses off the printed
invariant section's cone tags, clause 1 by cone membership on a box; the
library decides the same condition from m and alpha alone
(``classify.is_k_lexicographic``).
"""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oneideal import INF, TailSpec, invariant_of
from oneideal.classify import is_k_lexicographic
from oneideal.cli import fullness_report
from oneideal.family import validate_family
from oneideal.report import invariant_to_json, spec_from_json
from oracles import (
    cone_box,
    cone_contains,
    find_order_isomorphism,
    k_lexicographic_by_clauses,
    walked_alpha_cones_isomorphic,
)
from test_golden import GOLDEN, ROWS, run

FULL = {"tag": "AllPositive", "withFullClass": True}


def section(middle_cone: dict, quotient: str = "FreeZ", quotient_cone=None) -> dict:
    """A printed invariant section over the dyadic ideal, by default the split
    sequence with the standard cones."""
    return {
        "ideal": {"cone": {"tag": "StandardDyadicCone"}, "group": {"tag": "DyadicLine"}},
        "middle": {"cone": middle_cone, "group": {"tag": "DyadicPlusFree"}},
        "quotient": {"cone": quotient_cone or {"tag": "StandardIntegerCone"},
                     "group": {"tag": quotient}},
    }


def alpha_cone(alpha: str) -> dict:
    return {"alpha": alpha, "tag": "AlphaCone"}


@pytest.mark.parametrize("alpha", ["inf", "0", "1/1024", "1/2", "1", "3/2", "7107/4096", "64"])
def test_the_alpha_cone_is_the_lexicographic_cone_exactly_at_infinity(alpha):
    # the lexicographic cone, written out: n > 0, or n = 0 and x >= 0
    same = all(
        cone_contains(alpha_cone(alpha), x, n) == (n > 0 or n == 0 and x >= 0)
        for x, n in cone_box(alpha)
    )
    assert same == (alpha == "inf")


def test_lexicographic_sequence_decisions():
    # over the standard cones clause 2 is vacuous, so clause 1 decides
    assert k_lexicographic_by_clauses(section(alpha_cone("inf")))
    assert not k_lexicographic_by_clauses(section(alpha_cone("1")))
    assert not k_lexicographic_by_clauses(section(alpha_cone("0")))
    # an everything-positive middle over a proper quotient cone holds (-1, 0)
    assert not k_lexicographic_by_clauses(section(FULL))


def test_lexicographic_sequence_unsupported_combination():
    # clause 1 is decided on the split sequence only; any other is refused
    with pytest.raises(ValueError, match="no lexicographic rule"):
        k_lexicographic_by_clauses(section(alpha_cone("1"), quotient="CyclicMod"))
    with pytest.raises(ValueError, match="no membership rule"):
        k_lexicographic_by_clauses(section({"tag": "SomeCone"}))


def test_k_lexicographic_on_family_invariants():
    for spec, expected in [
        (validate_family(0, [1], TailSpec("doubling", 1)), True),
        (validate_family(0, [2]), False),
        (validate_family(8, [1]), True),
        (validate_family(INF, [3]), True),
    ]:
        scalars = invariant_of(spec)
        assert is_k_lexicographic(spec.m, scalars.alpha) == expected
        assert k_lexicographic_by_clauses(invariant_to_json(spec.m, scalars)) == expected


def test_k_lexicographic_vacuous_when_neither_clause_applies():
    # a quotient cone that is the whole group but without a full class:
    # neither clause has its hypothesis, so even an alpha-cone middle passes
    positive = {"tag": "AllPositive", "withFullClass": False}
    assert k_lexicographic_by_clauses(section(alpha_cone("1"), "CyclicMod", positive))
    # with the full class, clause 2 asks the middle for it too
    assert not k_lexicographic_by_clauses(section(alpha_cone("1"), "CyclicMod", FULL))
    assert k_lexicographic_by_clauses(section(FULL, "CyclicMod", FULL))


def json_report(argv: list[str]) -> dict:
    """The JSON report of a command line: the last ``--format`` wins."""
    status, out, _ = run(*argv, "--format", "json")
    assert status == 0
    return json.loads(out)


def assert_fullness_agrees_with_the_clauses(report: dict) -> None:
    verdict = report["verdict"]
    k_lex = k_lexicographic_by_clauses(report["invariant"])
    assert verdict["kLexicographic"] == verdict["stabilizedFull"] == k_lex, report["inputs"]
    assert verdict["stenotic"]


def test_every_fullness_golden_and_corpus_row_agrees_with_the_clauses():
    reports = [json.loads(path.read_text()) for path in sorted(GOLDEN.glob("fullness-*.json"))]
    reports += [
        json_report(row["argv"]) for row in ROWS
        if row["argv"][0] == "fullness" and row["status"] == 0
    ]
    verdicts = set()
    for report in reports:
        assert_fullness_agrees_with_the_clauses(report)
        verdicts.add((report["inputs"][0]["m"] == "0", report["verdict"]["kLexicographic"]))
    # every outcome occurs: m = 0 either way, and m != 0
    assert verdicts == {(True, True), (True, False), (False, True)}


TAILS = st.sampled_from([{"kind": "zero"}, {"kind": "constant", "c": 5},
                         {"kind": "doubling", "c": 3}])
PREFIX = st.lists(st.integers(0, 9), max_size=5)
MEMBERS = st.one_of(
    st.tuples(st.just(0), PREFIX, TAILS),
    st.tuples(st.integers(2, 200), PREFIX, st.just({"kind": "zero"})),
    st.tuples(st.just("inf"), PREFIX, TAILS),
)


@settings(max_examples=150)
@given(MEMBERS)
@example((0, [2], {"kind": "zero"}))
@example((0, [], {"kind": "constant", "c": 3}))
@example((0, [1], {"kind": "doubling", "c": 1}))
def test_fullness_agrees_with_the_clauses_in_every_regime(member):
    m, prefix, tail = member
    if tail["kind"] == "zero" and not any(prefix):
        prefix = [*prefix, 1]  # some edge into the chain
    report = fullness_report(*spec_from_json({"m": m, "n": prefix, "tail": tail}))
    assert_fullness_agrees_with_the_clauses(report.to_json_dict())


def test_alpha_iso_examples():
    assert walked_alpha_cones_isomorphic(Fraction(1), Fraction(5))
    assert walked_alpha_cones_isomorphic(Fraction(1, 3), Fraction(2, 3))
    assert not walked_alpha_cones_isomorphic(Fraction(1, 3), Fraction(1, 5))
    assert walked_alpha_cones_isomorphic(INF, INF)
    assert not walked_alpha_cones_isomorphic(Fraction(1), INF)
    assert not walked_alpha_cones_isomorphic(INF, Fraction(1, 3))
    assert walked_alpha_cones_isomorphic(Fraction(0), Fraction(7, 8))


@given(st.fractions(min_value=0, max_value=30, max_denominator=64))
def test_alpha_iso_doubling_and_dyadic_shift(a):
    assert walked_alpha_cones_isomorphic(a, 2 * a)
    assert walked_alpha_cones_isomorphic(a, a + Fraction(3, 8))
    assert walked_alpha_cones_isomorphic(a, a)


def test_search_oracle_agrees_on_chosen_pairs():
    pairs = [
        (Fraction(1), Fraction(5)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(3, 5), Fraction(1, 5)),
        (Fraction(7, 12), Fraction(7, 3)),
        (Fraction(0), Fraction(9, 16)),
        (Fraction(1, 3), Fraction(1, 5)),
        (Fraction(2, 7), Fraction(3, 5)),
        (Fraction(1), INF),
        (INF, INF),
    ]
    for a, b in pairs:
        witness = find_order_isomorphism(a, b)
        assert (witness is not None) == walked_alpha_cones_isomorphic(a, b), (a, b)
        if witness is not None and not (a == INF):
            k, shift = witness
            # found map really does carry one cone onto the other
            assert b == Fraction(2) ** k * a - shift
