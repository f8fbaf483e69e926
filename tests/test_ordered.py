from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oneideal import (
    INF,
    ConeShapeError,
    PreorderedGroup,
    TailSpec,
    UnsupportedConeCombination,
    invariant_of,
)
from oneideal.family import validate_family
from oneideal.groups import (
    ALL_POSITIVE,
    ALPHA_CONE,
    CYCLIC_MOD,
    DYADIC_LINE,
    DYADIC_PLUS_FREE,
    DYADIC_PLUS_TORSION,
    FREE_Z,
    STANDARD_DYADIC_CONE,
    STANDARD_INTEGER_CONE,
    ConeDescriptor,
    GroupDescriptor,
    alpha_cone,
    dyadic_plus_torsion,
)
from oneideal.ordered import is_k_lexicographic, is_lexicographic_sequence
from oracles import find_order_isomorphism, walked_alpha_cones_isomorphic

DYADIC = PreorderedGroup(GroupDescriptor(DYADIC_LINE), ConeDescriptor(STANDARD_DYADIC_CONE))
INTEGERS = PreorderedGroup(GroupDescriptor(FREE_Z), ConeDescriptor(STANDARD_INTEGER_CONE))
POSITIVE = ConeDescriptor(ALL_POSITIVE, with_full_class=True)


def alpha_pg(a):
    return PreorderedGroup(GroupDescriptor(DYADIC_PLUS_FREE), alpha_cone(a))


def test_shape_mismatch_raises():
    with pytest.raises(ConeShapeError):
        PreorderedGroup(GroupDescriptor(FREE_Z), alpha_cone(1))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: GroupDescriptor("Nope"), "unknown group tag"),
        (lambda: GroupDescriptor(DYADIC_PLUS_TORSION, torsion_order=1), "needs an int order >= 2"),
        (lambda: GroupDescriptor(DYADIC_LINE, torsion_order=3), "only applies to DyadicPlusT"),
        (lambda: GroupDescriptor(CYCLIC_MOD, modulus=0), "needs an int modulus >= 1"),
        (lambda: GroupDescriptor(FREE_Z, modulus=3), "only applies to CyclicMod"),
        (lambda: dyadic_plus_torsion(0), "must be an int >= 1"),
        (lambda: ConeDescriptor("Nope"), "unknown cone tag"),
        (lambda: ConeDescriptor(STANDARD_DYADIC_CONE, alpha=Fraction(1)), "only applies to the"),
        (lambda: ConeDescriptor(ALPHA_CONE, alpha=INF, with_full_class=True), "applies to AllPos"),
        (lambda: GroupDescriptor(CYCLIC_MOD, modulus=True), "needs an int modulus"),
        (lambda: GroupDescriptor(CYCLIC_MOD, modulus=7.0), "needs an int modulus"),
        (lambda: GroupDescriptor(CYCLIC_MOD, modulus="7"), "needs an int modulus"),
        (lambda: GroupDescriptor(DYADIC_PLUS_TORSION, torsion_order=2.5), "needs an int order"),
        (lambda: GroupDescriptor(DYADIC_PLUS_TORSION, torsion_order="3"), "needs an int order"),
        (lambda: dyadic_plus_torsion(True), "must be an int"),
        (lambda: dyadic_plus_torsion(1.0), "must be an int"),
        (lambda: dyadic_plus_torsion("3"), "must be an int"),
        (lambda: ConeDescriptor(ALL_POSITIVE, with_full_class=1), "must be a bool"),
        (lambda: ConeDescriptor(STANDARD_INTEGER_CONE, with_full_class=None), "must be a bool"),
    ],
    ids=[
        "unknown group tag",
        "torsion order 1",
        "torsion order on the dyadic line",
        "modulus 0",
        "modulus on Z",
        "torsion factory at 0",
        "unknown cone tag",
        "alpha on a standard cone",
        "full class on the alpha cone",
        "bool modulus",
        "float modulus",
        "string modulus",
        "float torsion order",
        "string torsion order",
        "bool torsion factory",
        "float torsion factory",
        "string torsion factory",
        "int full class",
        "None full class",
    ],
)
def test_a_descriptor_with_a_malformed_field_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("alpha", [0.1, True, "1/2"])
def test_alpha_cone_rejects_a_parameter_that_is_not_exact(alpha):
    with pytest.raises(ValueError):
        alpha_cone(alpha)
    with pytest.raises(ValueError):
        ConeDescriptor(ALPHA_CONE, alpha=alpha)


def test_lexicographic_sequence_decisions():
    assert is_lexicographic_sequence(DYADIC, alpha_pg(INF), INTEGERS)
    assert not is_lexicographic_sequence(DYADIC, alpha_pg(1), INTEGERS)
    assert not is_lexicographic_sequence(DYADIC, alpha_pg(0), INTEGERS)

    # everything-positive middle over a proper quotient cone cannot match
    middle_all = PreorderedGroup(GroupDescriptor(DYADIC_PLUS_FREE), POSITIVE)
    assert not is_lexicographic_sequence(DYADIC, middle_all, INTEGERS)


def test_lexicographic_sequence_unsupported_combination():
    ideal = PreorderedGroup(GroupDescriptor(DYADIC_LINE), ConeDescriptor(ALL_POSITIVE))
    with pytest.raises(UnsupportedConeCombination):
        is_lexicographic_sequence(ideal, alpha_pg(1), INTEGERS)
    # an everything-positive quotient: is_k_lexicographic's clause 1 skips it
    middle_all = PreorderedGroup(GroupDescriptor(DYADIC_PLUS_FREE), POSITIVE)
    q_all = PreorderedGroup(GroupDescriptor(CYCLIC_MOD, modulus=7), POSITIVE)
    for ideal in (PreorderedGroup(GroupDescriptor(DYADIC_LINE), POSITIVE), DYADIC):
        with pytest.raises(UnsupportedConeCombination):
            is_lexicographic_sequence(ideal, middle_all, q_all)


def test_k_lexicographic_on_family_invariants():
    inv_inf, _ = invariant_of(validate_family(0, [1], TailSpec("doubling", 1)))
    assert is_k_lexicographic(inv_inf)
    inv_fin, _ = invariant_of(validate_family(0, [2]))
    assert not is_k_lexicographic(inv_fin)
    inv_m8, _ = invariant_of(validate_family(8, [1]))
    assert is_k_lexicographic(inv_m8)
    inv_minf, _ = invariant_of(validate_family(INF, [3]))
    assert is_k_lexicographic(inv_minf)


def test_k_lexicographic_vacuous_when_neither_clause_applies():
    # quotient cone covers the whole group but without a full class: neither
    # the lexicographic clause nor the full-class clause has its hypothesis
    from dataclasses import replace

    inv, _ = invariant_of(validate_family(8, [1]))
    quotient = PreorderedGroup(GroupDescriptor(CYCLIC_MOD, modulus=7), ConeDescriptor(ALL_POSITIVE))
    weakened = replace(inv, quotient=quotient)
    assert is_k_lexicographic(weakened)


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
