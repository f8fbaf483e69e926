import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneideal import (
    INF,
    ConeShapeError,
    PreorderedGroup,
    TailSpec,
    UnsupportedConeCombination,
    WorkLimitError,
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
from oneideal.ordered import (
    alpha_cones_isomorphic,
    is_k_lexicographic,
    is_lexicographic_sequence,
)
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
    assert alpha_cones_isomorphic(Fraction(1), Fraction(5))
    assert alpha_cones_isomorphic(Fraction(1, 3), Fraction(2, 3))
    assert not alpha_cones_isomorphic(Fraction(1, 3), Fraction(1, 5))
    assert alpha_cones_isomorphic(INF, INF)
    assert not alpha_cones_isomorphic(Fraction(1), INF)
    assert not alpha_cones_isomorphic(INF, Fraction(1, 3))
    assert alpha_cones_isomorphic(Fraction(0), Fraction(7, 8))
    assert alpha_cones_isomorphic(1, Fraction(5))  # an int, as alpha_cone takes it


def test_alpha_iso_past_the_logarithm_table_is_a_work_limit():
    # 2 has order 2 * 3**599 modulo 3**600, past MAX_LOG_STEP**2
    with pytest.raises(WorkLimitError, match=f"^the order of 2 modulo {3**600} is more than "):
        alpha_cones_isomorphic(Fraction(1, 3**600), Fraction(2, 3**600))


@pytest.mark.parametrize(
    "a, b",
    [(0.1, 0.2), (True, 1), ("1/3", "2/3"), (Fraction(1, 3), 0.5)],
    ids=["floats", "bool", "strings", "float second"],
)
def test_alpha_iso_refuses_what_alpha_cone_refuses(a, b):
    with pytest.raises(ValueError, match="alpha cone needs a Fraction or infinity"):
        alpha_cones_isomorphic(a, b)


@given(st.fractions(min_value=0, max_value=30, max_denominator=64))
def test_alpha_iso_doubling_and_dyadic_shift(a):
    assert alpha_cones_isomorphic(a, 2 * a)
    assert alpha_cones_isomorphic(a, a + Fraction(3, 8))
    assert alpha_cones_isomorphic(a, a)


@settings(max_examples=200, derandomize=True)
@given(st.data())
def test_alpha_iso_matches_the_orbit_walk_up_to_2_to_the_20(data):
    # odd parts M0 < 2^20 of the denominators; the numerators are units mod M0
    bits = data.draw(st.integers(1, 20))
    m0 = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1
    numerators = st.integers(0, 4 * m0).filter(lambda p: math.gcd(p, m0) == 1)
    p_a = data.draw(numerators)
    p_b = data.draw(st.one_of(numerators, st.builds(lambda k: p_a << k, st.integers(0, 40))))
    other = data.draw(st.sampled_from((m0, m0 + 2)))
    a = Fraction(p_a, m0 << data.draw(st.integers(0, 5)))
    b = Fraction(p_b, other << data.draw(st.integers(0, 5)))
    assert alpha_cones_isomorphic(a, b) == walked_alpha_cones_isomorphic(a, b)


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
        assert (witness is not None) == alpha_cones_isomorphic(a, b), (a, b)
        if witness is not None and not (a == INF):
            k, shift = witness
            # found map really does carry one cone onto the other
            assert b == Fraction(2) ** k * a - shift
