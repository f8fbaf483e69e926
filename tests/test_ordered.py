from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oneideal import (
    INF,
    ConeElement,
    ConeShapeError,
    NotDeterminedError,
    PreorderedGroup,
    UnsupportedConeCombination,
    all_positive,
    alpha_cone,
    alpha_cones_isomorphic,
    cone_contains,
    cyclic_mod,
    dyadic_line,
    dyadic_plus_free,
    free_z,
    invariant_of,
    is_k_lexicographic,
    is_lexicographic_sequence,
    lexicographic_cone,
    middle_cone_from_fullness,
    standard_dyadic_cone,
    standard_integer_cone,
    validate_family,
    doubling_tail,
)
from oneideal.groups import LEXICOGRAPHIC_CONE
from oracles import find_order_isomorphism


def alpha_pg(a):
    return PreorderedGroup(dyadic_plus_free(), alpha_cone(a))


def elem(num, exp, n):
    return ConeElement(Fraction(num, 1 << exp), n)


def test_alpha_cone_membership_examples():
    pg = alpha_pg(1)
    assert cone_contains(pg, elem(-1, 1, 1))  # -1/2 > -1
    assert not cone_contains(pg, elem(-1, 0, 1))  # interval is open at -1
    assert cone_contains(pg, elem(0, 0, 0))
    assert not cone_contains(pg, elem(-1, 3, 0))  # height 0 needs x >= 0
    assert not cone_contains(pg, elem(100, 0, -1))  # negative height never


def test_alpha_cone_infinite():
    pg = alpha_pg(INF)
    assert cone_contains(pg, elem(-(10**9), 0, 1))
    assert cone_contains(pg, elem(1, 1, 0))
    assert not cone_contains(pg, elem(-1, 1, 0))


def test_all_positive_contains_everything():
    pg = PreorderedGroup(cyclic_mod(7), all_positive(with_full_class=True))
    assert cone_contains(pg, ConeElement(Fraction(0), -3))
    assert cone_contains(pg, ConeElement(Fraction(0), 5))


def test_standard_cones():
    dy = PreorderedGroup(dyadic_line(), standard_dyadic_cone())
    assert cone_contains(dy, ConeElement(Fraction(3, 16), 0))
    assert not cone_contains(dy, ConeElement(Fraction(-3, 16), 0))
    zz = PreorderedGroup(free_z(), standard_integer_cone())
    assert cone_contains(zz, ConeElement(Fraction(0), 0))
    assert not cone_contains(zz, ConeElement(Fraction(0), -1))


def test_shape_mismatch_raises():
    dy = PreorderedGroup(dyadic_line(), standard_dyadic_cone())
    with pytest.raises(ConeShapeError):
        cone_contains(dy, ConeElement(Fraction(1), 2))
    zz = PreorderedGroup(free_z(), standard_integer_cone())
    with pytest.raises(ConeShapeError):
        cone_contains(zz, ConeElement(Fraction(1, 2), 0))
    with pytest.raises(ConeShapeError):
        PreorderedGroup(free_z(), alpha_cone(1))


def test_cone_element_rejects_a_non_dyadic_part():
    with pytest.raises(ValueError):
        ConeElement(Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        ConeElement(Fraction(5, 24), 1)
    assert ConeElement(Fraction(5, 8), 1).dyadic_part == Fraction(5, 8)


@given(
    st.sampled_from([Fraction(1), Fraction(3, 4), Fraction(1, 3), Fraction(0), Fraction(7, 5)]),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=-2, max_value=6),
)
def test_alpha_membership_matches_direct_inequality(a, num, exp, n):
    pg = alpha_pg(a)
    e = elem(num, exp, n)
    x = e.dyadic_part
    expected = (n > 0 and x > -n * a) or (n == 0 and x >= 0)
    assert cone_contains(pg, e) == expected


def test_alpha_membership_on_dense_grid():
    # > 10^3 grid points per parameter, exact rational comparison throughout
    for a in (Fraction(1), Fraction(3, 4), Fraction(1, 3)):
        pg = alpha_pg(a)
        count = 0
        for num in range(-60, 61):
            for exp in (0, 1, 3):
                for n in range(-1, 4):
                    e = elem(num, exp, n)
                    x = Fraction(num, 1 << exp)
                    expected = (n > 0 and x > -n * a) or (n == 0 and x >= 0)
                    assert cone_contains(pg, e) == expected
                    count += 1
        assert count > 1000


def test_lexicographic_sequence_decisions():
    ideal = PreorderedGroup(dyadic_line(), standard_dyadic_cone())
    quotient = PreorderedGroup(free_z(), standard_integer_cone())
    assert is_lexicographic_sequence(ideal, alpha_pg(INF), quotient)
    assert not is_lexicographic_sequence(ideal, alpha_pg(1), quotient)
    assert not is_lexicographic_sequence(ideal, alpha_pg(0), quotient)

    # everything-positive middle over a proper quotient cone cannot match
    middle_all = PreorderedGroup(dyadic_plus_free(), all_positive(True))
    assert not is_lexicographic_sequence(ideal, middle_all, quotient)

    # everything-positive throughout: needs an everything-positive ideal
    q_all = PreorderedGroup(cyclic_mod(7), all_positive(True))
    i_all = PreorderedGroup(dyadic_line(), all_positive(True))
    assert is_lexicographic_sequence(i_all, middle_all, q_all)
    assert not is_lexicographic_sequence(ideal, middle_all, q_all)


def test_lexicographic_sequence_unsupported_combination():
    ideal = PreorderedGroup(dyadic_line(), all_positive())
    quotient = PreorderedGroup(free_z(), standard_integer_cone())
    with pytest.raises(UnsupportedConeCombination):
        is_lexicographic_sequence(ideal, alpha_pg(1), quotient)


def test_k_lexicographic_on_family_invariants():
    inv_inf, _ = invariant_of(validate_family(0, [1], doubling_tail(1)))
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
    weakened = replace(
        inv, quotient=PreorderedGroup(cyclic_mod(7), all_positive(with_full_class=False))
    )
    assert is_k_lexicographic(weakened)


def test_middle_cone_from_fullness():
    ideal = PreorderedGroup(dyadic_line(), all_positive(True))
    quotient = PreorderedGroup(free_z(), standard_integer_cone())
    assert middle_cone_from_fullness("AF-PI", ideal, quotient) == all_positive(True)
    assert middle_cone_from_fullness("PI-PI", ideal, quotient) == all_positive(True)
    lex = middle_cone_from_fullness("PI-AF", ideal, quotient)
    assert lex.tag == LEXICOGRAPHIC_CONE
    assert lex == lexicographic_cone(ideal.cone, quotient.cone)
    with pytest.raises(NotDeterminedError):
        middle_cone_from_fullness("AF-AF", ideal, quotient)
    with pytest.raises(ValueError):
        middle_cone_from_fullness("XX-YY", ideal, quotient)


def test_lexicographic_cone_membership():
    cone = lexicographic_cone(all_positive(True), standard_integer_cone())
    pg = PreorderedGroup(dyadic_plus_free(), cone)
    assert cone_contains(pg, elem(-5, 0, 1))  # positive quotient image
    assert not cone_contains(pg, elem(5, 0, -1))
    assert cone_contains(pg, elem(-5, 0, 0))  # kernel, everything positive
    cone2 = lexicographic_cone(standard_dyadic_cone(), standard_integer_cone())
    pg2 = PreorderedGroup(dyadic_plus_free(), cone2)
    assert not cone_contains(pg2, elem(-5, 0, 0))
    assert cone_contains(pg2, elem(5, 0, 0))


def test_alpha_iso_examples():
    assert alpha_cones_isomorphic(Fraction(1), Fraction(5))
    assert alpha_cones_isomorphic(Fraction(1, 3), Fraction(2, 3))
    assert not alpha_cones_isomorphic(Fraction(1, 3), Fraction(1, 5))
    assert alpha_cones_isomorphic(INF, INF)
    assert not alpha_cones_isomorphic(Fraction(1), INF)
    assert not alpha_cones_isomorphic(INF, Fraction(1, 3))
    assert alpha_cones_isomorphic(Fraction(0), Fraction(7, 8))


@given(st.fractions(min_value=0, max_value=30, max_denominator=64))
def test_alpha_iso_doubling_and_dyadic_shift(a):
    assert alpha_cones_isomorphic(a, 2 * a)
    assert alpha_cones_isomorphic(a, a + Fraction(3, 8))
    assert alpha_cones_isomorphic(a, a)


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
