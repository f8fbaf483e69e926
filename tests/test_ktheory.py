import random
from fractions import Fraction

import pytest

from oneideal import INF, FamilyValidationError, RegimeError, TailSpec, invariant_of
from oneideal.family import validate_family, weight_of
from oneideal.groups import (
    ALL_POSITIVE,
    ALPHA_CONE,
    DYADIC_LINE,
    GroupDescriptor,
    dyadic_plus_torsion,
)
from oneideal.ktheory import stable_oracle_depth, torsion_order, truncated_k0
from oracles import in_torsion_range, truncation_torsion_order


def test_torsion_order_anchors():
    assert torsion_order(validate_family(3, [1])) == 2
    assert torsion_order(validate_family(4, [1])) == 1
    assert torsion_order(validate_family(4, [3])) == 3


@pytest.mark.parametrize("m", [0, INF], ids=["m = 0", "m = infinity"])
@pytest.mark.parametrize("route", [torsion_order, stable_oracle_depth])
def test_the_finite_loop_routes_refuse_other_regimes(route, m):
    with pytest.raises(RegimeError):
        route(validate_family(m, [1]))


def test_an_unknown_case_tag_is_refused():
    from dataclasses import replace

    invariant, _ = invariant_of(validate_family(8, [1]))
    with pytest.raises(ValueError, match="unknown case tag 'PI-AF'"):
        replace(invariant, case_tag="PI-AF")


def test_truncated_k0_examples():
    assert truncated_k0(validate_family(3, [1]), 3) == (1, [2])
    assert truncated_k0(validate_family(4, [1]), 3) == (1, [])
    assert truncated_k0(validate_family(4, [3]), 5) == (1, [3])


def test_truncation_torsion_saturates_late_for_high_two_adic_moduli():
    # The truncated torsion is gcd(2^(depth-k) * N, m-1): its two-part keeps
    # growing until it saturates at v2(m-1), so consecutive depths near k can
    # genuinely disagree.  No window anchored at k+1 is stable in general;
    # only depths past k + v2(m-1) - v2(N) are.
    spec5 = validate_family(5, [1])
    assert truncated_k0(spec5, 2)[1] == [2]
    assert truncated_k0(spec5, 3)[1] == [4]
    assert torsion_order(spec5) == 4

    spec9 = validate_family(9, [1])
    assert truncated_k0(spec9, 3)[1] == [4]  # depth k+2
    assert truncated_k0(spec9, 4)[1] == [8]  # depth k+3 still differs
    assert torsion_order(spec9) == 8
    assert in_torsion_range(9, torsion_order(spec9))


def test_free_rank_is_one_at_every_depth():
    spec = validate_family(12, [2, 0, 5])
    for depth in range(3, 9):
        free, _ = truncated_k0(spec, depth)
        assert free == 1


def test_torsion_matches_formula_and_range_randomized():
    rng = random.Random(7)
    for _ in range(60):
        m = rng.randint(2, 60)
        prefix = [rng.randint(0, 50) for _ in range(rng.randint(1, 6))]
        try:
            spec = validate_family(m, prefix)
        except FamilyValidationError:
            continue
        x = torsion_order(spec)
        assert in_torsion_range(m, x)
        assert x == truncation_torsion_order(spec)


def test_stable_oracle_depth_bound():
    spec = validate_family(129, [1])  # m-1 = 128 = 2^7
    k, _ = weight_of(spec)
    assert stable_oracle_depth(spec) == k + 8
    assert torsion_order(spec) == 128


def test_stable_oracle_depth_reads_k_without_computing_the_weight(monkeypatch):
    import oneideal.ktheory

    def refuse(spec):
        raise AssertionError("the weight was computed")

    monkeypatch.setattr(oneideal.ktheory, "weight_of", refuse)
    assert stable_oracle_depth(validate_family(129, [1, 0, 3])) == 3 + 8


def test_invariant_m0():
    inv, scalars = invariant_of(validate_family(0, [2]))
    assert inv.case_tag == "AF-AF"
    assert inv.middle.cone.tag == ALPHA_CONE
    assert inv.middle.cone.alpha == 1
    assert inv.quotient.group.render() == "Z"
    assert inv.index_map_zero
    assert scalars.alpha == 1 and scalars.k == 1 and scalars.n_weight == 2
    assert scalars.x is None and scalars.m_odd is None


def test_invariant_m_infinite():
    inv, scalars = invariant_of(validate_family(INF, [1]))
    assert inv.case_tag == "AF-PI"
    assert inv.middle.cone.tag == ALL_POSITIVE and inv.middle.cone.with_full_class
    assert inv.quotient.cone.tag == ALL_POSITIVE
    assert scalars.alpha == Fraction(1, 2)


def test_invariant_m8_torsion_canonicalizes():
    inv, scalars = invariant_of(validate_family(8, [1]))
    # gcd(7, 1) = 1, so the middle torsion part is trivial
    assert scalars.x == 1
    assert inv.middle.group == GroupDescriptor(DYADIC_LINE)
    assert inv.quotient.group.render() == "Z/7"
    assert scalars.m_odd == 7
    assert inv.case_tag == "AF-PI"


def test_invariant_torsion_group_when_nontrivial():
    inv, scalars = invariant_of(validate_family(3, [1]))
    assert scalars.x == 2
    assert inv.middle.group == dyadic_plus_torsion(2)


def test_invariant_alpha_infinite_middle_cone():
    inv, scalars = invariant_of(validate_family(0, [1], TailSpec("doubling", 1)))
    assert inv.middle.cone.tag == ALPHA_CONE
    assert scalars.alpha == INF
    assert scalars.k is None and scalars.n_weight is None


def test_scalars_m_odd_invariants():
    for m in (3, 8, 13, 40):
        _, scalars = invariant_of(validate_family(m, [2]))
        assert scalars.m_odd % 2 == 1
        assert (m - 1) % scalars.m_odd == 0
        quotient = (m - 1) // scalars.m_odd
        assert quotient & (quotient - 1) == 0  # power of two


def test_index_map_zero_always():
    specs = [
        validate_family(0, [2]),
        validate_family(0, [1], TailSpec("doubling", 2)),
        validate_family(INF, [1]),
        validate_family(6, [1, 2]),
    ]
    for spec in specs:
        inv, _ = invariant_of(spec)
        assert inv.index_map_zero
