from collections import Counter

import pytest

from oneideal import INF, RegimeError, TailSpec, invariant_of
from oneideal.family import validate_family, weight_of
from oneideal.ktheory import stable_oracle_depth, torsion_order, truncated_k0
from oneideal.report import invariant_to_json
from oracles import in_torsion_range, k_lexicographic_by_clauses
from test_golden import observed


@pytest.mark.parametrize("m", [0, INF], ids=["m = 0", "m = infinity"])
@pytest.mark.parametrize("route", [torsion_order, stable_oracle_depth])
def test_the_finite_loop_routes_refuse_other_regimes(route, m):
    with pytest.raises(RegimeError):
        route(validate_family(m, [1]))


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


def test_stable_oracle_depth_bound():
    spec = validate_family(129, [1])  # m-1 = 128 = 2^7
    k, _ = weight_of(spec)
    assert stable_oracle_depth(spec) == k + 8
    assert torsion_order(spec) == 128


def test_stable_oracle_depth_reads_k_without_computing_the_weight():
    calls = Counter()
    assert observed(calls, stable_oracle_depth, validate_family(129, [1, 0, 3])) == 3 + 8
    assert weight_of.__code__ not in calls


def invariant_and_scalars(spec):
    """The printed invariant section of ``spec`` and its scalars."""
    scalars = invariant_of(spec)
    return invariant_to_json(spec.m, scalars), scalars


def test_invariant_m0():
    inv, scalars = invariant_and_scalars(validate_family(0, [2]))
    assert inv["caseTag"] == "AF-AF"
    assert inv["middle"]["cone"] == {"alpha": "1", "tag": "AlphaCone"}
    assert inv["quotient"] == {
        "cone": {"tag": "StandardIntegerCone"}, "group": {"symbol": "Z", "tag": "FreeZ"}
    }
    assert inv["indexMapZero"]
    assert scalars.alpha == (1, 0) and scalars.k == 1 and scalars.n_weight == 2
    assert scalars.x is None and scalars.m_odd is None
    assert not k_lexicographic_by_clauses(inv)


def test_invariant_m_infinite():
    inv, scalars = invariant_and_scalars(validate_family(INF, [1]))
    assert inv["caseTag"] == "AF-PI"
    full = {"tag": "AllPositive", "withFullClass": True}
    assert inv["middle"]["cone"] == inv["quotient"]["cone"] == full
    assert inv["middle"]["group"]["symbol"] == "Z[1/2] (+) Z"
    assert scalars.alpha == (1, 1)
    assert k_lexicographic_by_clauses(inv)


def test_invariant_m8_torsion_canonicalizes():
    inv, scalars = invariant_and_scalars(validate_family(8, [1]))
    # gcd(7, 1) = 1, so the middle torsion part is trivial
    assert scalars.x == 1
    assert inv["middle"]["group"] == {"symbol": "Z[1/2]", "tag": "DyadicLine"}
    assert inv["quotient"]["group"] == {"modulus": "7", "symbol": "Z/7", "tag": "CyclicMod"}
    assert scalars.m_odd == 7
    assert inv["caseTag"] == "AF-PI"


def test_invariant_torsion_group_when_nontrivial():
    inv, scalars = invariant_and_scalars(validate_family(3, [1]))
    assert scalars.x == 2
    assert inv["middle"]["group"] == {
        "symbol": "Z[1/2] (+) Z/2", "tag": "DyadicPlusTorsion", "torsion": "2"
    }
    assert k_lexicographic_by_clauses(inv)


def test_invariant_alpha_infinite_middle_cone():
    inv, scalars = invariant_and_scalars(validate_family(0, [1], TailSpec("doubling", 1)))
    assert inv["middle"]["cone"] == {"alpha": "inf", "tag": "AlphaCone"}
    assert scalars.alpha == INF
    assert scalars.k is None and scalars.n_weight is None
    assert k_lexicographic_by_clauses(inv)


def test_scalars_m_odd_invariants():
    for m in (3, 8, 13, 40):
        scalars = invariant_of(validate_family(m, [2]))
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
        inv, _ = invariant_and_scalars(spec)
        assert inv["indexMapZero"]
