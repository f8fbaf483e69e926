import random
from dataclasses import replace

import pytest

from oneideal import (
    FULL,
    INF,
    UNKNOWN,
    InternalConsistencyError,
    IsoWitness,
    OutOfScopeComparison,
    PreorderedGroup,
    alpha_cone,
    class_counts,
    decide_fullness,
    divergence_table,
    doubling_tail,
    dyadic_plus_free,
    exact_iso,
    exact_orbit_witness,
    invariant_of,
    pad_prefix,
    permanence_check,
    smallest_divergence,
    stable_gcd_equivalent,
    stable_iso,
    stable_orbit_equivalent,
    stable_orbit_witness,
    torsion_order,
    validate_family,
    witness_holds,
)
from oneideal.dyadic import residue_cycle
from oracles import (
    enumerated_exact_witness,
    enumerated_stable_witness,
    exact_class_partition,
    exact_witness_table,
    partitions_agree,
    stable_class_partition,
    stable_gcd_partition,
    stable_partition_disagreements,
    stable_witness_table,
)


def spec_mn(m, n):
    return validate_family(m, [n])


def test_fullness_m8():
    v = decide_fullness(*invariant_of(spec_mn(8, 1)))
    assert (v.stenotic, v.k_lexicographic, v.stabilized_full, v.unstabilized) == (
        True,
        True,
        True,
        FULL,
    )


def test_fullness_m0_finite_alpha():
    v = decide_fullness(*invariant_of(spec_mn(0, 2)))
    assert (v.stenotic, v.k_lexicographic, v.stabilized_full, v.unstabilized) == (
        True,
        False,
        False,
        UNKNOWN,
    )


def test_fullness_m0_divergent_alpha():
    v = decide_fullness(*invariant_of(validate_family(0, [1], doubling_tail(1))))
    assert (v.k_lexicographic, v.stabilized_full, v.unstabilized) == (True, True, FULL)


def test_two_power_residues_examples():
    assert set(residue_cycle(7, 1)) == {1, 2, 4}
    assert set(residue_cycle(7, 3)) == {3, 6, 5}
    assert set(residue_cycle(1, 5)) == {0}


def test_exact_iso_examples():
    verdict = exact_iso(spec_mn(8, 1), spec_mn(8, 2))
    assert verdict.isomorphic
    assert (verdict.witness.l, verdict.witness.l_prime) == (1, 0)
    assert witness_holds(7, 1, 2, verdict.witness)

    assert not exact_iso(spec_mn(8, 1), spec_mn(8, 3)).isomorphic

    crossed = exact_iso(spec_mn(4, 1), spec_mn(8, 1))
    assert not crossed.isomorphic
    assert crossed.reason == "m mismatch"


def test_stable_iso_examples():
    verdict = stable_iso(spec_mn(8, 1), spec_mn(8, 3))
    assert verdict.isomorphic
    assert verdict.witness.unit == 5
    assert witness_holds(7, 1, 3, verdict.witness)

    # weight 0 is only reachable at the congruence level
    equivalent, _ = stable_orbit_equivalent(7, 1, 0)
    assert not equivalent
    assert stable_gcd_equivalent(7, 0, 0)

    same = stable_iso(spec_mn(8, 5), spec_mn(8, 5))
    assert same.isomorphic
    assert (same.witness.l, same.witness.l_prime, same.witness.unit) == (0, 0, 1)

    assert not stable_iso(spec_mn(4, 1), spec_mn(8, 1)).isomorphic


def test_out_of_scope_regimes_raise():
    with pytest.raises(OutOfScopeComparison):
        exact_iso(spec_mn(0, 2), spec_mn(0, 2))
    with pytest.raises(OutOfScopeComparison):
        stable_iso(validate_family(INF, [1]), validate_family(INF, [1]))


def test_padding_never_changes_verdicts():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(3, 20)
        n_a = rng.randint(1, m - 2) if m > 3 else 1
        n_b = rng.randint(1, m - 2) if m > 3 else 1
        a, b = spec_mn(m, n_a), spec_mn(m, n_b)
        padded = pad_prefix(a)
        assert exact_iso(a, b).isomorphic == exact_iso(padded, b).isomorphic
        assert stable_iso(a, b).isomorphic == stable_iso(padded, b).isomorphic
    # padding is itself an exact isomorphism, witnessed by one doubling
    spec = spec_mn(9, 3)
    verdict = exact_iso(spec, pad_prefix(spec))
    assert verdict.isomorphic
    assert (verdict.witness.l, verdict.witness.l_prime) == (1, 0)
    assert witness_holds(8, 3, 6, verdict.witness)


def test_equivalence_relations_small_range():
    for m in range(3, 13):
        modulus = m - 1
        weights = range(modulus)
        exact = {
            (a, b): exact_orbit_witness(modulus, a, b) is not None
            for a in weights
            for b in weights
        }
        stable = {
            (a, b): stable_orbit_equivalent(modulus, a, b)[0]
            for a in weights
            for b in weights
        }
        for rel in (exact, stable):
            for a in weights:
                assert rel[(a, a)]
                for b in weights:
                    assert rel[(a, b)] == rel[(b, a)]
                    for c in weights:
                        if rel[(a, b)] and rel[(b, c)]:
                            assert rel[(a, c)]
        # exact refines stable
        for key, value in exact.items():
            if value:
                assert stable[key]


def test_stable_iso_implies_equal_torsion_order():
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(3, 40)
        n_a = rng.randint(1, m - 2) if m > 3 else 1
        n_b = rng.randint(1, m - 2) if m > 3 else 1
        a, b = spec_mn(m, n_a), spec_mn(m, n_b)
        if stable_iso(a, b).isomorphic:
            assert torsion_order(a) == torsion_order(b)


def test_partitions_match_pairwise_semantics():
    rng = random.Random(5)
    for _ in range(50):
        modulus = rng.randint(1, 60)
        parts = stable_class_partition(modulus)
        a, b = rng.randrange(modulus), rng.randrange(modulus)
        assert (parts[a] == parts[b]) == stable_orbit_equivalent(modulus, a, b)[0]
        eparts = exact_class_partition(modulus)
        assert (eparts[a] == eparts[b]) == (exact_orbit_witness(modulus, a, b) is not None)


def test_stable_partition_routes_agree_small():
    assert stable_partition_disagreements(60) == []


def test_partitions_agree_helper():
    assert partitions_agree([0, 0, 1], [5, 5, 9])
    assert not partitions_agree([0, 0, 1], [5, 9, 9])
    assert partitions_agree(stable_class_partition(7), stable_gcd_partition(7))


def test_divergence_and_class_counts():
    assert class_counts(8) == (3, 2)
    assert class_counts(7) == (2, 2)
    assert smallest_divergence(20) == 8
    assert smallest_divergence(7) is None
    assert smallest_divergence(2) is None
    with pytest.raises(ValueError):
        smallest_divergence(1)
    table = divergence_table(10)
    assert table[0] == (2, 1, 1)
    assert [row for row in table if row[0] == 8][0] == (8, 3, 2)


@pytest.mark.parametrize(
    "route, oracle, table",
    [
        pytest.param(
            exact_orbit_witness, enumerated_exact_witness, exact_witness_table,
            id="exact_orbit_witness-enumerated_exact_witness",
        ),
        pytest.param(
            stable_orbit_witness, enumerated_stable_witness, stable_witness_table,
            id="stable_orbit_witness-enumerated_stable_witness",
        ),
    ],
)
def test_witnesses_match_the_enumerated_oracles(route, oracle, table):
    # one whole-modulus table per modulus; the pair scan, quadratic in the
    # orbit length, checks the table where it is cheap
    for modulus in range(1, 130):
        witnesses = table(modulus)
        weights = range(modulus + 3)
        for a in weights:
            for b in weights:
                expected = witnesses[a % modulus][b % modulus]
                assert route(modulus, a, b) == expected, (modulus, a, b)
                if modulus <= 40:
                    assert oracle(modulus, a, b) == expected, (modulus, a, b)


def test_class_counts_match_union_find():
    for m in range(2, 300):
        exact = len(set(exact_class_partition(m - 1)))
        stable = len(set(stable_class_partition(m - 1)))
        assert class_counts(m) == (exact, stable), m


@pytest.mark.parametrize(
    "modulus, n_a, n_b, bad",
    [
        (7, 1, 3, IsoWitness(0, 0, 3)),  # 1 != 3 * 3 mod 7
        (6, 2, 2, IsoWitness(0, 0, 4)),  # 2 == 4 * 2 mod 6, but 4 is no unit
    ],
)
def test_stable_witness_is_resubstituted(monkeypatch, modulus, n_a, n_b, bad):
    import oneideal.classify

    monkeypatch.setattr(oneideal.classify, "stable_orbit_witness", lambda *args: bad)
    with pytest.raises(InternalConsistencyError):
        stable_orbit_equivalent(modulus, n_a, n_b)


def test_permanence_check():
    inv, _ = invariant_of(spec_mn(8, 1))
    assert permanence_check(inv)
    assert not permanence_check(replace(inv, index_map_zero=False))

    bad_middle = replace(
        inv,
        middle=PreorderedGroup(dyadic_plus_free(), alpha_cone(1)),
    )
    assert not permanence_check(bad_middle)

    # a proper quotient cone places no all-positive demand on the middle
    inv0, _ = invariant_of(spec_mn(0, 2))
    assert permanence_check(inv0)
