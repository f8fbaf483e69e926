import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneideal import (
    FULL,
    INF,
    UNKNOWN,
    InternalConsistencyError,
    IsoWitness,
    OutOfScopeComparison,
    TailSpec,
    WorkLimitError,
    decide_fullness,
    divergence_table,
    exact_iso,
    invariant_of,
    stable_iso,
)
from oneideal.classify import (
    class_counts,
    exact_orbit_witness,
    stable_gcd_equivalent,
    stable_orbit_equivalent,
    stable_orbit_witness,
    witness_holds,
)
from oneideal.dyadic import odd_part, residue_cycle
from oneideal.family import validate_family
from oneideal.ktheory import torsion_order
from oracles import (
    burnside_exact_class_count,
    enumerated_exact_witness,
    enumerated_stable_witness,
    exact_class_partition,
    exact_witness_table,
    partitions_agree,
    stable_class_partition,
    stable_gcd_partition,
    stable_witness_table,
    walked_exact_witness,
)


def spec_mn(m, n):
    return validate_family(m, [n])


def fullness_of(spec):
    return decide_fullness(spec.m, invariant_of(spec).alpha)


def test_fullness_m8():
    v = fullness_of(spec_mn(8, 1))
    assert (v.stenotic, v.k_lexicographic, v.stabilized_full, v.unstabilized) == (
        True,
        True,
        True,
        FULL,
    )


def test_fullness_m0_finite_alpha():
    v = fullness_of(spec_mn(0, 2))
    assert (v.stenotic, v.k_lexicographic, v.stabilized_full, v.unstabilized) == (
        True,
        False,
        False,
        UNKNOWN,
    )


def test_fullness_m0_divergent_alpha():
    v = fullness_of(validate_family(0, [1], TailSpec("doubling", 1)))
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
    assert stable_orbit_equivalent(7, 1, 0) is None
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
            (a, b): stable_orbit_equivalent(modulus, a, b) is not None
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
        assert (parts[a] == parts[b]) == (stable_orbit_equivalent(modulus, a, b) is not None)
        eparts = exact_class_partition(modulus)
        assert (eparts[a] == eparts[b]) == (exact_orbit_witness(modulus, a, b) is not None)


def test_partitions_agree_helper():
    assert partitions_agree([0, 0, 1], [5, 5, 9])
    assert not partitions_agree([0, 0, 1], [5, 9, 9])
    assert partitions_agree(stable_class_partition(7), stable_gcd_partition(7))


def test_divergence_and_class_counts():
    assert class_counts(8) == (3, 2)
    assert class_counts(7) == (2, 2)
    for limit, smallest in ((20, 8), (7, None), (2, None)):
        table = divergence_table(limit)
        assert next((m for m, e, s in table if e != s), None) == smallest
    table = divergence_table(10)
    assert table[0] == (2, 1, 1)
    assert [row for row in table if row[0] == 8][0] == (8, 3, 2)
    # the sieve against the closed form, row by row; m - 1 = 9 needs the
    # order of 2 lifted from 3 (ord 2) to 9 (ord 6)
    for limit in (0, 1, 2, 3, 4, 9, 28, 3000):
        assert divergence_table(limit) == [(m, *class_counts(m)) for m in range(2, limit + 1)]


def test_divergence_table_matches_the_burnside_count():
    for m, exact, _ in divergence_table(3000):
        assert exact == burnside_exact_class_count(m), m


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


@st.composite
def lifted_weight_triples(draw):
    """(modulus, n_a, n_b) with modulus = 2^v M < 2^20, v <= 19: n_b is often
    a doubling of n_a lifted by multiples of the modulus, so that it shares
    n_a's orbit, and else any weight with the same gcd with M, or any weight."""
    v = draw(st.integers(0, 19))
    bits = draw(st.integers(1, 20 - v))
    modulus = (draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) | 1) << v
    n_a = draw(st.integers(0, 4 * modulus))
    kind = draw(st.sampled_from(("lifted", "same gcd", "any")))
    if kind == "lifted":
        n_b = (n_a << draw(st.integers(0, 40))) + draw(st.integers(0, 3)) * modulus
    elif kind == "same gcd":
        g = math.gcd(n_a, modulus >> v)
        n_b = g * draw(st.integers(0, 4 * modulus)) << draw(st.integers(0, v + 2))
    else:
        n_b = draw(st.integers(0, 4 * modulus))
    return modulus, *draw(st.permutations((n_a, n_b)))


@settings(max_examples=300)
@given(lifted_weight_triples())
def test_the_exact_witness_matches_the_orbit_walk_up_to_2_to_the_20(triple):
    assert exact_orbit_witness(*triple) == walked_exact_witness(*triple)


def test_class_counts_match_union_find():
    table = divergence_table(299)
    for m in range(2, 300):
        exact = len(set(exact_class_partition(m - 1)))
        stable = len(set(stable_class_partition(m - 1)))
        assert class_counts(m) == (exact, stable), m
        assert table[m - 2] == (m, exact, stable)


@pytest.mark.parametrize(
    "modulus, n_a, n_b, bad",
    [
        (7, 1, 3, IsoWitness(0, 0, 3)),  # 1 != 3 * 3 mod 7
        (6, 2, 2, IsoWitness(0, 0, 4)),  # 2 == 4 * 2 mod 6, but 4 is no unit
        (7, 4, 1, IsoWitness(-2, 0, 1)),  # 4 / 2^2 == 1 mod 7, but l < 0
        (7, 1, 3, None),  # no witness, but the gcd route finds 1 == 5 * 3 mod 7
    ],
)
def test_stable_witness_is_resubstituted(monkeypatch, modulus, n_a, n_b, bad):
    import oneideal.classify

    monkeypatch.setattr(oneideal.classify, "stable_orbit_witness", lambda *args: bad)
    with pytest.raises(InternalConsistencyError):
        stable_orbit_equivalent(modulus, n_a, n_b)


@pytest.mark.parametrize("modulus", [0, -1])
def test_witness_holds_rejects_a_modulus_below_one(modulus):
    with pytest.raises(ValueError):
        witness_holds(modulus, 1, 1, IsoWitness(0, 0, 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: stable_orbit_witness(0, 1, 1),
        lambda: residue_cycle(0, 1),
        lambda: exact_orbit_witness(0, 1, 1),
    ],
    ids=["stable_orbit_witness", "residue_cycle", "exact_orbit_witness"],
)
def test_the_congruence_routes_reject_modulus_zero(call):
    with pytest.raises(ValueError, match="modulus must be >= 1"):
        call()


def test_an_exact_witness_past_the_logarithm_table_is_a_work_limit():
    # 2 has order 2 * 3**599 modulo 3**600, past MAX_LOG_STEP**2
    with pytest.raises(WorkLimitError, match=f"^the order of 2 modulo {3**600} is more than "):
        exact_orbit_witness(3**600, 1, 2)


def test_a_small_logarithm_table_prices_the_order_at_its_own_modulus(monkeypatch):
    # a table of 8 entries refuses exactly the orders of 2 modulo M/g past 64,
    # the modulus the logarithm runs on: 67 and 2 * 67 (order 66) are refused
    # for weights prime to 67, answered for weights divisible by it.
    # Weights with different gcds are refused by the gcds alone, before any
    # logarithm; every answer is the walk's witness.
    import oneideal.dyadic

    monkeypatch.setattr(oneideal.dyadic, "MAX_LOG_STEP", 8)
    outcomes = set()
    for modulus in (56, 57, 60, 63, 64, 65, 66, 67, 68, 134):
        m_odd = odd_part(modulus)
        for a in range(modulus):
            for b in range(modulus):
                g = math.gcd(a, m_odd)
                if math.gcd(b, m_odd) != g:
                    assert exact_orbit_witness(modulus, a, b) is None
                    continue
                order = len(residue_cycle(m_odd // g, 1))
                try:
                    got = exact_orbit_witness(modulus, a, b)
                except WorkLimitError:
                    assert order > 64, (modulus, a, b)
                    outcomes.add(WorkLimitError)
                    continue
                assert order <= 64 and got == walked_exact_witness(modulus, a, b), (modulus, a, b)
                outcomes.add(type(got))
    assert outcomes == {IsoWitness, WorkLimitError, type(None)}
