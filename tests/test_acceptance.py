"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines;
each test asserts everything it reports, so a failing criterion fails its
test.
"""

import json
import random
import time
from fractions import Fraction

from oneideal import (
    INF,
    FamilySpec,
    FamilyValidationError,
    TailSpec,
    decide_fullness,
    exact_iso,
    invariant_of,
    stable_iso,
)
from oneideal.classify import (
    exact_orbit_witness,
    stable_orbit_equivalent,
    witness_holds,
)
from oneideal.dyadic import two_adic_valuation
from oneideal.family import alpha_of, validate_family, weight_of
from oneideal.ktheory import torsion_order, truncated_k0
from oneideal.report import invariant_to_json
from oracles import (
    dense_presentation,
    find_order_isomorphism,
    in_torsion_range,
    k_lexicographic_by_clauses,
    stable_partition_disagreements,
    sympy_cokernel,
    walked_alpha_cones_isomorphic,
)
from test_golden import spawn


def ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {message}")


def random_valid_spec(rng: random.Random, m_low=2, m_high=200, max_len=6, max_entry=50):
    while True:
        m = rng.randint(m_low, m_high)
        prefix = [rng.randint(0, max_entry) for _ in range(rng.randint(1, max_len))]
        try:
            return validate_family(m, prefix)
        except FamilyValidationError:
            continue


def test_criterion_01_divergence_point_via_cli():
    code, out, err, elapsed = spawn("scan", "--max-m", "20", "--format", "json")
    assert code == 0, err
    data = json.loads(out)
    assert data["verdict"]["smallestDivergentM"] == "8"
    assert elapsed < 1.0, f"scan took {elapsed:.2f}s"
    ok(1, f"scan --max-m 20 reports smallest divergent m = 8 in {elapsed:.2f}s")


def test_criterion_02_m8_witness_pair():
    a = validate_family(8, [1])
    b = validate_family(8, [3])
    assert not exact_iso(a, b).isomorphic
    verdict = stable_iso(a, b)
    assert verdict.isomorphic
    w = verdict.witness
    assert witness_holds(7, 1, 3, w)  # re-substitution of u*2^l'*3 == 2^l*1 mod 7
    ok(2, f"m=8: exact(1,3)=False, stable(1,3)=True with unit witness u={w.unit}")


def test_criterion_03_orbit_vs_gcd_oracle_equivalence():
    start = time.perf_counter()
    disagreements = stable_partition_disagreements(200)
    assert disagreements == []
    # spot-check the per-pair route (which itself cross-checks both ways)
    rng = random.Random(2026)
    for _ in range(300):
        modulus = rng.randint(1, 200)
        n_a, n_b = rng.randrange(modulus), rng.randrange(modulus)
        stable_orbit_equivalent(modulus, n_a, n_b)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"
    ok(3, f"unit-orbit and gcd classifications agree for all moduli <= 200 in {elapsed:.1f}s")


def test_criterion_04_torsion_order_depth_stability_range_and_formula():
    # The truncated torsion is gcd(2^(depth-k) N, m-1); its two-part grows
    # until saturation at depth k + v2(m-1) - v2(N), so the five-depth
    # stability window starts there (see the saturation tests in
    # test_ktheory.py for why no window anchored at k+1 can work).
    rng = random.Random(20260810)
    checked = 0
    while checked < 200:
        spec = random_valid_spec(rng)
        k, n_weight = weight_of(spec)
        onset = k + max(1, two_adic_valuation(spec.m - 1) - two_adic_valuation(n_weight))
        torsions = []
        for depth in range(onset, onset + 5):
            free_rank, torsion = truncated_k0(spec, depth)
            assert free_rank == 1
            torsions.append(tuple(torsion))
        assert len(set(torsions)) == 1, f"not depth-stable for {spec}"
        x = torsions[0][0] if torsions[0] else 1
        assert in_torsion_range(spec.m, x)
        assert x == torsion_order(spec)
        checked += 1
    assert torsion_order(validate_family(3, [1])) == 2
    assert torsion_order(validate_family(4, [1])) == 1
    assert torsion_order(validate_family(4, [3])) == 3
    ok(4, "200 random specs: stable truncated torsion, in range, matches 2^v2(m-1)*gcd(M,N)")


def test_criterion_05_fullness_dichotomy_at_m0():
    rng = random.Random(5)
    finite_specs = []
    while len(finite_specs) < 12:
        prefix = [rng.randint(0, 9) for _ in range(rng.randint(1, 5))]
        try:
            finite_specs.append(validate_family(0, prefix))
        except FamilyValidationError:
            continue
    for _ in range(8):
        prefix = [rng.randint(0, 9) for _ in range(rng.randint(0, 4))]
        finite_specs.append(validate_family(0, prefix, TailSpec("constant", rng.randint(1, 6))))
    infinite_specs = [
        validate_family(0, [rng.randint(0, 9)], TailSpec("doubling", rng.randint(1, 5)))
        for _ in range(5)
    ]
    assert len(finite_specs) == 20
    for spec in finite_specs + infinite_specs:
        divergent = alpha_of(spec) == INF
        scalars = invariant_of(spec)
        verdict = decide_fullness(spec.m, scalars.alpha)
        assert verdict.stabilized_full == divergent
        assert verdict.k_lexicographic == divergent
        # the paper's two clauses, read from the printed section, agree
        assert k_lexicographic_by_clauses(invariant_to_json(spec.m, scalars)) == divergent
    ok(5, "m=0 corpus (20 finite, 5 divergent): stabilized fullness iff alpha diverges")


def test_criterion_06_everything_positive_regimes_pass_clause_two():
    rng = random.Random(6)
    specs = [
        validate_family(INF, [1]),
        validate_family(INF, [0, 3], TailSpec("constant", 2)),
        validate_family(INF, [2], TailSpec("doubling", 1)),
    ]
    for _ in range(7):
        prefix = [rng.randint(0, 9) for _ in range(3)]
        specs.append(validate_family(INF, prefix, TailSpec("constant", 1)))
    for _ in range(15):
        specs.append(random_valid_spec(rng))
    full = {"tag": "AllPositive", "withFullClass": True}
    for spec in specs:
        scalars = invariant_of(spec)
        section = invariant_to_json(spec.m, scalars)
        assert decide_fullness(spec.m, scalars.alpha).k_lexicographic
        assert k_lexicographic_by_clauses(section)
        assert section["middle"]["cone"] == section["quotient"]["cone"] == full
    ok(6, "all m = inf and 1 < m < inf specs: combined ordering test passes, middle all-positive")


def test_criterion_07_equivalence_relations_and_padding():
    for m in range(3, 21):
        modulus = m - 1
        weights = list(range(1, m - 1)) or [1]
        specs = {n: validate_family(m, [n]) for n in weights}
        exact = {}
        stable = {}
        for a in weights:
            for b in weights:
                exact[(a, b)] = exact_iso(specs[a], specs[b]).isomorphic
                stable[(a, b)] = stable_iso(specs[a], specs[b]).isomorphic
        for rel in (exact, stable):
            for a in weights:
                assert rel[(a, a)], f"not reflexive at m={m}"
                for b in weights:
                    assert rel[(a, b)] == rel[(b, a)], f"not symmetric at m={m}"
                    if not rel[(a, b)]:
                        continue
                    for c in weights:
                        if rel[(b, c)]:
                            assert rel[(a, c)], f"not transitive at m={m}"
        for a in weights:
            for b in weights:
                assert not exact[(a, b)] or stable[(a, b)], "exact must imply stable"
        # zero padding never changes any verdict
        for a in weights:
            padded = FamilySpec(m, (a, 0))
            for b in weights:
                assert exact_iso(padded, specs[b]).isomorphic == exact[(a, b)]
                assert stable_iso(padded, specs[b]).isomorphic == stable[(a, b)]
        # the congruence layer also covers weight 0 (not reachable as a spec)
        for b in range(modulus):
            exact_w = exact_orbit_witness(modulus, 0, b)
            stable_w = stable_orbit_equivalent(modulus, 0, b)
            if exact_w is not None:
                assert witness_holds(modulus, 0, b, exact_w)
                assert stable_w is not None
            if stable_w is not None:
                assert witness_holds(modulus, 0, b, stable_w)
    ok(7, "exact/stable are equivalence relations on m in [3,20]; padding changes no verdict")


def _alpha_corpus() -> list:
    values = [
        Fraction(0), Fraction(1), Fraction(2), Fraction(5), Fraction(3, 4),
        Fraction(9, 16), Fraction(7, 8), Fraction(11, 2), Fraction(13, 32),
        Fraction(1, 3), Fraction(2, 3), Fraction(4, 3), Fraction(5, 3), Fraction(7, 3),
        Fraction(1, 5), Fraction(2, 5), Fraction(3, 5), Fraction(4, 5), Fraction(6, 5),
        Fraction(1, 7), Fraction(2, 7), Fraction(3, 7), Fraction(5, 7),
        Fraction(1, 9), Fraction(2, 9), Fraction(4, 9), Fraction(7, 9),
        Fraction(1, 15), Fraction(2, 15), Fraction(4, 15), Fraction(8, 15),
        Fraction(1, 6), Fraction(5, 6), Fraction(7, 6),
        Fraction(1, 12), Fraction(5, 12), Fraction(7, 12),
        Fraction(3, 10), Fraction(7, 10), Fraction(9, 20),
        Fraction(5, 24), Fraction(11, 24),
        Fraction(9, 14), Fraction(11, 28),
        Fraction(8, 9), Fraction(13, 15), Fraction(4, 7), Fraction(10, 3),
        Fraction(17, 48),
        INF,
    ]
    assert len(values) == 50
    return values


def test_criterion_08_alpha_cone_isomorphism_suite():
    """Oracle against oracle: the walked alpha-cone isomorphism is an
    equivalence with the expected classes, and the bounded order-isomorphism
    search agrees on (1/3, 1/5).  No library route decides alpha-cone
    isomorphism until ROADMAP item 5 gives ``compare`` a verdict at m = 0
    and m = inf, so this checks the oracles, not the program."""
    corpus = _alpha_corpus()
    related = {
        (i, j): walked_alpha_cones_isomorphic(a, b)
        for i, a in enumerate(corpus)
        for j, b in enumerate(corpus)
    }
    n = len(corpus)
    for i in range(n):
        assert related[(i, i)]
        for j in range(n):
            assert related[(i, j)] == related[(j, i)]
            if not related[(i, j)]:
                continue
            for k in range(n):
                if related[(j, k)]:
                    assert related[(i, k)]
    inf_index = corpus.index(INF)
    for j in range(n):
        assert related[(inf_index, j)] == (j == inf_index)
    for a in corpus:
        if a == INF:
            continue
        assert walked_alpha_cones_isomorphic(a, 2 * a)
        for shift in (Fraction(1), Fraction(3, 8), Fraction(-5, 4)):
            assert walked_alpha_cones_isomorphic(a, a + shift)
    assert not walked_alpha_cones_isomorphic(Fraction(1, 3), Fraction(1, 5))
    assert find_order_isomorphism(Fraction(1, 3), Fraction(1, 5)) is None
    ok(8, "alpha-cone isomorphism, oracle against oracle; no library route until ROADMAP item 5")


def test_criterion_09_truncated_cokernel_matches_sympy_on_1000_random_truncations():
    rng = random.Random(9)
    for _ in range(1000):
        spec = random_valid_spec(rng, m_high=100, max_len=4)
        depth = rng.randint(len(spec.prefix), 8)
        free_rank, torsion = truncated_k0(spec, depth)
        assert (free_rank, torsion) == sympy_cokernel(dense_presentation(spec, depth))
        assert all(d > 1 for d in torsion)
        for a, b in zip(torsion, torsion[1:]):
            assert b % a == 0
    ok(9, "1000 random truncations up to 9x8: truncated_k0 = sympy's cokernel, divisibility chain")


def test_criterion_10_permanence_filter():
    rng = random.Random(10)
    specs = [
        validate_family(8, [1]),
        validate_family(0, [2]),
        validate_family(0, [1], TailSpec("doubling", 1)),
        validate_family(INF, [1]),
    ] + [random_valid_spec(rng, m_high=60) for _ in range(20)]
    for spec in specs:
        section = invariant_to_json(spec.m, invariant_of(spec))
        assert section["indexMapZero"]
        if section["quotient"]["cone"]["tag"] == "AllPositive":
            assert section["middle"]["cone"]["tag"] == "AllPositive"
    ok(10, "24 invariants: zero index map; an all-positive quotient has an all-positive middle")
