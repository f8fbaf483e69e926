"""Fullness and isomorphism decisions for the one-ideal family.

A full extension is one that is stenotic and K-lexicographic.  Every member
is stenotic, and on the family's three invariant shapes K-lexicographic
holds exactly when m != 0 or alpha = infinity (:func:`is_k_lexicographic`),
so fullness of the stabilized extension is decided from m and alpha alone.
The unstabilized extension is full whenever the algebra is not
approximately finite; in the AF regime the two notions genuinely split, so
the unstabilized verdict is only reported when the theory decides it.

Isomorphism within a fixed finite loop count m is governed by congruences on
the weight N modulo m-1: exact isomorphism is a shared value in the
multiplicative two-power orbits, stable isomorphism additionally allows a
unit factor.  Witnesses and class counts come from number theory, never
from enumerating residues, units or a two-power orbit modulo m-1; the
discrete logarithm and the factorisation they use live in :mod:`.dyadic`.
:func:`class_counts` is the closed form for one m, by trial division of the
odd part M of m-1 and of Carmichael's lambda(d) for each divisor d of M;
:func:`divergence_table` (what ``scan`` prints) computes every row up to a
limit from one smallest-prime-factor sieve instead.  Each stable verdict is
checked against the gcd with the largest odd factor of m-1, and each witness,
exact or stable, by re-substitution.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt, lcm, prod

from .dyadic import factorize, is_infinite, odd_part, two_adic_valuation, two_power_log
# unused here, but perfbench resolves residue_cycle in this module to trace it
from .dyadic import residue_cycle  # noqa: F401
from .errors import InternalConsistencyError, OutOfScopeComparison
from .family import FamilySpec, weight_of
# unused here, but perfbench resolves invariant_of in this module to trace it
from .ktheory import invariant_of  # noqa: F401

FULL = "Full"
UNKNOWN = "Unknown"

# unstabilized is FULL or UNKNOWN
FullnessVerdict = namedtuple(
    "FullnessVerdict", "stenotic k_lexicographic stabilized_full unstabilized"
)
# Exponents (l, l_prime) and unit u with 2^l N == u 2^l' N' mod m-1.
IsoWitness = namedtuple("IsoWitness", "l l_prime unit")
IsoVerdict = namedtuple("IsoVerdict", "isomorphic witness reason", defaults=(None, None))


def is_k_lexicographic(m, alpha) -> bool:
    """The paper's combined ordering condition on the invariant of the member
    with loop count ``m`` and alpha ``alpha``.

    Clause (1): when the quotient cone is proper, which happens at m = 0
    alone, the cone sequence must be lexicographic; the alpha cone is the
    lexicographic cone over the standard dyadic and integer cones exactly at
    alpha = infinity.  Clause (2): when the quotient is all-positive with a
    full class, as at every m != 0, so must the middle be, and it is.
    perfbench resolves this function in this module to trace it.
    """
    return m != 0 or is_infinite(alpha)


def decide_fullness(m, alpha) -> FullnessVerdict:
    """Fullness verdicts for the stabilized and unstabilized extensions of
    the member with loop count ``m`` and alpha ``alpha``.

    The stabilized extension is full exactly when the invariant is
    K-lexicographic (:func:`is_k_lexicographic`).  The unstabilized one is
    full whenever m != 0 (the algebra is not AF), and when m = 0 with
    divergent alpha (the ideal is then stable, so the two notions coincide).
    For m = 0 with finite alpha the ideal is not stable and the even
    K-theory cannot decide the unstabilized question, so it is reported
    unknown rather than guessed.  In this family that argument gives full
    exactly where the invariant is K-lexicographic.  Every member is
    stenotic: the family has a single nontrivial ideal, so its ideal
    lattice is linear.
    """
    k_lex = is_k_lexicographic(m, alpha)
    unstabilized = FULL if k_lex else UNKNOWN
    return FullnessVerdict(
        stenotic=True,
        k_lexicographic=k_lex,
        stabilized_full=k_lex,
        unstabilized=unstabilized,
    )


# --------------------------------------------------------------------------
# congruence layer: two-power orbits and unit orbits modulo m-1


def units_mod(modulus: int) -> list[int]:
    """Invertible residues, ascending (for modulus 1 this is [1] ~ [0]);
    only the benchmark reads this and :func:`_unit_multiples`."""
    return [u for u in range(1, modulus + 1) if gcd(u, modulus) == 1]


@lru_cache(maxsize=512)
def _unit_multiples(modulus: int, r: int) -> frozenset[int]:
    return frozenset((u * r) % modulus for u in units_mod(modulus))


def exact_orbit_witness(modulus: int, n_a: int, n_b: int) -> IsoWitness | None:
    """Smallest (by l + l', then l) exponent pair with 2^l n_a == 2^l' n_b,
    in closed form from one discrete logarithm.

    Write modulus = 2^v M with M odd.  Modulo M doubling is invertible, so
    the weights need the same gcd g with M, and then l - l' == t modulo the
    order o of 2 modulo M/g, where 2^t == (n_b/g) (n_a/g)^-1 there
    (:func:`.dyadic.two_power_log`).  Modulo 2^v, with alpha and beta the
    two-adic valuations capped at v, either both sides vanish (l >= v - alpha
    and l' >= v - beta, the pre-periods) or they share a valuation s < v:
    l - l' = beta - alpha, and the odd parts agree modulo 2^(v - s).  The
    first case is cheapest at the two values of l - l' nearest the
    difference of the pre-periods, the second at the least such s.  An
    order of 2 modulo M/g past ``dyadic.MAX_LOG_STEP`` squared raises
    :class:`WorkLimitError`.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    v = two_adic_valuation(modulus)
    m_odd = modulus >> v
    a, b = n_a % modulus, n_b % modulus
    g = gcd(a, m_odd)
    if gcd(b, m_odd) != g:
        return None
    alpha = min(v, two_adic_valuation(a or modulus))
    beta = min(v, two_adic_valuation(b or modulus))
    pre_a, pre_b = v - alpha, v - beta
    unit_modulus = m_odd // g
    r = b // g * pow(a // g, -1, unit_modulus)
    order, t = two_power_log(unit_modulus, r)
    if t is None:
        return None
    # of the values of l - l' congruent to t, below is the largest at most
    # pre_a - pre_b, which puts l at pre_a, and above the next, which puts l'
    # at pre_b; witnesses compare by (l + l', l)
    below = pre_a - pre_b - (pre_a - pre_b - t) % order
    above = below + order
    l, l_prime = pre_a, pre_a - below
    if (2 * pre_b + above, pre_b + above) < (l + l_prime, l):
        l, l_prime = pre_b + above, pre_b
    if max(alpha, beta) < v and (beta - alpha - t) % order == 0:
        s = max(alpha, beta, v - two_adic_valuation((a >> alpha) - (b >> beta) or modulus))
        if s < v and (2 * s - alpha - beta, s - alpha) < (l + l_prime, l):
            l, l_prime = s - alpha, s - beta
    return IsoWitness(l=l, l_prime=l_prime, unit=1)


def stable_orbit_witness(modulus: int, n_a: int, n_b: int) -> IsoWitness | None:
    """Smallest witness (l, l', u) with u a unit and 2^l n_a == u 2^l' n_b.

    Up to units, doubling only raises the two-adic valuation of a residue,
    capped at v = v2(modulus), so the cheapest exponents align the capped
    valuations.  Then r_a = u r_b for a unit u iff r_a and r_b have the same
    gcd g with the modulus; the solutions u are one class modulo modulus/g,
    and the witness is its smallest unit.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    v = two_adic_valuation(modulus)
    alpha, beta = (min(v, two_adic_valuation(n % modulus or modulus)) for n in (n_a, n_b))
    l, l_prime = max(0, beta - alpha), max(0, alpha - beta)
    r_a, r_b = (n_a << l) % modulus, (n_b << l_prime) % modulus
    g = gcd(r_b, modulus)
    if gcd(r_a, modulus) != g:
        return None
    step = modulus // g
    u = (r_a // g) * pow(r_b // g, -1, step) % step or step
    while gcd(u, modulus) != 1:
        u += step
    return IsoWitness(l=l, l_prime=l_prime, unit=u)


def witness_holds(modulus: int, n_a: int, n_b: int, w: IsoWitness) -> bool:
    """Re-substitution check: l, l' >= 0, u is a unit and 2^l n_a == u 2^l' n_b
    mod modulus, with the powers taken mod modulus."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    if min(w.l, w.l_prime) < 0 or gcd(w.unit, modulus) != 1:
        return False
    return (pow(2, w.l, modulus) * n_a - w.unit * pow(2, w.l_prime, modulus) * n_b) % modulus == 0


def stable_gcd_equivalent(modulus: int, n_a: int, n_b: int) -> bool:
    """Second route: equality of gcd with the largest odd factor of the modulus."""
    m_odd = odd_part(modulus)
    return gcd(n_a, m_odd) == gcd(n_b, m_odd)


def stable_orbit_equivalent(modulus: int, n_a: int, n_b: int) -> IsoWitness | None:
    """The stable witness, or None, cross-checked by the gcd route and by
    re-substituting the witness."""
    witness = stable_orbit_witness(modulus, n_a, n_b)
    by_gcd = stable_gcd_equivalent(modulus, n_a, n_b)
    holds = witness is None or witness_holds(modulus, n_a, n_b, witness)
    if (witness is not None) != by_gcd or not holds:
        raise InternalConsistencyError(
            f"stable-isomorphism routes disagree at modulus {modulus}, "
            f"weights {n_a}, {n_b}: witness {witness}, gcd {by_gcd}"
        )
    return witness


# --------------------------------------------------------------------------
# spec-level comparisons


def _iso(a: FamilySpec, b: FamilySpec, witness_of) -> IsoVerdict:
    """The verdict of ``witness_of(m - 1, N_a, N_b)``, a witness or None,
    for two members with the same finite loop count m."""
    if not (a.has_finite_loops and b.has_finite_loops):
        raise OutOfScopeComparison("isomorphism comparison is defined for 1 < m < infinity only")
    if a.m != b.m:
        return IsoVerdict(isomorphic=False, reason="m mismatch")
    (_, n_a), (_, n_b) = weight_of(a), weight_of(b)
    witness = witness_of(a.m - 1, n_a, n_b)
    return IsoVerdict(isomorphic=witness is not None, witness=witness)


def _resubstituted_exact_witness(modulus: int, n_a: int, n_b: int) -> IsoWitness | None:
    witness = exact_orbit_witness(modulus, n_a, n_b)
    # an exact witness has unit 1
    holds = witness is None or (witness.unit == 1 and witness_holds(modulus, n_a, n_b, witness))
    if not holds:
        raise InternalConsistencyError(
            f"exact witness {witness} fails re-substitution at modulus {modulus}, "
            f"weights {n_a}, {n_b}"
        )
    return witness


def exact_iso(a: FamilySpec, b: FamilySpec) -> IsoVerdict:
    """Exact isomorphism verdict: shared two-power orbit of the weights,
    the witness checked by re-substitution."""
    return _iso(a, b, _resubstituted_exact_witness)


def stable_iso(a: FamilySpec, b: FamilySpec) -> IsoVerdict:
    """Stable isomorphism verdict: unit-twisted orbit match, gcd-checked."""
    return _iso(a, b, stable_orbit_equivalent)


# --------------------------------------------------------------------------
# whole-modulus class structure


def class_counts(m: int) -> tuple[int, int]:
    """(number of exact classes, number of stable classes) of weights
    [0, m-2] at loop count m.

    With M the odd part of m-1, stable classes are the d(M) values of
    gcd(N, M).  Each exact class (weak component of n -> 2n) holds one
    cycle of doubling on the multiples of 2^v2(m-1), a copy of Z/M, so they
    are the cyclotomic cosets of 2 mod M: sum over d | M of phi(d)/ord_d(2).
    It factorises M by trial division, then lambda(d) for each divisor d of
    M to cut it down to ord_d(2); :func:`divergence_table` gives the same
    counts for every m up to a limit at once.
    """
    divisors: list[dict[int, int]] = [{}]
    for p, e in factorize(odd_part(m - 1)).items():
        divisors = [{**f, p: k} if k else f for f in divisors for k in range(e + 1)]
    exact = 0
    for f in divisors:
        d = prod(p**k for p, k in f.items())
        parts = [p ** (k - 1) * (p - 1) for p, k in f.items()]
        # ord_d(2) divides Carmichael's lambda(d); strip the primes 2 does not need
        order = lcm(*parts)
        for q in factorize(order):
            while order % q == 0 and pow(2, order // q, d) == 1:
                order //= q
        exact += prod(parts) // order
    return exact, len(divisors)


def divergence_table(limit_m: int) -> list[tuple[int, int, int]]:
    """Rows (m, exact classes, stable classes) for m in [2, limit_m], the
    values of :func:`class_counts` for every row from one sieve.

    A smallest-prime-factor list over [0, limit_m - 1] gives phi(d) and
    ord_d(2) for every odd d by multiplicativity: with p the smallest prime
    of d and q = d / p, ord_p(2) divides p - 1, which the same list
    factorises; if p divides q, ord_d(2) is ord_q(2) or p times it, and one
    power decides which; otherwise the coprime orders combine by lcm.  Then
    phi(d)/ord_d(2) is added to the exact count, and 1 to the stable count,
    of every odd multiple of d, and row m reads the counts at the odd part
    of m - 1.
    """
    top = limit_m - 1
    if top < 1:
        return []
    spf = list(range(top + 1))
    # descending, so that the smallest prime factor of each entry writes last
    for p in range(isqrt(top), 1, -1):
        spf[p * p :: p] = [p] * len(range(p * p, top + 1, p))
    phi = [1] * (top + 1)
    order = [1] * (top + 1)
    # d = 1 adds one coset and one divisor to every entry
    exact = [1] * (top + 1)
    stable = [1] * (top + 1)
    for d in range(3, top + 1, 2):
        p = spf[d]
        q = d // p
        if q == 1:
            phi[d] = o = rest = p - 1
            while rest > 1:
                r = spf[rest]
                while rest % r == 0:
                    rest //= r
                while o % r == 0 and pow(2, o // r, p) == 1:
                    o //= r
            order[d] = o
        elif q % p == 0:
            phi[d] = phi[q] * p
            order[d] = order[q] if pow(2, order[q], d) == 1 else order[q] * p
        else:
            phi[d] = phi[p] * phi[q]
            order[d] = lcm(order[p], order[q])
        cosets = phi[d] // order[d]
        for multiple in range(d, top + 1, 2 * d):
            exact[multiple] += cosets
            stable[multiple] += 1
    for even in range(2, top + 1, 2):
        exact[even] = exact[even // 2]
        stable[even] = stable[even // 2]
    return list(zip(range(2, limit_m + 1), exact[1:], stable[1:]))
