"""Dyadic rationals, extended rationals, and the number theory of doubling.

The leaf module every layer imports, so it owns what several layers need:
the two-power orbit walk, prime factorisation and extended-value text.

A dyadic rational (an element of Z[1/2]) is a :class:`~fractions.Fraction`
whose denominator is a power of two; there is no separate type for it.
Extended rationals (a ``Fraction`` or ``math.inf``) appear wherever a
quantity may diverge; ``math.inf`` compares correctly against exact
fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf

# A finite exact value or +infinity.
ExtendedRational = Fraction | float


def is_infinite(value) -> bool:
    return value == INF


def format_extended(value) -> str:
    """"inf" for infinity, else the exact value as "p/q" (or "p" when whole)."""
    return "inf" if is_infinite(value) else str(Fraction(value))


def two_adic_valuation(n: int) -> int:
    """Largest e with 2**e dividing n; 0 for n = 0 by convention here."""
    if n == 0:
        return 0
    return (n & -n).bit_length() - 1


def odd_part(n: int) -> int:
    """n with all factors of two removed (n > 0)."""
    if n <= 0:
        raise ValueError("odd_part requires a positive integer")
    return n >> two_adic_valuation(n)


def residue_cycle(modulus: int, n: int) -> list[int]:
    """First occurrences of 2^l * n mod modulus, for l = 0, 1, ... in order.

    The sequence is eventually periodic (pre-period at most v2(modulus),
    period the multiplicative order of 2 modulo the odd part), so collecting
    until the first repeat enumerates the whole orbit.
    """
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    out: list[int] = []
    seen: set[int] = set()
    r = n % modulus
    while r not in seen:
        out.append(r)
        seen.add(r)
        r = (2 * r) % modulus
    return out


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation {p: e} of n >= 1 by trial division."""
    factors: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors
