"""Dyadic rationals, extended rationals, and the number theory of doubling.

The leaf module every layer imports, so it owns what several layers need:
the two-power orbit walk, prime factorisation and extended-value text.

A :class:`Dyadic` is stored canonically: either the exponent is 0 or the
numerator is odd, so equality is plain field equality.  Extended rationals
(a :class:`~fractions.Fraction` or ``math.inf``) appear wherever a quantity
may diverge; ``math.inf`` compares correctly against exact fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

INF = math.inf

# A finite exact value or +infinity.
ExtendedRational = Fraction | float


def is_infinite(value) -> bool:
    return value == INF


def format_extended(value) -> str:
    """"inf" for infinity, else the exact value as "p/q" (or "p" when whole)."""
    return "inf" if is_infinite(value) else str(Fraction(value))


@total_ordering
class Dyadic:
    """Exact dyadic rational numerator / 2**exponent in canonical form."""

    __slots__ = ("numerator", "exponent")

    def __init__(self, numerator: int, exponent: int = 0):
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        numerator = int(numerator)
        if numerator == 0:
            exponent = 0
        else:
            while exponent > 0 and numerator % 2 == 0:
                numerator //= 2
                exponent -= 1
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "exponent", exponent)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def from_fraction(cls, q: Fraction) -> "Dyadic":
        den = q.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise ValueError(f"{q} is not a dyadic rational")
        return cls(q.numerator, exp)

    def to_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.exponent)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exponent, other.exponent)
        num = (self.numerator << (e - self.exponent)) + (
            other.numerator << (e - other.exponent)
        )
        return Dyadic(num, e)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.numerator, self.exponent)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.numerator * other.numerator, self.exponent + other.exponent)

    def shift(self, k: int) -> "Dyadic":
        """Multiply by 2**k (k may be negative)."""
        if k >= 0:
            return Dyadic(self.numerator << k, self.exponent)
        return Dyadic(self.numerator, self.exponent - k)

    def __eq__(self, other) -> bool:
        if isinstance(other, Dyadic):
            return (self.numerator, self.exponent) == (other.numerator, other.exponent)
        if isinstance(other, (int, Fraction)):
            return self.to_fraction() == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, Dyadic):
            other = other.to_fraction()
        return self.to_fraction() < other

    def __hash__(self):
        return hash(self.to_fraction())

    def __repr__(self):
        if self.exponent == 0:
            return f"Dyadic({self.numerator})"
        return f"Dyadic({self.numerator}/2^{self.exponent})"

    def __str__(self):
        if self.exponent == 0:
            return str(self.numerator)
        return f"{self.numerator}/{1 << self.exponent}"


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
