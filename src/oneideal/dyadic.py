"""Dyadic rationals, extended rationals, and the number theory of doubling.

The module every layer imports (it imports only the errors), so it owns
what several layers need: the integer rule :func:`is_int`, the discrete
logarithm to base 2 (:func:`two_power_log`, which finds orders of 2 up
to :data:`MAX_LOG_STEP` squared), prime factorisation and extended-value text.

A dyadic rational (an element of Z[1/2]) is a :class:`~fractions.Fraction`
whose denominator is a power of two; there is no separate type for it.
Extended rationals (a ``Fraction`` or ``math.inf``) appear wherever a
quantity may diverge; ``math.inf`` compares correctly against exact
fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import WorkLimitError

INF = math.inf

# two_power_log's table stops at this many entries: it finds every order of 2 up to 2048**2 and
# refuses the rest.  The slowest refusal, at 1000 digits, takes 50-85 ms (Python 3.11, 2-core x86).
MAX_LOG_STEP = 2048

# A finite exact value or +infinity.
ExtendedRational = Fraction | float


def is_int(value) -> bool:
    """An int that is not a bool: the one integer rule every layer checks."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_infinite(value) -> bool:
    # the type test first, so a Fraction is never compared with a float
    return isinstance(value, float) and value == INF


def format_extended(value) -> str:
    """"inf" for infinity, the one float it can be, else "p/q" (or "p" when whole)."""
    return "inf" if isinstance(value, float) else str(value)


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
    until the first repeat enumerates the whole orbit, in time and memory
    linear in its length.  No command walks an orbit; the tests check
    :func:`two_power_log` against this.
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


def two_power_log(modulus: int, r: int) -> tuple[int, int | None]:
    """(o, t): the order o of 2 modulo the odd ``modulus``, and the least
    t >= 0 with 2^t == r, or None if r is no power of 2.

    Baby-step giant-step (Shanks, 1971), with no factorisation: a table of
    2^j for j below a step s finds o among 1, ..., s^2 by giant steps of
    2^s, and s starts at 8 and grows fourfold, up to :data:`MAX_LOG_STEP`,
    until it does; the same table then finds t by giant steps of 2^-s from
    r.  The work is O(sqrt(o)).

    An order past MAX_LOG_STEP^2 raises :class:`WorkLimitError`, whatever
    the size of ``modulus``.
    """
    if modulus < 1 or modulus % 2 == 0:
        raise ValueError("two_power_log needs an odd modulus >= 1")
    powers: dict[int, int] = {}
    x = 1 % modulus
    step = 8
    while True:
        for j in range(len(powers), step):
            if x in powers:  # 2^j == 1
                order = j
                break
            powers[x] = j
            x = 2 * x % modulus
        else:
            order = None
            y = x  # 2^step
            for i in range(1, step + 1):
                if y in powers:
                    order = i * step - powers[y]
                    break
                y = y * x % modulus
        if order is not None or step >= MAX_LOG_STEP:
            break
        step = min(4 * step, MAX_LOG_STEP)
    if order is None:
        raise WorkLimitError(
            f"the order of 2 modulo {modulus} is more than {step * step}, "
            f"past the {step}-entry table of the discrete logarithm"
        )
    size = len(powers)
    back = pow(2, -size, modulus)
    y = r % modulus
    for i in range(0, order, size):
        if y in powers:
            return order, i + powers[y]
        y = y * back % modulus
    return order, None


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
