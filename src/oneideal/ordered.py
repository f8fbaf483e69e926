"""Decision procedures on symbolic positive cones.

Covers the lexicographic test for an ideal/middle/quotient cone triple, the
two-clause combined ordering test on a six-term invariant, and
order-isomorphism of alpha cones.  Every decision reads whole cones by their
descriptors; none asks whether one element lies in a cone.

The alpha-cone isomorphism criterion used here: two cones with parameters
a and a' are order-isomorphic iff a' lies in 2^Z * a + Z[1/2] (infinity only
matching infinity).  Every isomorphism of the underlying group restricts to
x -> 2^k x on the divisible summand (the free quotient admits no nonzero map
from it) and so has the triangular shape (x, n) -> (2^k x + b n, n) once cone
preservation fixes the signs; the test suite searches that family directly
as an independent check on the criterion.  Its power-of-two condition is
decided by :func:`.dyadic.two_power_log`, the exact witness's discrete
logarithm.
"""

from __future__ import annotations

from .dyadic import ExtendedRational, is_infinite, odd_part, two_power_log
from .errors import UnsupportedConeCombination
from .groups import (
    ALL_POSITIVE,
    ALPHA_CONE,
    STANDARD_DYADIC_CONE,
    STANDARD_INTEGER_CONE,
    PreorderedGroup,
    alpha_cone,
)


def is_lexicographic_sequence(
    ideal_pg: PreorderedGroup,
    middle_pg: PreorderedGroup,
    quotient_pg: PreorderedGroup,
) -> bool:
    """Decide whether the middle cone is the disjoint union of the strictly
    positive quotient preimage and the pushed-forward ideal cone.

    Supported: the standard dyadic cone on the ideal and the standard
    integer cone on the quotient, the only proper quotient cone in the
    family, under an alpha cone or an everything-positive middle.  Any
    other combination, an everything-positive quotient included, raises
    :class:`UnsupportedConeCombination` rather than guessing.
    """
    ic, mc, qc = ideal_pg.cone, middle_pg.cone, quotient_pg.cone
    if qc.tag == STANDARD_INTEGER_CONE and ic.tag == STANDARD_DYADIC_CONE:
        if mc.tag == ALPHA_CONE:
            # the union is exactly the alpha = infinity cone
            return is_infinite(mc.alpha)
        if mc.tag == ALL_POSITIVE:
            # the union misses (negative dyadic, 0); everything-positive cannot match
            return False
    raise UnsupportedConeCombination(
        f"no rule for cones ({ic.tag}, {mc.tag}, {qc.tag})"
    )


def is_k_lexicographic(invariant) -> bool:
    """Combined two-clause ordering condition on a six-term invariant.

    Clause (1): when the quotient cone is a proper subset of the quotient
    group, the induced cone sequence must be lexicographic.  Clause (2): when
    the quotient has everything positive including a full class, the middle
    must as well.  Both clauses are conditional, so an invariant where
    neither hypothesis holds passes vacuously.
    """
    quotient = invariant.quotient
    middle = invariant.middle
    result = True
    if quotient.cone.tag != ALL_POSITIVE:
        result = result and is_lexicographic_sequence(invariant.ideal, middle, quotient)
    if quotient.cone.tag == ALL_POSITIVE and quotient.cone.with_full_class:
        result = result and (
            middle.cone.tag == ALL_POSITIVE and middle.cone.with_full_class
        )
    return result


# --------------------------------------------------------------------------
# alpha-cone order isomorphism


def alpha_cones_isomorphic(a: ExtendedRational, b: ExtendedRational) -> bool:
    """True iff the alpha cones with parameters ``a`` and ``b`` are
    order-isomorphic: b in 2^Z * a + Z[1/2], with infinity matching only
    infinity.

    Concretely: write each parameter with reduced denominator 2^s * M0 (M0
    odd); the odd parts must agree, and the numerators must differ by a
    power of two modulo M0 (always so when M0 = 1, both being dyadic): one
    discrete logarithm by :func:`.dyadic.two_power_log`, which refuses an
    order of 2 modulo M0 past ``MAX_LOG_STEP`` squared.  A parameter
    :func:`.groups.alpha_cone` refuses raises the same ValueError here.
    """
    a, b = alpha_cone(a).alpha, alpha_cone(b).alpha
    if is_infinite(a) or is_infinite(b):
        return is_infinite(a) and is_infinite(b)
    m0 = odd_part(a.denominator)
    if m0 != odd_part(b.denominator):
        return False
    # the numerators are units modulo M0, since the fractions are in lowest terms
    return two_power_log(m0, a.numerator * pow(b.numerator, -1, m0))[1] is not None
