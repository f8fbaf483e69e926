"""Decision procedures on symbolic positive cones.

Covers cone membership, the lexicographic test for an ideal/middle/quotient
cone triple, the two-clause combined ordering test on a six-term invariant,
order-isomorphism of alpha cones, and reconstruction of the middle cone from
the ideal and quotient cones.

The alpha-cone isomorphism criterion used here: two cones with parameters
a and a' are order-isomorphic iff a' lies in 2^Z * a + Z[1/2] (infinity only
matching infinity).  Every isomorphism of the underlying group restricts to
x -> 2^k x on the divisible summand (the free quotient admits no nonzero map
from it) and so has the triangular shape (x, n) -> (2^k x + b n, n) once cone
preservation fixes the signs; the test suite searches that family directly
as an independent check on the criterion.  Its power-of-two condition is
decided by :func:`.dyadic.residue_cycle`, the exact witness's orbit walk.
"""

from __future__ import annotations

from fractions import Fraction

from .dyadic import ExtendedRational, is_infinite, odd_part, residue_cycle
from .errors import ConeShapeError, NotDeterminedError, UnsupportedConeCombination
from .groups import (
    ALL_POSITIVE,
    ALPHA_CONE,
    LEXICOGRAPHIC_CONE,
    STANDARD_DYADIC_CONE,
    STANDARD_INTEGER_CONE,
    ConeDescriptor,
    ConeElement,
    PreorderedGroup,
    all_positive,
    lexicographic_cone,
)


def cone_contains(pg: PreorderedGroup, element: ConeElement) -> bool:
    """Exact membership of ``element`` in the positive cone of ``pg``."""
    element.check_shape(pg.group)
    cone = pg.cone
    if cone.tag == ALL_POSITIVE:
        return True
    if cone.tag == STANDARD_DYADIC_CONE:
        return element.dyadic_part >= 0
    if cone.tag == STANDARD_INTEGER_CONE:
        return element.int_part >= 0
    if cone.tag == ALPHA_CONE:
        n = element.int_part
        if n > 0:
            return True if is_infinite(cone.alpha) else element.dyadic_part > -n * cone.alpha
        if n == 0:
            return element.dyadic_part >= 0
        return False
    # lexicographic: strictly positive quotient part, or ideal-positive kernel
    ideal_cone, quotient_cone = cone.parts
    n = element.int_part
    if n == 0:
        if ideal_cone.tag == ALL_POSITIVE:
            return True
        if ideal_cone.tag == STANDARD_DYADIC_CONE:
            return element.dyadic_part >= 0
        raise ConeShapeError(f"unsupported ideal part {ideal_cone.tag} in lexicographic cone")
    if quotient_cone.tag in (STANDARD_INTEGER_CONE, ALL_POSITIVE):
        # either way the nonzero image must be a positive quotient class
        return n > 0 if quotient_cone.tag == STANDARD_INTEGER_CONE else True
    raise ConeShapeError(f"unsupported quotient part {quotient_cone.tag} in lexicographic cone")


def is_lexicographic_sequence(
    ideal_pg: PreorderedGroup,
    middle_pg: PreorderedGroup,
    quotient_pg: PreorderedGroup,
) -> bool:
    """Decide whether the middle cone is the disjoint union of the strictly
    positive quotient preimage and the pushed-forward ideal cone.

    Only the cone combinations realized by this family (and their nearby
    degenerations) are supported; anything else raises
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
        if mc.tag == LEXICOGRAPHIC_CONE:
            return mc.parts == (ic, qc)
    if qc.tag == ALL_POSITIVE and mc.tag == ALL_POSITIVE:
        # union = (middle minus kernel) | pushed ideal cone; equality needs
        # the whole kernel, i.e. an everything-positive ideal
        if ic.tag == ALL_POSITIVE:
            return True
        if ic.tag == STANDARD_DYADIC_CONE:
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


def middle_cone_from_fullness(
    case_tag: str,
    ideal_pg: PreorderedGroup,
    quotient_pg: PreorderedGroup,
) -> ConeDescriptor:
    """Middle cone forced by fullness, given the ideal/quotient case.

    AF-PI and PI-PI force everything positive with a full class; PI-AF forces
    the lexicographic cone over the ideal and quotient cones.  In the AF-AF
    case the middle cone is genuinely not determined by the outer two and
    :class:`NotDeterminedError` is raised.
    """
    if case_tag in ("AF-PI", "PI-PI"):
        return all_positive(with_full_class=True)
    if case_tag == "PI-AF":
        return lexicographic_cone(ideal_pg.cone, quotient_pg.cone)
    if case_tag == "AF-AF":
        raise NotDeterminedError(
            "AF-AF: the middle cone is not determined by the ideal and quotient cones"
        )
    raise ValueError(f"unknown case tag {case_tag!r}")


# --------------------------------------------------------------------------
# alpha-cone order isomorphism


def alpha_cones_isomorphic(a: ExtendedRational, b: ExtendedRational) -> bool:
    """True iff the alpha cones with parameters ``a`` and ``b`` are
    order-isomorphic: b in 2^Z * a + Z[1/2], with infinity matching only
    infinity.

    Concretely: write each parameter with reduced denominator 2^s * M0 (M0
    odd); the odd parts must agree, and the numerators must differ by a
    power of two modulo M0 (always so when M0 = 1, both being dyadic).  Cost
    is the multiplicative order of 2 modulo M0, fine for desk-scale
    denominators.
    """
    if is_infinite(a) or is_infinite(b):
        return is_infinite(a) and is_infinite(b)
    fa, fb = Fraction(a), Fraction(b)
    m0 = odd_part(fa.denominator)
    if m0 != odd_part(fb.denominator):
        return False
    return fa.numerator % m0 in residue_cycle(m0, fb.numerator)
