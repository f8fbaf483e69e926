"""Decision procedures on symbolic positive cones.

Covers the lexicographic test for an ideal/middle/quotient cone triple and
the two-clause combined ordering test on a six-term invariant.  Every
decision reads whole cones by their descriptors; none asks whether one
element lies in a cone.
"""

from __future__ import annotations

from .dyadic import is_infinite
from .errors import UnsupportedConeCombination
from .groups import (
    ALL_POSITIVE,
    ALPHA_CONE,
    STANDARD_DYADIC_CONE,
    STANDARD_INTEGER_CONE,
    PreorderedGroup,
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

