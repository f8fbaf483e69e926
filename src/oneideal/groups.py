"""Symbolic group and positive-cone descriptors.

The groups showing up in the six-term invariant are drawn from a short list
(dyadic line, dyadic plus a free or torsion summand, Z, a finite cyclic
group), and their positive cones likewise.  Cones are symbolic: a tag, plus
the parameter of an alpha cone, which the decisions in :mod:`.ordered` read
by case analysis, never by enumerating elements.  A :class:`PreorderedGroup`
refuses a cone that its group cannot carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dyadic import ExtendedRational, is_infinite, is_int
from .errors import ConeShapeError

# --------------------------------------------------------------------------
# groups

DYADIC_LINE = "DyadicLine"            # Z[1/2]
DYADIC_PLUS_FREE = "DyadicPlusFree"   # Z[1/2] (+) Z
DYADIC_PLUS_TORSION = "DyadicPlusTorsion"  # Z[1/2] (+) Z/x
FREE_Z = "FreeZ"                      # Z
CYCLIC_MOD = "CyclicMod"              # Z/modulus

_GROUP_TAGS = (
    DYADIC_LINE,
    DYADIC_PLUS_FREE,
    DYADIC_PLUS_TORSION,
    FREE_Z,
    CYCLIC_MOD,
)


@dataclass(frozen=True)
class GroupDescriptor:
    tag: str
    torsion_order: int | None = None  # DyadicPlusTorsion only
    modulus: int | None = None        # CyclicMod only

    def __post_init__(self) -> None:
        if self.tag not in _GROUP_TAGS:
            raise ValueError(f"unknown group tag {self.tag!r}")
        x, modulus = self.torsion_order, self.modulus
        if self.tag == DYADIC_PLUS_TORSION:
            if not is_int(x) or x < 2:
                raise ValueError(
                    f"torsion summand needs an int order >= 2 (1 is the dyadic line), got {x!r}"
                )
        elif x is not None:
            raise ValueError("torsion_order only applies to DyadicPlusTorsion")
        if self.tag == CYCLIC_MOD:
            if not is_int(modulus) or modulus < 1:
                raise ValueError(f"cyclic group needs an int modulus >= 1, got {modulus!r}")
        elif modulus is not None:
            raise ValueError("modulus only applies to CyclicMod")

    def render(self) -> str:
        if self.tag == DYADIC_LINE:
            return "Z[1/2]"
        if self.tag == DYADIC_PLUS_FREE:
            return "Z[1/2] (+) Z"
        if self.tag == DYADIC_PLUS_TORSION:
            return f"Z[1/2] (+) Z/{self.torsion_order}"
        if self.tag == FREE_Z:
            return "Z"
        return f"Z/{self.modulus}"


def dyadic_plus_torsion(x: int) -> GroupDescriptor:
    """Z[1/2] (+) Z/x, canonicalized: x = 1 collapses to the dyadic line."""
    if not is_int(x) or x < 1:
        raise ValueError(f"torsion order must be an int >= 1, got {x!r}")
    if x == 1:
        return GroupDescriptor(DYADIC_LINE)
    return GroupDescriptor(DYADIC_PLUS_TORSION, torsion_order=x)


# --------------------------------------------------------------------------
# cones

ALL_POSITIVE = "AllPositive"
ALPHA_CONE = "AlphaCone"
STANDARD_DYADIC_CONE = "StandardDyadicCone"
STANDARD_INTEGER_CONE = "StandardIntegerCone"

_CONE_TAGS = (
    ALL_POSITIVE,
    ALPHA_CONE,
    STANDARD_DYADIC_CONE,
    STANDARD_INTEGER_CONE,
)


@dataclass(frozen=True)
class ConeDescriptor:
    """Symbolic positive cone.

    ``AllPositive(with_full_class=True)`` records that the whole group, the
    projection classes, and the norm-full projection classes coincide; it is
    attached at construction time only to groups coming from algebras with a
    norm-full properly infinite projection, never re-derived.

    ``AlphaCone(alpha)`` is the cone on the dyadic-plus-free group whose
    slice at height n > 0 is the open dyadic interval (-n*alpha, oo) and
    whose slice at height 0 is the non-negative dyadics.  At alpha = infinity
    it is the lexicographic cone over the standard dyadic and integer cones.
    """

    tag: str
    with_full_class: bool = False
    alpha: ExtendedRational | None = None

    def __post_init__(self) -> None:
        if self.tag not in _CONE_TAGS:
            raise ValueError(f"unknown cone tag {self.tag!r}")
        if self.tag == ALPHA_CONE and not (
            is_infinite(self.alpha) or isinstance(self.alpha, Fraction)
        ):
            raise ValueError(f"alpha cone needs a Fraction or infinity, got {self.alpha!r}")
        if self.tag != ALPHA_CONE and self.alpha is not None:
            raise ValueError("alpha only applies to the alpha cone")
        if not isinstance(self.with_full_class, bool):
            raise ValueError(f"with_full_class must be a bool, got {self.with_full_class!r}")
        if self.with_full_class and self.tag != ALL_POSITIVE:
            raise ValueError("with_full_class only applies to AllPositive")


def alpha_cone(alpha: ExtendedRational) -> ConeDescriptor:
    """The alpha cone of an int, a ``Fraction`` or infinity; anything else
    (a float, a bool, a string) raises ValueError rather than being rounded."""
    if is_int(alpha):
        alpha = Fraction(alpha)
    return ConeDescriptor(ALPHA_CONE, alpha=alpha)


_CONE_COMPAT = {
    ALPHA_CONE: (DYADIC_PLUS_FREE,),
    STANDARD_DYADIC_CONE: (DYADIC_LINE,),
    STANDARD_INTEGER_CONE: (FREE_Z,),
    ALL_POSITIVE: _GROUP_TAGS,
}


@dataclass(frozen=True)
class PreorderedGroup:
    group: GroupDescriptor
    cone: ConeDescriptor

    def __post_init__(self) -> None:
        if self.group.tag not in _CONE_COMPAT[self.cone.tag]:
            raise ConeShapeError(
                f"cone {self.cone.tag} cannot be attached to group {self.group.tag}"
            )

