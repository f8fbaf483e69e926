"""Symbolic group and positive-cone descriptors.

The groups showing up in the six-term invariant are drawn from a short list
(dyadic line, dyadic plus a free or torsion summand, Z, a finite cyclic
group, 0), and their positive cones likewise.  Cones are symbolic: membership
and equality are decided by case analysis, never by enumerating elements.
A group element (:class:`ConeElement`) carries its Z[1/2] part as a
``Fraction`` with a power-of-two denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dyadic import ExtendedRational, format_extended, is_infinite
from .errors import ConeShapeError

# --------------------------------------------------------------------------
# groups

DYADIC_LINE = "DyadicLine"            # Z[1/2]
DYADIC_PLUS_FREE = "DyadicPlusFree"   # Z[1/2] (+) Z
DYADIC_PLUS_TORSION = "DyadicPlusTorsion"  # Z[1/2] (+) Z/x
FREE_Z = "FreeZ"                      # Z
CYCLIC_MOD = "CyclicMod"              # Z/modulus
TRIVIAL = "Trivial"                   # 0

_GROUP_TAGS = (
    DYADIC_LINE,
    DYADIC_PLUS_FREE,
    DYADIC_PLUS_TORSION,
    FREE_Z,
    CYCLIC_MOD,
    TRIVIAL,
)


@dataclass(frozen=True)
class GroupDescriptor:
    tag: str
    torsion_order: int | None = None  # DyadicPlusTorsion only
    modulus: int | None = None        # CyclicMod only

    def __post_init__(self) -> None:
        if self.tag not in _GROUP_TAGS:
            raise ValueError(f"unknown group tag {self.tag!r}")
        if self.tag == DYADIC_PLUS_TORSION:
            if self.torsion_order is None or self.torsion_order < 2:
                raise ValueError("torsion summand needs order >= 2 (order 1 is the dyadic line)")
        elif self.torsion_order is not None:
            raise ValueError("torsion_order only applies to DyadicPlusTorsion")
        if self.tag == CYCLIC_MOD:
            if self.modulus is None or self.modulus < 1:
                raise ValueError("cyclic group needs modulus >= 1")
        elif self.modulus is not None:
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
        if self.tag == CYCLIC_MOD:
            return f"Z/{self.modulus}"
        return "0"


def dyadic_line() -> GroupDescriptor:
    return GroupDescriptor(DYADIC_LINE)


def dyadic_plus_free() -> GroupDescriptor:
    return GroupDescriptor(DYADIC_PLUS_FREE)


def dyadic_plus_torsion(x: int) -> GroupDescriptor:
    """Z[1/2] (+) Z/x, canonicalized: x = 1 collapses to the dyadic line."""
    if x < 1:
        raise ValueError("torsion order must be >= 1")
    if x == 1:
        return dyadic_line()
    return GroupDescriptor(DYADIC_PLUS_TORSION, torsion_order=x)


def free_z() -> GroupDescriptor:
    return GroupDescriptor(FREE_Z)


def cyclic_mod(modulus: int) -> GroupDescriptor:
    return GroupDescriptor(CYCLIC_MOD, modulus=modulus)


def trivial_group() -> GroupDescriptor:
    return GroupDescriptor(TRIVIAL)


# --------------------------------------------------------------------------
# cones

ALL_POSITIVE = "AllPositive"
ALPHA_CONE = "AlphaCone"
STANDARD_DYADIC_CONE = "StandardDyadicCone"
STANDARD_INTEGER_CONE = "StandardIntegerCone"
LEXICOGRAPHIC_CONE = "Lexicographic"

_CONE_TAGS = (
    ALL_POSITIVE,
    ALPHA_CONE,
    STANDARD_DYADIC_CONE,
    STANDARD_INTEGER_CONE,
    LEXICOGRAPHIC_CONE,
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
    whose slice at height 0 is the non-negative dyadics.

    ``Lexicographic(ideal_cone, quotient_cone)`` records the cone assembled
    from a strictly positive quotient part and the pushed-forward ideal cone;
    it only arises as the output of the middle-cone reconstruction.
    """

    tag: str
    with_full_class: bool = False
    alpha: ExtendedRational | None = None
    parts: tuple["ConeDescriptor", "ConeDescriptor"] | None = None

    def __post_init__(self) -> None:
        if self.tag not in _CONE_TAGS:
            raise ValueError(f"unknown cone tag {self.tag!r}")
        if self.tag == ALPHA_CONE and self.alpha is None:
            raise ValueError("alpha cone needs its parameter")
        if self.tag != ALPHA_CONE and self.alpha is not None:
            raise ValueError("alpha only applies to the alpha cone")
        if self.tag == LEXICOGRAPHIC_CONE and self.parts is None:
            raise ValueError("lexicographic cone needs its two parts")
        if self.tag != LEXICOGRAPHIC_CONE and self.parts is not None:
            raise ValueError("parts only apply to the lexicographic cone")
        if self.with_full_class and self.tag != ALL_POSITIVE:
            raise ValueError("with_full_class only applies to AllPositive")

    def render(self) -> str:
        if self.tag == ALL_POSITIVE:
            return "all-positive (full class)" if self.with_full_class else "all-positive"
        if self.tag == ALPHA_CONE:
            return f"alpha-cone({format_extended(self.alpha)})"
        if self.tag == STANDARD_DYADIC_CONE:
            return "standard dyadic cone"
        if self.tag == STANDARD_INTEGER_CONE:
            return "standard integer cone"
        return f"lexicographic({self.parts[0].render()}; {self.parts[1].render()})"


def all_positive(with_full_class: bool = False) -> ConeDescriptor:
    return ConeDescriptor(ALL_POSITIVE, with_full_class=with_full_class)


def alpha_cone(alpha: ExtendedRational) -> ConeDescriptor:
    if not is_infinite(alpha):
        alpha = Fraction(alpha)
    return ConeDescriptor(ALPHA_CONE, alpha=alpha)


def standard_dyadic_cone() -> ConeDescriptor:
    return ConeDescriptor(STANDARD_DYADIC_CONE)


def standard_integer_cone() -> ConeDescriptor:
    return ConeDescriptor(STANDARD_INTEGER_CONE)


def lexicographic_cone(ideal_cone: ConeDescriptor, quotient_cone: ConeDescriptor) -> ConeDescriptor:
    return ConeDescriptor(LEXICOGRAPHIC_CONE, parts=(ideal_cone, quotient_cone))


_CONE_COMPAT = {
    ALPHA_CONE: (DYADIC_PLUS_FREE,),
    STANDARD_DYADIC_CONE: (DYADIC_LINE,),
    STANDARD_INTEGER_CONE: (FREE_Z,),
    ALL_POSITIVE: _GROUP_TAGS,
    LEXICOGRAPHIC_CONE: _GROUP_TAGS,
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

    def render(self) -> str:
        return f"{self.group.render()} with {self.cone.render()}"


@dataclass(frozen=True)
class ConeElement:
    """Group element written as a dyadic part and an integer part.

    The dyadic part is a :class:`~fractions.Fraction` (or an int) whose
    denominator is a power of two.  The parts are read according to the group
    tag; a part that the group does not have must be zero.
    """

    dyadic_part: Fraction = Fraction(0)
    int_part: int = 0

    def __post_init__(self) -> None:
        den = self.dyadic_part.denominator
        if den & (den - 1):
            raise ValueError(f"{self.dyadic_part} is not a dyadic rational")

    def check_shape(self, group: GroupDescriptor) -> None:
        if group.tag == DYADIC_LINE and self.int_part != 0:
            raise ConeShapeError("dyadic line has no integer component")
        if group.tag in (FREE_Z, CYCLIC_MOD) and self.dyadic_part != 0:
            raise ConeShapeError(f"{group.tag} has no dyadic component")
        if group.tag == TRIVIAL and (self.int_part != 0 or self.dyadic_part != 0):
            raise ConeShapeError("trivial group has only the zero element")
