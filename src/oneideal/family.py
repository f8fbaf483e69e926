"""The one-ideal graph family: validation, edge-weight data, presentations.

A family member is described by a loop count ``m`` (0, an integer >= 2, or
infinity) together with edge multiplicities ``n_1, n_2, ...`` into an infinite
chain of doubling vertices.  The multiplicities are given as a finite prefix
plus a tail rule, so every regime the classification distinguishes is
expressible with finite input:

* ``zero`` tail      -- finitely many edges; weight data (k, N) is defined.
* ``constant(c)``    -- n_i = c beyond the prefix; alpha stays rational.
* ``doubling(c)``    -- n_i = c * 2^(i-k) beyond the prefix; alpha diverges.

Three hypotheses make the algebra have exactly one nontrivial ideal, and
``FamilySpec`` enforces them at construction time (in this order):
``m != 1`` (ConditionK), some ``n_i`` nonzero (NoIdealEdge), and a finite
multiplicity sum when ``1 < m < infinity`` (InfiniteSum).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dyadic import INF, ExtendedRational, is_infinite
from .errors import FamilyValidationError, RegimeError
from .exactlinalg import IntMatrix

TAIL_KINDS = ("zero", "constant", "doubling")


@dataclass(frozen=True)
class TailSpec:
    kind: str
    c: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in TAIL_KINDS:
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if self.kind == "zero":
            if self.c is not None:
                raise ValueError("zero tail takes no parameter")
        else:
            if self.c is None or self.c < 1:
                raise ValueError(f"{self.kind} tail requires c >= 1")


ZERO_TAIL = TailSpec("zero")


def constant_tail(c: int) -> TailSpec:
    return TailSpec("constant", c)


def doubling_tail(c: int) -> TailSpec:
    return TailSpec("doubling", c)


@dataclass(frozen=True)
class FamilySpec:
    """A validated family member (m, prefix, tail)."""

    m: int | float
    prefix: tuple[int, ...]
    tail: TailSpec = ZERO_TAIL

    def __post_init__(self) -> None:
        m = self.m
        if is_infinite(m):
            pass
        elif isinstance(m, int) and m >= 0:
            pass
        else:
            raise ValueError("m must be a non-negative integer or infinity")
        if any(not isinstance(n, int) or n < 0 for n in self.prefix):
            raise ValueError("edge multiplicities must be non-negative integers")
        if m == 1:
            raise FamilyValidationError(
                "ConditionK", "m = 1 is excluded: the loop structure must satisfy condition (K)"
            )
        if self.tail.kind == "zero" and all(n == 0 for n in self.prefix):
            raise FamilyValidationError(
                "NoIdealEdge", "at least one edge multiplicity n_i must be nonzero"
            )
        if not is_infinite(m) and m > 1 and self.tail.kind != "zero":
            raise FamilyValidationError(
                "InfiniteSum",
                "for finite m > 1 the multiplicity sum must be finite (tail must be zero)",
            )

    @property
    def has_finite_loops(self) -> bool:
        return not is_infinite(self.m) and self.m > 1


def validate_family(m, prefix, tail: TailSpec = ZERO_TAIL) -> FamilySpec:
    """Build a :class:`FamilySpec`, raising :class:`FamilyValidationError`.

    Violations are reported in the fixed order ConditionK, NoIdealEdge,
    InfiniteSum (the dataclass checks them in that order).
    """
    return FamilySpec(m, tuple(prefix), tail)


def trim_trailing_zeros(spec: FamilySpec) -> FamilySpec:
    """Canonical form with trailing zero multiplicities removed from the prefix.

    Kept separate from validation: weight data is taken at the literal prefix
    length, and the classification must be invariant under zero padding.
    """
    prefix = list(spec.prefix)
    while prefix and prefix[-1] == 0:
        prefix.pop()
    return FamilySpec(spec.m, tuple(prefix), spec.tail)


def pad_prefix(spec: FamilySpec, zeros: int = 1) -> FamilySpec:
    """Append zero multiplicities; doubles the weight N once per zero."""
    return FamilySpec(spec.m, spec.prefix + (0,) * zeros, spec.tail)


def alpha_of(spec: FamilySpec) -> ExtendedRational:
    """The exact value of sum(n_i / 2^i), or infinity for a doubling tail.

    A constant tail contributes c / 2^k beyond a length-k prefix; a doubling
    tail contributes a constant per term, so the sum diverges.
    """
    if spec.tail.kind == "doubling":
        return INF
    k = len(spec.prefix)
    total = sum(Fraction(n, 1 << (i + 1)) for i, n in enumerate(spec.prefix))
    if spec.tail.kind == "constant":
        total += Fraction(spec.tail.c, 1 << k)
    return total


def weight_of(spec: FamilySpec) -> tuple[int, int]:
    """Weight data (k, N) with N = sum(n_i * 2^(k-i)) over the prefix.

    k is the literal prefix length, not minimized, so padding a zero maps
    (k, N) to (k+1, 2N).  Only defined for zero tails.
    """
    if spec.tail.kind != "zero":
        raise RegimeError("weight data (k, N) requires a zero tail")
    k = len(spec.prefix)
    n_weight = 0
    for n in spec.prefix:
        n_weight = 2 * n_weight + n
    return k, n_weight


def truncated_presentation(spec: FamilySpec, depth: int) -> IntMatrix:
    """Relation matrix of the depth-truncated group presentation.

    Generators are ordered (w_1, ..., w_depth, v0); this ordering is fixed so
    unimodular transforms of the Smith form are reproducible.  Column i
    (i < depth) encodes w_i - 2 w_{i+1} = 0; the final column encodes
    sum(n_i w_i) + (m-1) v0 = 0.  Requires 1 < m < infinity and depth >= k.
    """
    if not spec.has_finite_loops:
        raise RegimeError("truncated presentation requires 1 < m < infinity")
    k = len(spec.prefix)
    if depth < k:
        raise RegimeError(f"depth {depth} is below the prefix length {k}")
    rows, cols = depth + 1, depth
    entries = [[0] * cols for _ in range(rows)]
    for j in range(depth - 1):
        entries[j][j] = 1
        entries[j + 1][j] = -2
    for i in range(depth):
        entries[i][cols - 1] = spec.prefix[i] if i < k else 0
    entries[rows - 1][cols - 1] = spec.m - 1
    return IntMatrix.from_rows(entries)
