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

from collections import namedtuple
from itertools import repeat
from operator import itemgetter

from .dyadic import INF, is_int, two_adic_valuation
from .errors import FamilyValidationError, RegimeError
from .exactlinalg import SparseMatrix

TAIL_KINDS = ("zero", "constant", "doubling")

# The largest input the spec reader (``report.spec_from_json``) accepts, in
# every spec form.  The weight N and alpha = (N + c) / 2^k then have at most
# 1000 + 10000 log10(2) < 4012 digits, so every integer a report shows stays
# below Python's default 4,300-digit limit on int-to-str conversion.
MAX_PREFIX_LENGTH = 10_000
MAX_INTEGER_DIGITS = 1_000


class TailSpec(namedtuple("TailSpec", "kind c", defaults=(None,))):
    __slots__ = ()

    def __new__(cls, kind: str, c: int | None = None):
        return cls._make((kind, c))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, not __new__, so the checks live here
        self = tuple.__new__(cls, iterable)
        kind, c = self
        if kind not in TAIL_KINDS:
            raise ValueError(f"unknown tail kind {kind!r}")
        if kind == "zero":
            if c is not None:
                raise ValueError("zero tail takes no parameter")
        elif c is not None and not is_int(c):
            raise ValueError(f"tail c must be an int, got {c!r}")
        elif c is None or c < 1:
            raise ValueError(f"{kind} tail requires c >= 1")
        return self


ZERO_TAIL = TailSpec("zero")


class FamilySpec(namedtuple("FamilySpec", "m prefix tail", defaults=(ZERO_TAIL,))):
    """A validated family member (m, prefix, tail).  The weight N, built by
    Horner's rule in the pass that checks the entries, is kept outside the
    tuple, as ``_weight``."""

    def __new__(cls, m: int | float, prefix: tuple[int, ...], tail: TailSpec = ZERO_TAIL):
        return cls._make((m, prefix, tail))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, not __new__, so the checks live here
        self = tuple.__new__(cls, iterable)
        m, prefix, tail = self
        if not (m == INF or (is_int(m) and m >= 0)):
            raise ValueError("m must be a non-negative integer or infinity")
        if type(prefix) is not tuple:
            raise ValueError(f"the prefix must be a tuple, got {prefix!r}")
        weight = 0
        for n in prefix:
            if not (type(n) is int or is_int(n)) or n < 0:
                raise ValueError("edge multiplicities must be non-negative integers")
            weight = 2 * weight + n
        self._weight = weight
        if m == 1:
            raise FamilyValidationError(
                "ConditionK", "m = 1 is excluded: the loop structure must satisfy condition (K)"
            )
        # every entry is non-negative, so N = 0 exactly when all are zero
        if tail.kind == "zero" and weight == 0:
            raise FamilyValidationError(
                "NoIdealEdge", "at least one edge multiplicity n_i must be nonzero"
            )
        if m != INF and m > 1 and tail.kind != "zero":
            raise FamilyValidationError(
                "InfiniteSum",
                "for finite m > 1 the multiplicity sum must be finite (tail must be zero)",
            )
        return self

    @property
    def has_finite_loops(self) -> bool:
        return self.m != INF and self.m > 1


def validate_family(m, prefix, tail: TailSpec = ZERO_TAIL) -> FamilySpec:
    """Build a :class:`FamilySpec`, raising :class:`FamilyValidationError`.

    Violations are reported in the fixed order ConditionK, NoIdealEdge,
    InfiniteSum (:class:`FamilySpec` checks them in that order).
    """
    return FamilySpec(m, tuple(prefix), tail)


def alpha_of(spec: FamilySpec) -> tuple[int, int] | float:
    """The exact value of sum(n_i / 2^i) as the reduced pair (p, e) meaning
    p / 2^e, p odd or e = 0; or :data:`INF` for a doubling tail.

    Over a length-k prefix the sum is N / 2^k with N the weight; a constant
    tail c adds c / 2^k, and a doubling tail a constant per term, so the sum
    diverges.  s = N + c is at least 1 for every spec, and dividing it and
    2^k by 2^min(v2(s), k) reduces s / 2^k.
    """
    if spec.tail.kind == "doubling":
        return INF
    k = len(spec.prefix)
    s = spec._weight + (spec.tail.c or 0)
    v = min(two_adic_valuation(s), k)
    return s >> v, k - v


def weight_of(spec: FamilySpec) -> tuple[int, int]:
    """Weight data (k, N) with N = sum(n_i * 2^(k-i)) over the prefix.

    k is the literal prefix length, not minimized, so padding a zero maps
    (k, N) to (k+1, 2N).  Only defined for zero tails.
    """
    if spec.tail.kind != "zero":
        raise RegimeError("weight data (k, N) requires a zero tail")
    return len(spec.prefix), spec._weight


def truncated_presentation(spec: FamilySpec, depth: int) -> SparseMatrix:
    """Relation matrix of the depth-truncated group presentation, sparse.

    Generators are ordered (w_1, ..., w_depth, v0).  Column i
    (i < depth) encodes w_i - 2 w_{i+1} = 0; the final column encodes
    sum(n_i w_i) + (m-1) v0 = 0.  Only the nonzero entries are stored, 2
    per chain column, so the matrix costs time and memory linear in the
    depth.  Requires 1 < m < infinity and depth >= k.
    """
    if not spec.has_finite_loops:
        raise RegimeError("truncated presentation requires 1 < m < infinity")
    k = len(spec.prefix)
    if depth < k:
        raise RegimeError(f"depth {depth} is below the prefix length {k}")
    chain = tuple(zip(zip(range(depth - 1), repeat(1)), zip(range(1, depth), repeat(-2))))
    last = tuple(filter(itemgetter(1), enumerate(spec.prefix))) + ((depth, spec.m - 1),)
    return SparseMatrix(depth + 1, chain + (last,))
