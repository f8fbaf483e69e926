"""The scalars of the one-ideal family's ordered K-theory invariants.

For every family member the odd K-groups vanish and the even part sits in a
short exact sequence whose outer terms are the dyadic line and either Z (no
loops / infinitely many loops) or Z/(m-1) (finitely many loops m > 1).  In
the finite-loop regime the middle group picks up a torsion summand Z/x of
order x = 2^v2(m-1) * gcd(M, N) (M the largest odd factor of m-1, N the
weight), which :func:`torsion_order` evaluates in closed form.

The defining route is the cokernel of the truncated presentation:
truncation at chain depth d presents the torsion as gcd(2^(d-k) * N, m-1),
which saturates once d - k reaches v2(m-1).  :func:`truncated_k0` reads that
cokernel off a Smith form at any depth, and :func:`stable_oracle_depth` is a
depth past saturation, where the truncation must show exactly Z/x.

The invariant has three shapes, one per regime (m = 0, finite m > 1,
m = infinity), whose only parameters are alpha, x and m - 1.  This module
computes the scalars alone (:func:`invariant_of`); :mod:`.report` holds the
three shapes, as the JSON section every report prints, and fills them.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .dyadic import odd_part, two_adic_valuation
from .errors import RegimeError, WorkLimitError
from .exactlinalg import cokernel_invariants
from .family import (
    MAX_INTEGER_DIGITS,
    MAX_PREFIX_LENGTH,
    FamilySpec,
    alpha_of,
    truncated_presentation,
    weight_of,
)

# Deepest truncation :func:`truncated_k0` builds: the largest default depth,
# max(k + 3, k + v2(m-1) + 1), of a spec the reader accepts.  There
# k <= MAX_PREFIX_LENGTH, and m - 1 <= 10**MAX_INTEGER_DIGITS - 2 has at most
# 3322 bits, so v2(m-1) <= 3321.  The presentation is sparse, so work grows
# linearly with depth: at this depth (k = 10000, m = 2**3321 + 1) `invariant`
# takes about 0.03 s and 23 MB (Python 3.11, 2-core x86).
MAX_TRUNCATION_DEPTH = MAX_PREFIX_LENGTH + (10**MAX_INTEGER_DIGITS - 2).bit_length()


# Scalar data derived from a family spec: ``alpha`` always; ``k`` and
# ``n_weight`` only for zero tails; ``x`` (middle torsion order) and ``m_odd``
# (largest odd factor of m-1) only when 1 < m < infinity.
DerivedScalars = namedtuple("DerivedScalars", "alpha k n_weight x m_odd", defaults=(None,) * 4)


def truncated_k0(spec: FamilySpec, depth: int) -> tuple[int, list[int]]:
    """Free rank and torsion of the depth-truncated even K-group.

    Builds the relation matrix and reads the cokernel off its Smith form,
    independently of the closed form in :func:`torsion_order`.  The free
    rank is 1 at every depth >= k (one chain generator survives truncation).
    A depth above :data:`MAX_TRUNCATION_DEPTH` raises :class:`WorkLimitError`
    before the matrix is built.
    """
    if depth > MAX_TRUNCATION_DEPTH:
        raise WorkLimitError(
            f"truncation depth {depth} exceeds the limit {MAX_TRUNCATION_DEPTH}"
        )
    return cokernel_invariants(truncated_presentation(spec, depth))


def stable_oracle_depth(spec: FamilySpec) -> int:
    """Smallest convenient depth past the two-adic saturation point.

    The truncated torsion equals gcd(2^(d-k) * N, m-1); it has provably
    stabilized once d - k >= v2(m-1), so depth k + v2(m-1) + 1 is safe for
    every weight.
    """
    if not spec.has_finite_loops:
        raise RegimeError("oracle depth requires 1 < m < infinity")
    return len(spec.prefix) + two_adic_valuation(spec.m - 1) + 1


def torsion_order(spec: FamilySpec) -> int:
    """Order x = 2^v2(m-1) * gcd(M, N) of the middle torsion summand (1 <= x)."""
    if not spec.has_finite_loops:
        raise RegimeError("torsion order requires 1 < m < infinity")
    _, n_weight = weight_of(spec)
    b = spec.m - 1
    return (1 << two_adic_valuation(b)) * gcd(odd_part(b), n_weight)


def invariant_of(spec: FamilySpec) -> DerivedScalars:
    """The scalars of a family member, from which, with m,
    :func:`.report.invariant_to_json` fills its ordered six-term invariant."""
    alpha = alpha_of(spec)
    x = m_odd = None
    if spec.has_finite_loops:
        x, m_odd = torsion_order(spec), odd_part(spec.m - 1)
    # k and N exist only for zero tails, the only tail a finite m > 1 takes
    k, n_weight = weight_of(spec) if spec.tail.kind == "zero" else (None, None)
    return DerivedScalars(alpha=alpha, k=k, n_weight=n_weight, x=x, m_odd=m_odd)
