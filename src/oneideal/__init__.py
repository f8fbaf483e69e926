"""Exact ordered K-theory invariants and classification for the one-ideal
graph family.

The family is parameterized by a loop count m (0, an integer >= 2, or
infinity) and edge multiplicities into an infinite doubling chain.  This
package computes the ordered six-term invariant, decides fullness via the
combined lexicographic ordering condition, and decides exact and stable
isomorphism within the finite-loop regime by congruence arithmetic, all in
exact integer/rational arithmetic.

The package exports what the commands call: the inputs, the five decisions,
the types they return, the report, the errors and the version.  Everything
else is imported from the module that defines it, e.g.
``from oneideal.exactlinalg import cokernel_invariants``.
"""

from .classify import (
    FULL,
    UNKNOWN,
    FullnessVerdict,
    IsoVerdict,
    IsoWitness,
    decide_fullness,
    divergence_table,
    exact_iso,
    stable_iso,
)
from .dyadic import INF
from .errors import (
    FamilyValidationError,
    InternalConsistencyError,
    OneIdealError,
    OutOfScopeComparison,
    RegimeError,
    WorkLimitError,
)
from .family import FamilySpec, TailSpec, ZERO_TAIL
from .ktheory import DerivedScalars, invariant_of
from .report import Report
from .version import __version__

__all__ = [
    "__version__",
    "FamilySpec",
    "TailSpec",
    "ZERO_TAIL",
    "INF",
    "invariant_of",
    "decide_fullness",
    "exact_iso",
    "stable_iso",
    "divergence_table",
    "DerivedScalars",
    "FullnessVerdict",
    "FULL",
    "UNKNOWN",
    "IsoVerdict",
    "IsoWitness",
    "Report",
    "OneIdealError",
    "FamilyValidationError",
    "RegimeError",
    "OutOfScopeComparison",
    "InternalConsistencyError",
    "WorkLimitError",
]
