"""Exact ordered K-theory invariants and classification for the one-ideal
graph family.

The family is parameterized by a loop count m (0, an integer >= 2, or
infinity) and edge multiplicities into an infinite doubling chain.  This
package computes the ordered six-term invariant, decides fullness via the
combined lexicographic ordering test, and decides exact and stable
isomorphism within the finite-loop regime by congruence arithmetic, all in
exact integer/rational arithmetic.
"""

from .classify import (
    FULL,
    UNKNOWN,
    FullnessVerdict,
    IsoVerdict,
    IsoWitness,
    class_counts,
    decide_fullness,
    divergence_table,
    exact_iso,
    exact_orbit_witness,
    permanence_check,
    stable_gcd_equivalent,
    stable_iso,
    stable_orbit_equivalent,
    stable_orbit_witness,
    witness_holds,
)
from .dyadic import INF, is_infinite, odd_part, two_adic_valuation
from .errors import (
    ConeShapeError,
    FamilyValidationError,
    InternalConsistencyError,
    NotDeterminedError,
    OneIdealError,
    OutOfScopeComparison,
    RegimeError,
    UnsupportedConeCombination,
    WorkLimitError,
)
from .exactlinalg import (
    IntMatrix,
    SmithForm,
    SparseMatrix,
    cokernel_invariants,
    smith_normal_form,
)
from .family import (
    FamilySpec,
    TailSpec,
    ZERO_TAIL,
    alpha_of,
    truncated_presentation,
    validate_family,
    weight_of,
)
from .groups import (
    ConeDescriptor,
    ConeElement,
    GroupDescriptor,
    PreorderedGroup,
    alpha_cone,
    dyadic_plus_torsion,
)
from .ktheory import (
    DerivedScalars,
    SixTermInvariant,
    invariant_of,
    stable_oracle_depth,
    torsion_order,
    torsion_range,
    truncated_k0,
)
from .ordered import (
    alpha_cones_isomorphic,
    cone_contains,
    is_k_lexicographic,
    is_lexicographic_sequence,
    middle_cone_from_fullness,
)
from .report import Report
from .version import __version__

__all__ = [
    "__version__",
    "INF",
    "FULL",
    "UNKNOWN",
    "ZERO_TAIL",
    "ConeDescriptor",
    "ConeElement",
    "ConeShapeError",
    "DerivedScalars",
    "FamilySpec",
    "FamilyValidationError",
    "FullnessVerdict",
    "GroupDescriptor",
    "IntMatrix",
    "InternalConsistencyError",
    "IsoVerdict",
    "IsoWitness",
    "NotDeterminedError",
    "OneIdealError",
    "OutOfScopeComparison",
    "PreorderedGroup",
    "RegimeError",
    "Report",
    "SixTermInvariant",
    "SmithForm",
    "SparseMatrix",
    "TailSpec",
    "UnsupportedConeCombination",
    "WorkLimitError",
    "alpha_cone",
    "alpha_cones_isomorphic",
    "alpha_of",
    "class_counts",
    "cokernel_invariants",
    "cone_contains",
    "decide_fullness",
    "divergence_table",
    "dyadic_plus_torsion",
    "exact_iso",
    "exact_orbit_witness",
    "invariant_of",
    "is_infinite",
    "is_k_lexicographic",
    "is_lexicographic_sequence",
    "middle_cone_from_fullness",
    "odd_part",
    "permanence_check",
    "smith_normal_form",
    "stable_gcd_equivalent",
    "stable_iso",
    "stable_oracle_depth",
    "stable_orbit_equivalent",
    "stable_orbit_witness",
    "torsion_order",
    "torsion_range",
    "truncated_k0",
    "truncated_presentation",
    "two_adic_valuation",
    "validate_family",
    "weight_of",
    "witness_holds",
]
