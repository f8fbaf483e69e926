import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oneideal import INF, FamilySpec, FamilyValidationError, RegimeError, TailSpec
from oneideal.exactlinalg import SparseMatrix, cokernel_invariants
from oneideal.family import alpha_of, truncated_presentation, validate_family, weight_of
from oracles import dense, dense_presentation, summed_alpha

prefixes = st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=6)


def code_of(m, prefix, tail=TailSpec("zero")) -> str:
    with pytest.raises(FamilyValidationError) as err:
        validate_family(m, prefix, tail)
    return err.value.code


def test_validation_rules_and_order():
    assert code_of(1, [1]) == "ConditionK"
    assert code_of(5, [0, 0]) == "NoIdealEdge"
    assert code_of(5, [1], TailSpec("constant", 1)) == "InfiniteSum"
    # first violated rule wins
    assert code_of(1, [0, 0]) == "ConditionK"
    assert code_of(5, [0], TailSpec("constant", 1)) == "InfiniteSum"


def test_validation_accepts_all_regimes():
    validate_family(0, [2])
    validate_family(0, [], TailSpec("constant", 3))
    validate_family(0, [1], TailSpec("doubling", 1))
    validate_family(INF, [1], TailSpec("constant", 2))
    validate_family(2, [1])


def test_tail_parameter_checks():
    with pytest.raises(ValueError):
        TailSpec("constant")
    with pytest.raises(ValueError):
        TailSpec("doubling", 0)
    with pytest.raises(ValueError):
        TailSpec("zero", 1)
    with pytest.raises(ValueError):
        validate_family(-2, [1])
    with pytest.raises(ValueError):
        validate_family(3, [-1])


@pytest.mark.parametrize(
    "build",
    [
        lambda: validate_family(False, [1]),
        lambda: validate_family(8, [True]),
        lambda: validate_family(0, [0, False, 1]),
        lambda: validate_family(0, [1], TailSpec("constant", 1.5)),
        lambda: validate_family(0, [1], TailSpec("constant", 2.0)),
        lambda: validate_family(INF, [1], TailSpec("doubling", True)),
    ],
    ids=["bool m", "bool n", "bool n after a zero", "float c", "whole float c", "bool c"],
)
def test_bools_and_floats_are_not_read_as_integers(build):
    with pytest.raises(ValueError, match="must be"):
        build()


@pytest.mark.parametrize("prefix", [[True], [-1], [1, -1], [0, False]])
def test_a_bad_entry_is_refused_before_condition_k(prefix):
    with pytest.raises(ValueError, match="edge multiplicities must be non-negative integers"):
        validate_family(1, prefix)


@pytest.mark.parametrize("length", [0, 1, 3, 64])
@pytest.mark.parametrize("m", [0, 5, INF])
def test_an_all_zero_prefix_needs_a_tail(m, length):
    assert code_of(m, [0] * length) == "NoIdealEdge"
    if not 1 < m < INF:  # a finite m > 1 takes only the zero tail
        spec = validate_family(m, [0] * length, TailSpec("constant", 1))
        assert alpha_of(spec) == (1, length)


@pytest.mark.parametrize(
    "spec, text",
    [
        (
            validate_family(9, [1, 0, 3]),
            "FamilySpec(m=9, prefix=(1, 0, 3), tail=TailSpec(kind='zero', c=None))",
        ),
        (
            validate_family(INF, [0, 2], TailSpec("constant", 3)),
            "FamilySpec(m=inf, prefix=(0, 2), tail=TailSpec(kind='constant', c=3))",
        ),
    ],
)
def test_the_stored_weight_leaves_equality_hash_and_repr_alone(spec, text):
    twin = FamilySpec(spec.m, tuple(list(spec.prefix)), spec.tail)
    assert twin == spec and hash(twin) == hash(spec)
    assert repr(spec) == text
    # equal weights, different prefixes
    assert validate_family(9, [1, 0]) != validate_family(9, [0, 2])


def test_a_prefix_that_is_not_a_tuple_is_refused():
    # a list would leave the frozen spec unhashable and break padding
    with pytest.raises(ValueError, match="prefix must be a tuple"):
        FamilySpec(0, [1])
    spec = validate_family(0, [1])
    assert spec.prefix == (1,)
    assert FamilySpec(spec.m, spec.prefix + (0,), spec.tail).prefix == (1, 0)
    assert hash(spec) == hash(FamilySpec(0, (1,)))


@pytest.mark.parametrize(
    "value, field, bad",
    [
        (validate_family(8, [1]), "m", 1),
        (validate_family(8, [1]), "prefix", [1]),
        (validate_family(0, [1]), "prefix", (0, 0)),
        (validate_family(8, [1]), "tail", TailSpec("constant", 1)),
        (TailSpec("constant", 2), "c", 0),
        (SparseMatrix(2, ()), "rows", True),
    ],
    ids=["spec m", "spec prefix list", "spec prefix zero", "spec tail", "tail c", "matrix rows"],
)
def test_replacing_a_field_raises_what_the_constructor_raises(value, field, bad):
    with pytest.raises(Exception) as built:
        type(value)(**{**value._asdict(), field: bad})
    with pytest.raises(type(built.value), match=re.escape(str(built.value))):
        value._replace(**{field: bad})


def test_alpha_examples():
    # alpha is the reduced pair (p, e) meaning p / 2^e, p odd or e = 0
    assert alpha_of(validate_family(0, [2])) == (1, 0)
    assert alpha_of(validate_family(0, [1, 1])) == (3, 2)
    assert alpha_of(validate_family(0, [1], TailSpec("doubling", 1))) == INF
    # constant tail beyond a length-k prefix contributes c / 2^k: 1/2 + 3/2
    spec = validate_family(0, [1], TailSpec("constant", 3))
    assert alpha_of(spec) == (2, 0)
    assert alpha_of(validate_family(0, [], TailSpec("constant", 1))) == (1, 0)
    # the reduction stops at e = 0, so an even whole alpha keeps its twos
    assert alpha_of(validate_family(0, [], TailSpec("constant", 4))) == (4, 0)
    assert alpha_of(validate_family(0, [4])) == (2, 0)


@settings(max_examples=100)
@given(
    st.sampled_from([0, INF, 2, 9, 2**61]),
    st.lists(st.integers(min_value=0, max_value=2**40), max_size=40),
    st.sampled_from(["zero", "constant", "doubling"]),
    st.integers(min_value=1, max_value=2**40),
)
def test_alpha_matches_the_summed_series(m, prefix, kind, c):
    if 1 < m < INF:
        kind = "zero"  # the only tail with a finite multiplicity sum
    assume(kind != "zero" or any(prefix))
    spec = FamilySpec(m, tuple(prefix), TailSpec(kind, None if kind == "zero" else c))
    if kind == "doubling":
        assert alpha_of(spec) == summed_alpha(spec) == INF
        return
    p, e = alpha_of(spec)
    assert p % 2 == 1 or e == 0, "the pair is reduced"
    assert Fraction(p, 2**e) == summed_alpha(spec)


def test_weight_examples():
    assert weight_of(validate_family(5, [1, 0, 3])) == (3, 7)
    assert weight_of(validate_family(5, [1])) == (1, 1)
    assert weight_of(validate_family(5, [1, 0])) == (2, 2)


def test_weight_requires_zero_tail():
    with pytest.raises(RegimeError):
        weight_of(validate_family(0, [1], TailSpec("constant", 1)))


@given(prefixes, prefixes, st.integers(min_value=0, max_value=3))
def test_a_new_prefix_gets_its_own_weight(prefix, other, zeros):
    assume(any(prefix) and any(other))
    spec = validate_family(7, prefix)._replace(prefix=tuple(other))
    k, n = weight_of(spec)
    assert (k, n) == (len(other), summed_alpha(spec) * 2**k)
    padded = FamilySpec(spec.m, spec.prefix + (0,) * zeros, spec.tail)
    assert weight_of(padded) == (k + zeros, n << zeros)


@given(prefixes)
def test_padding_preserves_alpha(prefix):
    try:
        spec = validate_family(0, prefix)
    except FamilyValidationError:
        return
    assert alpha_of(FamilySpec(spec.m, spec.prefix + (0,), spec.tail)) == alpha_of(spec)


def test_presentation_direct_transcription():
    spec = validate_family(3, [1])
    assert dense(truncated_presentation(spec, 1)) == sympy.Matrix([[1], [2]])


def test_presentation_matrix_layout():
    spec = validate_family(4, [1, 0, 3])
    m = truncated_presentation(spec, 4)
    assert (m.rows, len(m.columns)) == (5, 4)
    assert m.columns[0] == ((0, 1), (1, -2))  # only the nonzero entries are stored
    assert dense(m) == sympy.Matrix([
        [1, 0, 0, 1],
        [-2, 1, 0, 0],
        [0, -2, 1, 3],
        [0, 0, -2, 0],
        [0, 0, 0, 3],
    ])


@given(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=50),
    st.lists(st.integers(min_value=0, max_value=2**70), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=45),
)
def test_sparse_presentation_is_the_dense_layout(v, odd, prefix, extra):
    """Depths from k to past the stable depth, with m - 1 = 2^v * odd."""
    try:
        spec = validate_family(((2 * odd + 1) << v) + 1, prefix)
    except FamilyValidationError:
        return
    depth = len(prefix) + extra
    assert dense(truncated_presentation(spec, depth)) == dense_presentation(spec, depth)


def test_presentation_residual_relation_after_elimination():
    # eliminating w_i = 2 w_{i+1} leaves (2^(depth-k) N, m-1) on (w_depth, v0)
    spec = validate_family(3, [1])
    free, torsion = cokernel_invariants(truncated_presentation(spec, 3))
    assert (free, torsion) == (1, [2])  # Z^2/<(4,2)>
    spec = validate_family(4, [3])
    free, torsion = cokernel_invariants(truncated_presentation(spec, 3))
    assert (free, torsion) == (1, [3])  # Z^2/<(12,3)>


def test_presentation_regime_errors():
    with pytest.raises(RegimeError):
        truncated_presentation(validate_family(0, [1]), 3)
    with pytest.raises(RegimeError):
        truncated_presentation(validate_family(INF, [1]), 3)
    with pytest.raises(RegimeError):
        truncated_presentation(validate_family(3, [1, 1]), 1)


@given(st.integers(min_value=2, max_value=60), prefixes, st.integers(min_value=0, max_value=3))
def test_presentation_torsion_stable_past_saturation_depth(m, prefix, extra):
    """Cokernel torsion agrees between consecutive depths once past the
    two-adic saturation point k + v2(m-1) - v2(N)."""
    from oneideal.ktheory import stable_oracle_depth

    try:
        spec = validate_family(m, prefix)
    except FamilyValidationError:
        return
    depth = stable_oracle_depth(spec) + extra
    _, t1 = cokernel_invariants(truncated_presentation(spec, depth))
    _, t2 = cokernel_invariants(truncated_presentation(spec, depth + 1))
    assert t1 == t2
