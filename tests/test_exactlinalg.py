import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneideal import FamilyValidationError
from oneideal.exactlinalg import IntMatrix, SparseMatrix, cokernel_invariants, smith_normal_form
from oneideal.family import truncated_presentation, validate_family
from oneideal.ktheory import stable_oracle_depth
from oracles import (
    dense,
    dense_cokernel_invariants,
    dense_presentation,
    determinant,
    identity,
    matmul,
    matrix,
    sparse,
)


def snf_contract_holds(m: IntMatrix) -> None:
    snf = smith_normal_form(m)
    assert matmul(matmul(snf.U, m), snf.V) == snf.S
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1
    diag = snf.S.diagonal()
    # off-diagonal zero
    for i in range(snf.S.rows):
        for j in range(snf.S.cols):
            if i != j:
                assert snf.S.at(i, j) == 0
    # non-negative, divisibility chain, zeros trailing
    for d in diag:
        assert d >= 0
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


@pytest.mark.parametrize("bad", [1.5, "3", True])
def test_the_constructor_checks_every_entry_not_only_the_first(bad):
    with pytest.raises(ValueError, match="entries must be integers"):
        IntMatrix(2, 2, (1, 3, 2, bad))


@pytest.mark.parametrize("bad", [1.5, "3", True])
def test_the_constructor_rejects_an_entry_that_is_not_an_int(bad):
    with pytest.raises(ValueError, match="entries must be integers"):
        IntMatrix(2, 2, (bad, 3, 1, 2))


def test_the_constructor_rejects_entries_that_are_not_a_tuple():
    # a list would leave the frozen matrix unhashable
    with pytest.raises(ValueError, match="must be a tuple"):
        IntMatrix(1, 2, [1, 2])


@pytest.mark.parametrize(
    "columns",
    [
        (((0, 1.5),),),
        (((0, True),),),
        (((2, 1),),),
        (((1, 1), (0, 1)),),
        (((0, 1), (0, 2)),),
        ([(0, 1)],),
        ((5,),),
        (((0, 1, 2),),),
        (([0, 1],),),
        [((0, 1),)],
    ],
    ids=[
        "float entry",
        "bool entry",
        "row past the end",
        "rows decrease",
        "row twice",
        "list column",
        "item not a pair",
        "item of three",
        "list item",
        "list of columns",
    ],
)
def test_sparse_matrix_rejects_a_malformed_column(columns):
    with pytest.raises(ValueError):
        SparseMatrix(2, columns)


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntMatrix(True, 1, (5,)),
        lambda: IntMatrix(1, True, (5,)),
        lambda: IntMatrix(2.0, 1, (1, 2)),
        lambda: SparseMatrix(2.0, (((0, 1),),)),
        lambda: SparseMatrix(True, ()),
        lambda: IntMatrix(-1, 0, ()),
        lambda: SparseMatrix(-1, ()),
    ],
    ids=[
        "bool rows",
        "bool cols",
        "float rows",
        "sparse float rows",
        "sparse bool rows",
        "negative rows",
        "sparse negative rows",
    ],
)
def test_the_constructors_reject_a_malformed_dimension(build):
    with pytest.raises(ValueError, match="matrix dimensions must be"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: IntMatrix(2, 2, (1, 2, 3)), "expected 4 entries, got 3"),
    ],
    ids=["entry count"],
)
def test_a_matrix_of_the_wrong_shape_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_sparse_matrix_dense_view():
    m = SparseMatrix(3, (((0, 1), (2, -2)), (), ((1, 5),)))
    assert m.cols == 3
    assert dense(m) == matrix([[1, 0, 0], [0, 0, 5], [-2, 0, 0]])
    assert sparse(dense(m)) == m
    assert cokernel_invariants(m) == dense_cokernel_invariants(dense(m)) == (1, [5])


def test_identity_is_fixed():
    m = identity(3)
    snf = smith_normal_form(m)
    assert snf.S == m
    assert snf.U == identity(3)
    assert snf.V == identity(3)


def test_zero_one_by_one():
    m = matrix([[0]])
    assert smith_normal_form(m).S == m


def test_diag_2_3_becomes_1_6():
    m = matrix([[2, 0], [0, 3]])
    snf = smith_normal_form(m)
    assert snf.S.diagonal() == (1, 6)
    snf_contract_holds(m)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0], [0, 0]],
        [[1, 2], [3, 4]],
        [[4, 6], [6, 9]],
        [[-3], [12]],
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
        [[5]],
    ],
)
def test_snf_contract_on_fixed_cases(rows):
    snf_contract_holds(matrix(rows))


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        m = IntMatrix(rows, cols, (0,) * (rows * cols))
        snf = smith_normal_form(m)
        assert snf.S.rows == rows and snf.S.cols == cols
        assert matmul(matmul(snf.U, m), snf.V) == snf.S


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_snf_contract_random(rows, cols, data):
    entries = data.draw(
        st.lists(
            st.integers(min_value=-20, max_value=20),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    snf_contract_holds(IntMatrix(rows, cols, tuple(entries)))


def test_cokernel_no_relations():
    assert cokernel_invariants(SparseMatrix(2, ())) == (2, [])


def test_cokernel_unimodular_relation():
    assert cokernel_invariants(sparse(matrix([[1], [0]]))) == (1, [])


def test_cokernel_single_column_3_12():
    # Z^2 / <(3,12)> has invariant factor gcd(3,12) = 3 on one generator
    assert cokernel_invariants(sparse(matrix([[3], [12]]))) == (1, [3])


def test_cokernel_drops_unit_factors():
    free, torsion = cokernel_invariants(sparse(matrix([[1, 0], [0, 4]])))
    assert (free, torsion) == (0, [4])


@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_cokernel_invariant_under_column_permutation_and_zero_columns(rows, cols, data):
    entries = data.draw(
        st.lists(
            st.integers(min_value=-15, max_value=15),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    m = IntMatrix(rows, cols, tuple(entries))
    base = cokernel_invariants(sparse(m))

    perm = data.draw(st.permutations(range(cols)))
    permuted = matrix(
        [[m.at(i, p) for p in perm] for i in range(rows)]
    )
    assert cokernel_invariants(sparse(permuted)) == base

    padded = matrix([list(m.row(i)) + [0, 0] for i in range(rows)])
    assert cokernel_invariants(sparse(padded)) == base


# a third of the entries are units, so elimination fires and its column
# updates fill in entries that were zero
entries_biased_to_units = st.one_of(
    st.sampled_from((1, -1)), st.just(0), st.integers(min_value=-20, max_value=20)
)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1], [1, 1]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 10]],
        [[2, 1], [1, 2]],
        [[-1, 0, 5], [0, 0, 0], [3, 0, 7]],
    ],
)
def test_cokernel_matches_the_dense_smith_form_on_fixed_cases(rows):
    m = matrix(rows)
    assert cokernel_invariants(sparse(m)) == dense_cokernel_invariants(m)


# At Hypothesis's default 100 examples, a pivot taken without its sign
# passed this test in about one run in ten.
@settings(max_examples=400)
@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.data(),
)
def test_cokernel_matches_the_dense_smith_form(rows, cols, data):
    entries = data.draw(
        st.lists(entries_biased_to_units, min_size=rows * cols, max_size=rows * cols)
    )
    zero_rows = data.draw(st.sets(st.integers(min_value=0, max_value=5), max_size=2))
    zero_cols = data.draw(st.sets(st.integers(min_value=0, max_value=5), max_size=2))
    entries = [
        0 if t // cols in zero_rows or t % cols in zero_cols else v
        for t, v in enumerate(entries)
    ]
    m = IntMatrix(rows, cols, tuple(entries))
    assert cokernel_invariants(sparse(m)) == dense_cokernel_invariants(m)


@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=49),
    st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
    st.integers(min_value=-4, max_value=3),
)
def test_cokernel_matches_the_dense_smith_form_on_truncations(v, odd, prefix, offset):
    """At, below and past the stable depth, with m - 1 = 2^v * odd."""
    try:
        spec = validate_family(((2 * odd + 1) << v) + 1, prefix)
    except FamilyValidationError:
        return
    depth = max(len(prefix), stable_oracle_depth(spec) + offset)
    m = truncated_presentation(spec, depth)
    full = dense_presentation(spec, depth)
    assert dense(m) == full
    assert cokernel_invariants(m) == dense_cokernel_invariants(full)
