from math import gcd

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from oneideal import FamilyValidationError, ktheory
from oneideal.exactlinalg import SparseMatrix, cokernel_invariants
from oneideal.family import truncated_presentation, validate_family, weight_of
from oneideal.ktheory import stable_oracle_depth
from oracles import dense, dense_presentation, sympy_cokernel
from test_golden import ARGV as GOLDEN_ARGV
from test_golden import run


# the entries are the caller's duty; the constructor checks only the shape
# of the matrix: its row count, and that its columns are a tuple
def test_the_constructor_rejects_entries_that_are_not_a_tuple():
    # a list would leave the frozen matrix unhashable
    with pytest.raises(ValueError, match="must be a tuple"):
        SparseMatrix(2, [((0, 1),)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: SparseMatrix(2.0, (((0, 1),),)),
        lambda: SparseMatrix(True, ()),
        lambda: SparseMatrix(-1, ()),
    ],
    ids=[
        "sparse float rows",
        "sparse bool rows",
        "sparse negative rows",
    ],
)
def test_the_constructors_reject_a_malformed_dimension(build):
    with pytest.raises(ValueError, match="matrix dimensions must be"):
        build()


DENSE_VIEW_CASE = SparseMatrix(3, (((0, 1), (2, -2)), (), ((1, 5),)))


def test_sparse_matrix_dense_view():
    m = DENSE_VIEW_CASE
    assert len(m.columns) == 3
    assert dense(m) == sympy.Matrix([[1, 0, 0], [0, 0, 5], [-2, 0, 0]])


def test_zero_one_by_one():
    assert cokernel_invariants(SparseMatrix(1, ((),))) == (1, [])


def test_cokernel_no_relations():
    assert cokernel_invariants(SparseMatrix(2, ())) == (2, [])


def test_cokernel_unimodular_relation():
    assert cokernel_invariants(SparseMatrix(2, (((0, 1),),))) == (1, [])


def test_cokernel_single_column_3_12():
    # Z^2 / <(3,12)> has invariant factor gcd(3,12) = 3 on one generator
    assert cokernel_invariants(SparseMatrix(2, (((0, 3), (1, 12)),))) == (1, [3])


def test_cokernel_drops_unit_factors():
    # the unit column links x_0 = 2 x_1; its factor 1 is not listed
    m = SparseMatrix(2, (((0, 1), (1, -2)), ((1, 4),)))
    assert cokernel_invariants(m) == sympy_cokernel(dense(m)) == (0, [4])


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
    assert_presentation_shape(m, depth)
    full = dense_presentation(spec, depth)
    assert dense(m) == full
    assert cokernel_invariants(m) == sympy_cokernel(full)


def assert_presentation_shape(m: SparseMatrix, depth: int) -> None:
    """The contract SparseMatrix leaves to its caller, on a presentation:
    every column is a tuple of (int row, int entry) pairs, with rows
    increasing inside range(depth + 1)."""
    assert type(m.columns) is tuple and m.rows == depth + 1
    for col in m.columns:
        assert type(col) is tuple
        assert all(type(pair) is tuple and len(pair) == 2 for pair in col)
        assert all(type(i) is int and type(v) is int for i, v in col)
        rows = [i for i, _ in col]
        assert rows == sorted(set(rows)) and all(0 <= i <= depth for i in rows)


def test_every_presentation_a_golden_command_builds_keeps_the_contract(monkeypatch):
    built = []

    def recording(spec, depth):
        m = truncated_presentation(spec, depth)
        built.append((m, depth))
        return m

    monkeypatch.setattr(ktheory, "truncated_presentation", recording)
    for argv in GOLDEN_ARGV.values():
        status, _, err = run(*argv, "--format", "json")
        assert (status, err) == (0, ""), argv
    assert len(built) == 4  # one per finite-m invariant argv
    for m, depth in built:
        assert_presentation_shape(m, depth)


def test_a_unit_made_in_a_passed_column_is_pivoted_on_its_revisit():
    # column 0 holds no unit; column 1 links x_0 = -x_1, and carrying
    # column 0 along that link leaves 3 - 2 = 1 on x_1, so the gcd is 1
    m = SparseMatrix(2, (((0, 2), (1, 3)), ((0, 1), (1, 1))))
    assert cokernel_invariants(m) == sympy_cokernel(dense(m)) == (0, [])


def by_columns(rows: int, columns: list[dict[int, int]]) -> SparseMatrix:
    return SparseMatrix(rows, tuple(tuple(sorted(col.items())) for col in columns))


@pytest.mark.parametrize(
    "rows, columns",
    [
        # the chain x_j = 2 x_{j+1}, then 3 x_0 + 5 x_3 carried to 29 x_3
        (4, [{0: 1, 1: -2}, {1: 1, 2: -2}, {2: 1, 3: -2}, {0: 3, 3: 5}]),
        # a unit at an already linked row: x_0 = -2 x_1, then x_0 + 4 x_1
        # is carried to 2 x_1, not taken as a second link of x_0
        (2, [{0: 1, 1: 2}, {0: 1, 1: 4}]),
        # a unit whose other row is already linked: carried to -5 x_1
        (2, [{0: 1, 1: 2}, {0: 3, 1: 1}]),
        # a unit -1: -x_0 + 2 x_1 links x_0 = 2 x_1, so 3 x_0 + 5 x_1 is
        # carried to 11 x_1, not to -1 x_1
        (2, [{0: -1, 1: 2}, {0: 3, 1: 5}]),
    ],
    ids=[
        "chain read forwards",
        "unit row already linked",
        "other row already linked",
        "unit -1",
    ],
)
def test_each_link_case_matches_sympy(rows, columns):
    m = by_columns(rows, columns)
    assert cokernel_invariants(m) == sympy_cokernel(dense(m))


@pytest.mark.parametrize(
    "m, left",
    [
        # the chain read from its last column back: the second column meets
        # the row the first linked, so it is left with the relation column
        (by_columns(4, [{2: 1, 3: -2}, {1: 1, 2: -2}, {0: 1, 1: -2}, {0: 3, 3: 5}]), 2),
        # the chain with its unit rows below the other rows
        (by_columns(4, [{0: -2, 1: 1}, {1: -2, 2: 1}, {2: -2, 3: -1}, {0: 3, 3: 5}]), 2),
        # a one-entry unit column is not a link
        (by_columns(2, [{0: -1}, {0: 2, 1: 3}]), 2),
        # one-entry units at a linked row, and one repeated
        (by_columns(3, [{0: 1, 1: 3}, {0: -1}, {2: 1}, {2: 1}, {1: 2, 2: 7}]), 4),
        # a zero column counts as left too
        (DENSE_VIEW_CASE, 2),
    ],
    ids=[
        "chain read backwards",
        "chain with units below",
        "one-entry unit",
        "one-entry units at linked rows",
        "dense view",
    ],
)
def test_a_matrix_that_leaves_more_than_one_column_is_refused(m, left):
    with pytest.raises(ValueError, match=f"^{left} columns are left after linking"):
        cokernel_invariants(m)


@pytest.mark.parametrize("m", [3, 5, 9, 2**40 + 1, 3 * 2**61 + 1])
@pytest.mark.parametrize("prefix", [(1,), (2, 0, 7), (4,) * 30, tuple(range(1, 101))])
def test_the_core_of_a_truncated_presentation_is_at_most_2_by_1(m, prefix):
    # linking leaves one column, carried onto (w_depth, v0), and its gcd is
    # the torsion gcd(2^(d-k) * N, m - 1); a second column would be refused
    spec = validate_family(m, prefix)
    k, n_weight = weight_of(spec)
    for depth in sorted({k, stable_oracle_depth(spec), 1000}):
        presentation = truncated_presentation(spec, depth)
        assert_presentation_shape(presentation, depth)
        g = gcd(n_weight << (depth - k), m - 1)
        assert cokernel_invariants(presentation) == (1, [g] if g > 1 else [])
