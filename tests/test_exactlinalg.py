import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oneideal import FamilyValidationError, exactlinalg, ktheory
from oneideal.exactlinalg import SparseMatrix, _invariant_factors, cokernel_invariants
from oneideal.family import truncated_presentation, validate_family
from oneideal.ktheory import stable_oracle_depth
from oracles import dense, dense_presentation, sparse, sympy_cokernel
from test_golden import ARGV as GOLDEN_ARGV
from test_golden import run


def diagonal_contract_holds(m: sympy.Matrix) -> None:
    """The core routine, run on all of ``m`` with no unit pivots eliminated
    first, gives positive factors, each dividing the next, that sympy's
    nonzero invariant factors agree with."""
    factors = _invariant_factors([[int(v) for v in row] for row in m.tolist()])
    assert all(d > 0 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    free_rank, torsion = sympy_cokernel(m)
    assert len(factors) == m.rows - free_rank
    assert [d for d in factors if d > 1] == torsion


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


def test_sparse_matrix_dense_view():
    m = SparseMatrix(3, (((0, 1), (2, -2)), (), ((1, 5),)))
    assert len(m.columns) == 3
    assert dense(m) == sympy.Matrix([[1, 0, 0], [0, 0, 5], [-2, 0, 0]])
    assert sparse(dense(m)) == m
    assert cokernel_invariants(m) == sympy_cokernel(dense(m)) == (1, [5])


def test_identity_is_fixed():
    assert _invariant_factors([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]
    diagonal_contract_holds(sympy.eye(3))


def test_zero_one_by_one():
    assert _invariant_factors([[0]]) == []
    assert cokernel_invariants(sparse(sympy.Matrix([[0]]))) == (1, [])


def test_diag_2_3_becomes_1_6():
    m = sympy.Matrix([[2, 0], [0, 3]])
    assert _invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    diagonal_contract_holds(m)


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0], [0, 0]],
        [[1, 2], [3, 4]],
        [[4, 6], [6, 9]],
        [[-3], [12]],
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
        [[5]],
        # pivots 4, 6, 9 in that order: the chain pass must pair 4 with 9 too
        [[6, 0, 0], [0, 4, 0], [0, 0, 9]],
        # a negative pivot that no step touches
        [[0, -7], [5, 0]],
        # Bezout steps on pairs that divide neither way: (6, 10) goes to
        # (2, 0) in one step, and clearing the row of [[4, 6], [0, 5]]
        # lowers the pivot 4 to 2 and refills its column with -5
        [[6], [10]],
        [[10], [-6]],
        [[-6, 10]],
        [[6, 10], [10, 15]],
        [[4, 6], [0, 5]],
    ],
)
def test_snf_contract_on_fixed_cases(rows):
    m = sympy.Matrix(rows)
    diagonal_contract_holds(m)
    assert cokernel_invariants(sparse(m)) == sympy_cokernel(m)


def test_snf_empty_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0)]:
        assert _invariant_factors([[0] * cols for _ in range(rows)]) == []
        assert cokernel_invariants(sparse(sympy.zeros(rows, cols))) == (rows, [])


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
    diagonal_contract_holds(sympy.Matrix(rows, cols, entries))


def test_cokernel_no_relations():
    assert cokernel_invariants(SparseMatrix(2, ())) == (2, [])


def test_cokernel_unimodular_relation():
    assert cokernel_invariants(sparse(sympy.Matrix([[1], [0]]))) == (1, [])


def test_cokernel_single_column_3_12():
    # Z^2 / <(3,12)> has invariant factor gcd(3,12) = 3 on one generator
    assert cokernel_invariants(sparse(sympy.Matrix([[3], [12]]))) == (1, [3])


def test_cokernel_drops_unit_factors():
    free, torsion = cokernel_invariants(sparse(sympy.Matrix([[1, 0], [0, 4]])))
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
    m = sympy.Matrix(rows, cols, entries)
    base = cokernel_invariants(sparse(m))

    perm = data.draw(st.permutations(range(cols)))
    assert cokernel_invariants(sparse(m.extract(list(range(rows)), perm))) == base

    padded = m.row_join(sympy.zeros(rows, 2))
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
    m = sympy.Matrix(rows)
    assert cokernel_invariants(sparse(m)) == sympy_cokernel(m)


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
    m = sympy.Matrix(rows, cols, entries)
    assert cokernel_invariants(sparse(m)) == sympy_cokernel(m)


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


@pytest.fixture
def cores(monkeypatch):
    """The cores that cokernel_invariants hands to _invariant_factors, each
    copied as its list of rows."""
    seen = []

    def recording(a):
        seen.append([row[:] for row in a])
        return _invariant_factors(a)

    monkeypatch.setattr(exactlinalg, "_invariant_factors", recording)
    return seen


def test_a_unit_made_in_a_passed_column_is_pivoted_on_its_revisit():
    # column 0 holds no unit; column 1 links x_0 = -x_1, and carrying
    # column 0 along that link leaves 3 - 2 = 1, a unit the core pivots on
    assert cokernel_invariants(sparse(sympy.Matrix([[2, 1], [3, 1]]))) == (0, [])


def by_columns(rows: int, columns: list[dict[int, int]]) -> sympy.Matrix:
    return sympy.Matrix(rows, len(columns), lambda i, j: columns[j].get(i, 0))


@pytest.mark.parametrize(
    "rows, columns",
    [
        # the chain x_j = 2 x_{j+1}, then 3 x_0 + 5 x_3 carried to 29 x_3
        (4, [{0: 1, 1: -2}, {1: 1, 2: -2}, {2: 1, 3: -2}, {0: 3, 3: 5}]),
        # the same chain read from its last column back: the second column
        # meets the row the first linked, so it is carried instead
        (4, [{2: 1, 3: -2}, {1: 1, 2: -2}, {0: 1, 1: -2}, {0: 3, 3: 5}]),
        # the same chain with its unit rows below the other rows
        (4, [{0: -2, 1: 1}, {1: -2, 2: 1}, {2: -2, 3: -1}, {0: 3, 3: 5}]),
        # a one-entry unit column sets x_0 = 0
        (2, [{0: -1}, {0: 2, 1: 3}]),
        # a unit at an already linked row: x_0 = -2 x_1, then x_0 + 4 x_1
        # is carried to 2 x_1, not taken as a second link of x_0
        (2, [{0: 1, 1: 2}, {0: 1, 1: 4}]),
        # a unit whose other row is already linked: carried to -5 x_1
        (2, [{0: 1, 1: 2}, {0: 3, 1: 1}]),
        # a one-entry unit at a linked row, and one repeated
        (3, [{0: 1, 1: 3}, {0: -1}, {2: 1}, {2: 1}, {1: 2, 2: 7}]),
    ],
    ids=[
        "chain read forwards",
        "chain read backwards",
        "chain with units below",
        "one-entry unit",
        "unit row already linked",
        "other row already linked",
        "one-entry units at linked rows",
    ],
)
def test_each_link_case_matches_sympy(rows, columns):
    m = by_columns(rows, columns)
    assert cokernel_invariants(sparse(m)) == sympy_cokernel(m)


def link_case_columns(rows: int, data) -> tuple[list[dict[int, int]], set[str]]:
    """Columns of a matrix with ``rows`` rows, in shuffled order: a chain of
    two-entry unit columns, one-entry units, further unit columns on rows the
    chain may have linked, and general columns.  Also returns the kinds
    drawn, with "shuffled chain" when the chain is out of order and "unit
    column on a row met before" when a unit column shares a row with an
    earlier one."""
    unit = st.sampled_from((1, -1))
    small = st.integers(min_value=-4, max_value=4)
    path = data.draw(st.permutations(range(rows)))[: data.draw(st.integers(1, rows))]
    tagged = [("chain", t, {a: data.draw(unit), b: data.draw(small)})
              for t, (a, b) in enumerate(zip(path, path[1:]))]
    for _ in range(data.draw(st.integers(0, 2))):
        tagged.append(("one", 0, {data.draw(st.integers(0, rows - 1)): data.draw(unit)}))
    for _ in range(data.draw(st.integers(0, 3))):
        a, b = data.draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2, unique=True))
        tagged.append(("unit", 0, {a: data.draw(unit), b: data.draw(small)}))
    for _ in range(data.draw(st.integers(0, 3))):
        entries = data.draw(st.dictionaries(st.integers(0, rows - 1), small, max_size=rows))
        tagged.append(("general", 0, entries))
    tagged = data.draw(st.permutations(tagged))
    seen = {kind for kind, _, _ in tagged if kind in ("one", "general")}
    order = [t for kind, t, _ in tagged if kind == "chain"]
    if len(order) > 1 and order != sorted(order):
        seen.add("shuffled chain")
    units = [set(col) for kind, _, col in tagged if kind != "general" and len(col) == 2]
    if any(units[t] & units[s] for t in range(len(units)) for s in range(t)):
        seen.add("unit column on a row met before")
    return [col for _, _, col in tagged], seen


def test_cokernel_matches_sympy_on_every_link_case(cores):
    hit = set()

    @settings(max_examples=300)
    @given(st.integers(min_value=2, max_value=6), st.data())
    def check(rows, data):
        columns, seen = link_case_columns(rows, data)
        hit.update(seen)
        m = by_columns(rows, columns)
        assert cokernel_invariants(sparse(m)) == sympy_cokernel(m)

    check()
    assert hit == {"one", "general", "shuffled chain", "unit column on a row met before"}
    # some core held a ±1: a column carried to a unit, or a unit column
    # whose rows were linked before it
    assert any(v in (1, -1) for core in cores for row in core for v in row)


# The later columns hold units among small and large entries; the earlier
# ones hold small entries and no unit, so they pass their turn, and the
# later columns' pivots write into them, now and then leaving a unit to
# revisit.  Large entries give Bezout steps whose pair divides neither way.
late_entries = st.one_of(
    st.just(0),
    st.sampled_from((1, -1)),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(10**6), max_value=10**6),
)
early_entries = st.sampled_from((0, 2, -2, 3, -3))


def test_cokernel_matches_sympy_on_sparse_matrices_with_large_entries(cores, monkeypatch):
    bezout = exactlinalg._bezout
    proper = []  # the Bezout steps whose pair divides neither way

    def counted(x, y):
        if x % y and y % x:
            proper.append((x, y))
        return bezout(x, y)

    monkeypatch.setattr(exactlinalg, "_bezout", counted)

    @settings(max_examples=150)
    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6), st.data())
    def check(rows, cols, data):
        columns = [
            data.draw(st.lists(early_entries if 2 * j < cols else late_entries,
                               min_size=rows, max_size=rows))
            for j in range(cols)
        ]
        m = sympy.Matrix(rows, cols, lambda i, j: columns[j][i])
        assert cokernel_invariants(sparse(m)) == sympy_cokernel(m)

    check()
    assert len(proper) > 0


@pytest.mark.parametrize("m", [3, 5, 9, 2**40 + 1, 3 * 2**61 + 1])
@pytest.mark.parametrize("prefix", [(1,), (2, 0, 7), (4,) * 30, tuple(range(1, 101))])
def test_the_core_of_a_truncated_presentation_is_at_most_2_by_1(cores, m, prefix):
    spec = validate_family(m, prefix)
    for depth in sorted({len(prefix), stable_oracle_depth(spec), 1000}):
        cores.clear()
        m = truncated_presentation(spec, depth)
        assert_presentation_shape(m, depth)
        cokernel_invariants(m)
        assert len(cores) == 1 and len(cores[0]) <= 2
        assert all(len(row) <= 1 for row in cores[0])
