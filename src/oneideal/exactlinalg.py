"""Exact integer linear algebra: Smith normal form and cokernel invariants.

Everything here runs on plain Python integers, so entries may grow without
bound and results are always exact.  :func:`smith_normal_form` is dense and
builds both transforms.  It runs one round loop per diagonal position: move
the smallest nonzero entry left to the pivot, reduce the pivot's column and
row by it, and repeat while a remainder is left or the pivot fails to divide
a later entry.  Each round is one pass over the matrix, and each repeat
leaves an entry smaller than the pivot, so the pivots shrink until it ends.
:func:`cokernel_invariants` takes a :class:`SparseMatrix`, eliminates unit
pivots on its columns (the preprocessing of Dumas, Saunders and Villard,
"On efficient sparse integer matrix Smith normal form computations", 2001)
and hands only the leftover core to :func:`smith_normal_form`.  On a
truncated presentation, whose chain columns each carry a unit, that costs a
number of steps linear in the depth.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .dyadic import is_int


def _check_entry(v) -> None:
    if not is_int(v):
        raise ValueError(f"matrix entries must be integers, got {v!r}")


def _check_dimension(n) -> None:
    if not is_int(n) or n < 0:
        raise ValueError(f"matrix dimensions must be non-negative ints, got {n!r}")


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_dimension(self.rows)
        _check_dimension(self.cols)
        if type(self.entries) is not tuple:
            raise ValueError(f"matrix entries must be a tuple, got {self.entries!r}")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        for v in self.entries:
            _check_entry(v)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable integer matrix stored as its columns' entries.

    Column j is a tuple of ``(row, entry)`` pairs with increasing rows in
    ``range(rows)``; a row it does not list holds 0 there.  Entries must
    be ints, not bools.
    """

    rows: int
    columns: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        _check_dimension(self.rows)
        if type(self.columns) is not tuple:
            raise ValueError(f"the columns must be a tuple, got {self.columns!r}")
        for col in self.columns:
            if type(col) is not tuple:
                raise ValueError(f"each column must be a tuple, got {col!r}")
            prev = -1
            for pair in col:
                if type(pair) is not tuple or len(pair) != 2:
                    raise ValueError(f"column items must be (row, entry) pairs, got {pair!r}")
                i, v = pair
                if (type(i) is not int and not is_int(i)) or not prev < i < self.rows:
                    raise ValueError(f"rows must increase within range({self.rows}): {col!r}")
                if type(v) is not int:  # the common case skips the call
                    _check_entry(v)
                prev = i

    @property
    def cols(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class SmithForm:
    """Decomposition U @ M @ V == S with U, V unimodular and S diagonal.

    Diagonal entries are non-negative and each divides the next; zeros trail.
    """

    S: IntMatrix
    U: IntMatrix
    V: IntMatrix

    def invariant_factors(self) -> tuple[int, ...]:
        return tuple(d for d in self.S.diagonal() if d != 0)


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize ``m`` over the integers by unimodular row/column operations.

    Works on the block matrix [[M, I], [I, 0]]: an operation on its top rows
    carries U along in the right block, one on its left columns carries V
    along in the bottom block.  Total on all integer matrices, including
    empty ones.  Signs of det(U) and det(V) are not normalized; only
    |det| = 1 is guaranteed.
    """
    rows, cols = m.rows, m.cols
    a = [list(m.row(i)) + [int(i == j) for j in range(rows)] for i in range(rows)]
    a += [[int(i == j) for j in range(cols)] + [0] * rows for i in range(cols)]
    for t in range(min(rows, cols)):
        # a repeat leaves an entry smaller than the pivot (one round later
        # after a divisor step), so the pivots shrink and the loop ends
        while True:
            window = ((i, j) for i in range(t, rows) for j in range(t, cols))
            nonzero = [(abs(a[i][j]), i, j) for i, j in window if a[i][j]]
            if not nonzero:
                break
            _, i, j = min(nonzero)
            a[t], a[i] = a[i], a[t]
            for r in a:
                r[t], r[j] = r[j], r[t]
            p = a[t][t]
            for i in range(t + 1, rows):
                q = a[i][t] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, cols):
                q = a[t][j] // p
                for r in a:
                    r[j] -= q * r[t]
            if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1 : cols]):
                continue
            # for the divisibility chain: a row the pivot fails to divide
            # leaves a remainder in row t on the next round
            bad = next((r for r in a[t + 1 : rows] if any(x % p for x in r[t + 1 : cols])), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], bad)]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
    top = a[:rows]
    return SmithForm(
        S=IntMatrix(rows, cols, tuple(x for r in top for x in r[:cols])),
        U=IntMatrix(rows, rows, tuple(x for r in top for x in r[cols:])),
        V=IntMatrix(cols, cols, tuple(x for r in a[rows:] for x in r[:cols])),
    )


def cokernel_invariants(m: SparseMatrix) -> tuple[int, list[int]]:
    """Invariant factors of Z^rows / (column span of ``m``).

    Returns ``(free_rank, torsion)`` where torsion lists the invariant
    factors larger than 1 in divisibility order.

    A ±1 entry at (r, c) contributes the invariant factor 1: subtracting
    multiples of column c clears row r from every other column, after which
    row r and column c split off as a unit block and are dropped.  Pivots
    are taken while any ±1 entry is left; the Smith form of what remains
    gives the other factors.
    """
    cols = {j: dict(col) for j, col in enumerate(m.columns) if col}  # column -> {row: entry}
    in_row: dict[int, set[int]] = defaultdict(set)  # row -> columns with an entry there
    for j, col in cols.items():
        for i in col:
            in_row[i].add(j)
    rows_left = m.rows
    pivoted = True
    while pivoted:
        pivoted = False
        for c in range(m.cols):
            col = cols.get(c)
            if not col:
                continue
            for r, unit in col.items():
                if unit == 1 or unit == -1:
                    break
            else:
                continue
            del col[r]
            del cols[c]
            for i in col:
                in_row[i].discard(c)
            rest = in_row.pop(r)
            rest.discard(c)
            for j in rest:
                target = cols[j]
                q = target.pop(r) * unit
                for i, v in col.items():
                    w = target.get(i, 0) - q * v
                    if w:
                        target[i] = w
                        in_row[i].add(j)
                    elif i in target:
                        del target[i]
                        in_row[i].discard(j)
                if not target:
                    del cols[j]
            rows_left -= 1
            pivoted = True
    core_rows = {i: t for t, i in enumerate(i for i, js in in_row.items() if js)}
    core = [0] * (len(core_rows) * len(cols))
    for t, col in enumerate(cols.values()):
        for i, v in col.items():
            core[core_rows[i] * len(cols) + t] = v
    snf = smith_normal_form(IntMatrix(len(core_rows), len(cols), tuple(core)))
    nonzero = snf.invariant_factors()
    return rows_left - len(nonzero), [d for d in nonzero if d > 1]
