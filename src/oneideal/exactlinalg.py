"""Exact integer linear algebra: Smith normal form and cokernel invariants.

Everything here runs on plain Python integers, so entries may grow without
bound and results are always exact.  :func:`smith_normal_form` is dense: it
pivots on the smallest nonzero absolute value with alternating row/column
reduction and builds both transforms, at cubic cost in the matrix size.
:func:`cokernel_invariants` first eliminates unit pivots on a sparse copy
of the matrix (the preprocessing of Dumas, Saunders and Villard, "On
efficient sparse integer matrix Smith normal form computations", 2001) and
hands only the leftover core to :func:`smith_normal_form`.  On a truncated
presentation, whose chain columns each carry a unit, that costs one pass
over the dense entries plus a number of steps linear in the depth.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: list[list[int]] | tuple) -> "IntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls(nrows, ncols, tuple(int(v) for r in rows for v in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = []
        orows = other.to_lists()
        for i in range(self.rows):
            srow = self.row(i)
            acc = [0] * other.cols
            for t, a in enumerate(srow):
                if a:
                    orow = orows[t]
                    for j in range(other.cols):
                        acc[j] += a * orow[j]
            out.extend(acc)
        return IntMatrix(self.rows, other.cols, tuple(out))

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))


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


def _smallest_pivot(a: list[list[int]], start: int, rows: int, cols: int):
    best = None
    best_pos = None
    for i in range(start, rows):
        ai = a[i]
        for j in range(start, cols):
            v = ai[j]
            if v != 0 and (best is None or abs(v) < best):
                best = abs(v)
                best_pos = (i, j)
                if best == 1:
                    return best_pos
    return best_pos


def smith_normal_form(m: IntMatrix) -> SmithForm:
    """Diagonalize ``m`` over the integers by unimodular row/column operations.

    Total on all integer matrices, including empty ones.  Signs of det(U) and
    det(V) are not normalized; only |det| = 1 is guaranteed.
    """
    rows, cols = m.rows, m.cols
    a = m.to_lists()
    u = IntMatrix.identity(rows).to_lists()
    v = IntMatrix.identity(cols).to_lists()

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for r in a:
                r[i], r[j] = r[j], r[i]
            for r in v:
                r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        # row[dst] -= q * row[src]
        if q:
            asrc, adst = a[src], a[dst]
            for c in range(cols):
                adst[c] -= q * asrc[c]
            usrc, udst = u[src], u[dst]
            for c in range(rows):
                udst[c] -= q * usrc[c]

    def add_col(src, dst, q):
        # col[dst] -= q * col[src]
        if q:
            for r in a:
                r[dst] -= q * r[src]
            for r in v:
                r[dst] -= q * r[src]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = _smallest_pivot(a, t, rows, cols)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # clear column t below/above the pivot
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, q)
                    if a[i][t]:
                        # remainder became the smaller pivot
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the submatrix for the chain
            offender = None
            for i in range(t + 1, rows):
                ai = a[i]
                for j in range(t + 1, cols):
                    if ai[j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, -1)  # row[t] += row[offender]
        t += 1

    for i in range(min(rows, cols)):
        if a[i][i] < 0:
            for c in range(cols):
                a[i][c] = -a[i][c]
            for c in range(rows):
                u[i][c] = -u[i][c]

    return SmithForm(
        S=IntMatrix.from_rows(a) if rows else IntMatrix(0, cols, ()),
        U=IntMatrix.from_rows(u) if rows else IntMatrix(0, 0, ()),
        V=IntMatrix.from_rows(v) if cols else IntMatrix(0, 0, ()),
    )


def cokernel_invariants(m: IntMatrix) -> tuple[int, list[int]]:
    """Invariant factors of Z^rows / (column span of ``m``).

    Returns ``(free_rank, torsion)`` where torsion lists the invariant
    factors larger than 1 in divisibility order.

    A ±1 entry at (r, c) contributes the invariant factor 1: subtracting
    multiples of column c clears row r from every other column, after which
    row r and column c split off as a unit block and are dropped.  Pivots
    are taken while any ±1 entry is left; the Smith form of what remains
    gives the other factors.
    """
    cols: dict[int, dict[int, int]] = {}  # column -> {row: nonzero entry}
    in_row: dict[int, set[int]] = defaultdict(set)  # row -> columns with an entry there
    entries = m.entries
    for index in compress(range(len(entries)), entries):
        i, j = divmod(index, m.cols)
        cols.setdefault(j, {})[i] = entries[index]
        in_row[i].add(j)
    rows_left = m.rows
    pivoted = True
    while pivoted:
        pivoted = False
        for c in range(m.cols):
            col = cols.get(c)
            r = next((i for i, v in col.items() if v in (1, -1)), None) if col else None
            if r is None:
                continue
            unit = col.pop(r)
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
