"""Exact integer linear algebra: the invariant factors of a cokernel.

Everything here runs on plain Python integers, so entries may grow without
bound and results are always exact.  :func:`cokernel_invariants` takes a
:class:`SparseMatrix`, eliminates unit pivots on its columns (the
preprocessing of Dumas, Saunders and Villard, "On efficient sparse integer
matrix Smith normal form computations", 2001) from one worklist of columns,
copying a column only when an update writes to it, and diagonalizes only the
leftover core, on a plain list of its rows, with no transforms: pivot on the
smallest nonzero entry, clear its column and row with one unimodular Bezout
step per entry (Kannan and Bachem, 1979), repeat while that refills the
column, then turn the pivots into a divisibility chain by gcd and lcm.  On a
truncated presentation, whose chain columns each carry a unit, that costs a
number of steps linear in the depth and one Bezout step on a 2x1 core.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import gcd

from .dyadic import is_int


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
        if not is_int(self.rows) or self.rows < 0:
            raise ValueError(f"matrix dimensions must be non-negative ints, got {self.rows!r}")
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
                if type(v) is not int and not is_int(v):  # the common case skips the call
                    raise ValueError(f"matrix entries must be integers, got {v!r}")
                prev = i


def _bezout(x: int, y: int) -> tuple[int, int, int, int]:
    """``(s, t, y/g, x/g)`` with ``s*x + t*y = g = gcd(x, y)``, for x > 0 and
    y != 0: the unimodular rows ``(s, t)`` and ``(y/g, -x/g)`` take ``(x, y)``
    to ``(g, 0)``; when x divides y, s = 1 and t = 0."""
    g = gcd(x, y)
    x, y = x // g, y // g
    s = pow(x, -1, abs(y)) or 1  # any s will do when y = ±1; 1 makes t = 0 when x = 1
    return s, (1 - s * x) // y, y, x


def _invariant_factors(a: list[list[int]]) -> list[int]:
    """The nonzero invariant factors of the matrix with rows ``a``, each
    dividing the next; ``a`` is reduced in place.

    Pivots on the smallest nonzero entry, made positive, and clears its
    column by row steps, then its row by column steps, each a
    :func:`_bezout` step.  Clearing the row refills the column only when the
    pivot falls to a proper divisor, so each repeat pivots on a smaller
    entry than the last, and the loop ends.  A pivot left alone in its row
    and column is recorded, and both are dropped.  Replacing each pair of
    recorded pivots by their gcd and lcm then gives the chain.
    """
    factors = []
    while True:
        nonzero = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        pivot = a[i]
        if pivot[j] < 0:
            pivot[:] = [-v for v in pivot]
        for row in a:
            if row is not pivot and row[j]:
                s, t, u, w = _bezout(pivot[j], row[j])
                pivot[:], row[:] = (
                    [s * x + t * y for x, y in zip(pivot, row)],
                    [u * x - w * y for x, y in zip(pivot, row)],
                )
        for c, y in enumerate(pivot):
            if c != j and y:
                s, t, u, w = _bezout(pivot[j], y)
                for row in a:
                    row[j], row[c] = s * row[j] + t * row[c], u * row[j] - w * row[c]
        if any(row[j] for row in a if row is not pivot):
            continue
        factors.append(pivot[j])
        del a[i]
        for row in a:
            del row[j]
    for s in range(len(factors)):
        for t in range(s + 1, len(factors)):
            g = gcd(factors[s], factors[t])
            factors[s], factors[t] = g, factors[s] // g * factors[t]
    return factors


def cokernel_invariants(m: SparseMatrix) -> tuple[int, list[int]]:
    """Invariant factors of Z^rows / (column span of ``m``).

    Returns ``(free_rank, torsion)`` where torsion lists the invariant
    factors larger than 1 in divisibility order.

    A ±1 entry at (r, c) contributes the invariant factor 1: subtracting
    multiples of column c clears row r from every other column, after which
    row r and column c split off as a unit block and are dropped.  Pivots
    are taken from a worklist of the columns, where one that gains a ±1
    after its turn is queued again; the invariant factors of what remains
    are the other factors.  The row index is only appended to: a column
    since taken as a pivot, or cleared in that row, is skipped there.
    """
    # each column is the matrix's tuple, a {row: entry} once written, None once a pivot
    columns: list = list(m.columns)
    in_row: dict[int, list[int]] = defaultdict(list)  # row -> columns that held an entry there
    for j, col in enumerate(columns):
        for i, _ in col:
            in_row[i].append(j)
    todo = list(range(len(columns)))
    for turn, c in enumerate(todo):  # the list grows by the columns queued again
        col = columns[c]
        if col is None:
            continue
        pairs = col.items() if type(col) is dict else col
        for r, unit in pairs:
            if unit == 1 or unit == -1:
                break
        else:
            continue
        columns[c] = None
        for j in in_row.pop(r):
            target = columns[j]
            if target is None or (type(target) is dict and r not in target):
                continue
            if type(target) is tuple:
                target = columns[j] = dict(target)
            q = target.pop(r) * unit
            for i, v in pairs:
                if i == r:
                    continue
                w = target.get(i, 0) - q * v
                if not w:
                    del target[i]
                    continue
                if i not in target:
                    in_row[i].append(j)
                target[i] = w
                if j < turn and (w == 1 or w == -1):
                    todo.append(j)
    live = [dict(col) for col in columns if col]
    index = {i: t for t, i in enumerate({i for col in live for i in col})}  # row -> core row
    core = [[0] * len(live) for _ in index]
    for t, col in enumerate(live):
        for i, v in col.items():
            core[index[i]][t] = v
    nonzero = _invariant_factors(core)
    return m.rows - columns.count(None) - len(nonzero), [d for d in nonzero if d > 1]
