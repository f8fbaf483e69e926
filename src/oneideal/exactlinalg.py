"""Exact integer linear algebra: the invariant factors of a cokernel.

Everything here runs on plain Python integers, so entries may grow without
bound and results are always exact.  :func:`cokernel_invariants` takes a
:class:`SparseMatrix`, eliminates unit pivots on its columns (the
preprocessing of Dumas, Saunders and Villard, "On efficient sparse integer
matrix Smith normal form computations", 2001) and diagonalizes only the
leftover core, on a plain list of its rows, with no transforms: pivot on
the smallest nonzero entry, reduce its row and column by it, repeat while a
remainder is left, then turn the pivots into a divisibility chain by gcd
and lcm.  On a truncated presentation, whose chain columns each carry a
unit, that costs a number of steps linear in the depth.
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

    @property
    def cols(self) -> int:
        return len(self.columns)


def _invariant_factors(a: list[list[int]]) -> list[int]:
    """The nonzero invariant factors of the matrix with rows ``a``, each
    dividing the next; ``a`` is reduced in place.

    Pivots on the smallest nonzero entry and reduces its row and column by
    it, again while a remainder is left: each repeat pivots on an entry
    smaller than the last pivot, so the loop ends.  A pivot left alone in
    its row and column is recorded, and both are dropped.  Replacing each
    pair of recorded pivots by their gcd and lcm then gives the chain.
    """
    factors = []
    while True:
        nonzero = [(abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        pivot, p = a[i], a[i][j]
        for row in a:
            if row is not pivot and row[j]:
                q = row[j] // p
                row[:] = [x - q * y for x, y in zip(row, pivot)]
        for c, v in enumerate(pivot):
            if c != j and v:
                q = v // p
                for row in a:
                    row[c] -= q * row[j]
        if any(row[j] for row in a if row is not pivot) or any(pivot[:j] + pivot[j + 1 :]):
            continue
        factors.append(abs(p))
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
    are taken while any ±1 entry is left; the invariant factors of what
    remains are the other factors.
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
    core = [[0] * len(cols) for _ in core_rows]
    for t, col in enumerate(cols.values()):
        for i, v in col.items():
            core[core_rows[i]][t] = v
    nonzero = _invariant_factors(core)
    return rows_left - len(nonzero), [d for d in nonzero if d > 1]
