"""Exact integer linear algebra: the invariant factors of a cokernel.

Everything here runs on plain Python integers, so entries may grow without
bound and results are always exact.  :func:`cokernel_invariants` takes a
:class:`SparseMatrix` and eliminates unit pivots first (the preprocessing of
Dumas, Saunders and Villard, "On efficient sparse integer matrix Smith
normal form computations", 2001), in two phases.  Phase 1 reads each column
once and turns a column holding two entries, one of them ±1, into a link
that writes one generator in terms of another; the links form a forest.
Phase 2 carries every other column's entries along the links, in the order
they were made.  The leftover core is then diagonalized on a plain list of
its rows, with no transforms: pivot on the smallest nonzero entry, clear
its column and row with one unimodular Bezout step per entry (Kannan and
Bachem, 1979), repeat while that refills the column, then turn the pivots
into a divisibility chain by gcd and lcm.  On a truncated presentation
every chain column becomes a link, carrying the relation column along them
is Horner's rule, and the core is 2x1.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .dyadic import is_int


class SparseMatrix(namedtuple("SparseMatrix", "rows columns")):
    """Immutable integer matrix stored as its columns' entries.

    Column j is a tuple of ``(row, entry)`` pairs with increasing rows in
    ``range(rows)``; a row it does not list holds 0 there.  Entries are
    ints, not bools.  The constructor checks only the row count and that
    the columns are a tuple: the entries are the caller's duty, as they are
    :func:`oneideal.family.truncated_presentation`'s, the one builder in
    the library.
    """

    __slots__ = ()

    def __new__(cls, rows: int, columns: tuple[tuple[tuple[int, int], ...], ...]):
        return cls._make((rows, columns))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, not __new__, so the checks live here
        self = tuple.__new__(cls, iterable)
        rows, columns = self
        if not is_int(rows) or rows < 0:
            raise ValueError(f"matrix dimensions must be non-negative ints, got {rows!r}")
        if type(columns) is not tuple:
            raise ValueError(f"the columns must be a tuple, got {columns!r}")
        return self


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

    Phase 1 reads each column once.  A column with entries u = ±1 at row r
    and e at row s says x_r = -u*e*x_s in the cokernel.  When neither row
    is linked yet, that link is kept, and the column and the generator x_r
    are dropped.  So each row is linked at most once, to a row not linked
    before it, and the links form a forest that the order they were made in
    resolves.  Phase 2 writes each other column out densely, one holding a
    single entry too, and carries its entries along the links in that
    order; on a truncated presentation that is Horner's rule on the
    relation column.  The invariant factors of what remains, which may
    still hold a ±1, are the other factors.
    """
    link = {}  # r -> (s, f): x_r = f * x_s, in the order made
    rest = []
    for col in m.columns:
        if len(col) == 2:
            (r, u), (s, e) = col
            if u != 1 and u != -1:
                (s, e), (r, u) = col
            if (u == 1 or u == -1) and r not in link and s not in link:
                link[r] = s, -u * e
                continue
        rest.append(col)
    live = []
    for col in rest:
        x = [0] * m.rows
        for i, v in col:
            x[i] = v
        for r, (s, f) in link.items():
            v = x[r]
            if v:
                x[s] += f * v
                x[r] = 0
        live.append(x)
    used = {i for x in live for i, v in enumerate(x) if v}
    nonzero = _invariant_factors([[x[i] for x in live] for i in used])
    return m.rows - len(link) - len(nonzero), [d for d in nonzero if d > 1]
