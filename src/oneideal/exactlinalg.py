"""Exact integer linear algebra: the cokernel of a truncated presentation.

Everything here runs on plain Python integers, so entries may grow without
bound and results are always exact.  :func:`cokernel_invariants` takes a
:class:`SparseMatrix` and eliminates unit pivots first (the preprocessing of
Dumas, Saunders and Villard, "On efficient sparse integer matrix Smith
normal form computations", 2001): it reads each column once and turns a
column holding two entries, one of them ±1, into a link that writes one
generator in terms of another; the links form a forest.  On a truncated
presentation every chain column becomes a link, and at most the relation
column is left.  That column is carried along the links in the order they
were made, which is Horner's rule, and the gcd of its entries finishes the
cokernel.  A matrix that leaves more than one column is refused.
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


def cokernel_invariants(m: SparseMatrix) -> tuple[int, list[int]]:
    """Invariant factors of Z^rows / (column span of ``m``), for a matrix
    that leaves at most one column after linking.

    Returns ``(free_rank, torsion)`` where torsion lists the invariant
    factors larger than 1 in divisibility order: here at most one.

    Each column is read once.  A column with entries u = ±1 at row r and e
    at row s says x_r = -u*e*x_s in the cokernel.  When neither row is
    linked yet, that link is kept, and the column and the generator x_r are
    dropped.  So each row is linked at most once, to a row not linked
    before it, and the links form a forest that the order they were made in
    resolves.  A second column that is not a link raises
    :class:`ValueError`.  The one left is carried along the links in that
    order, which on a truncated presentation is Horner's rule on the
    relation column.  Its entries then sit on unlinked rows, and their gcd
    g is the one invariant factor it adds, none when g is 0.
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
    if len(rest) > 1:
        raise ValueError(f"{len(rest)} columns are left after linking; at most 1 is supported")
    x = dict(*rest)
    for r, (s, f) in link.items():
        v = x.pop(r, 0)
        if v:
            x[s] = x.get(s, 0) + f * v
    g = gcd(*x.values())
    return m.rows - len(link) - (g > 0), [g] if g > 1 else []
