"""Independent reference routes that the test suite checks the library against.

None of these is on a production path: each one re-derives, by a slower or
more literal route, a quantity the library computes in closed form.

* :func:`truncation_torsion_order` - the middle torsion order read off the
  Smith form of the truncated presentation at two consecutive stable depths;
* :func:`find_order_isomorphism` - a bounded search for an alpha-cone map;
* :func:`enumerated_exact_witness`, :func:`enumerated_stable_witness` - the
  minimal witnesses by a pair scan over both two-power orbits (and, for the
  stable one, over every unit);
* :func:`exact_witness_table`, :func:`stable_witness_table` - the minimal
  witness of every residue pair of one modulus at once, by a backward
  breadth-first search over residue pairs;
* :func:`exact_class_partition`, :func:`stable_class_partition` - class
  representatives by union-find over every residue (and every unit);
* :func:`stable_gcd_partition`, :func:`partitions_agree`,
  :func:`stable_partition_disagreements` - whole-modulus comparison of the
  unit-enumeration and gcd stable partitions;
* :func:`dyadic_strictly_between` - a dyadic witness inside an interval.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

from oneideal import FamilySpec, InternalConsistencyError, is_infinite, odd_part
from oneideal.classify import IsoWitness, _unit_multiples, units_mod
from oneideal.dyadic import ExtendedRational, residue_cycle
from oneideal.ktheory import stable_oracle_depth, truncated_k0

# --------------------------------------------------------------------------
# torsion order via the truncation Smith form


def truncation_torsion_order(spec: FamilySpec) -> int:
    """Order x of the torsion summand of the middle group (1 <= x).

    Defined operationally: the truncation oracle is run at the stable depth
    and re-run one level deeper; the two must agree.
    """
    depth = stable_oracle_depth(spec)
    first = truncated_k0(spec, depth)
    second = truncated_k0(spec, depth + 1)
    for free_rank, torsion in (first, second):
        if free_rank != 1 or len(torsion) > 1:
            raise InternalConsistencyError(
                f"unexpected truncated K0 shape (free rank {free_rank}, torsion {torsion})"
            )
    if first[1] != second[1]:
        # unreachable by the saturation bound; kept as a loud guard
        raise InternalConsistencyError(
            f"torsion not stable at depths {depth}, {depth + 1}"
        )
    return first[1][0] if first[1] else 1


# --------------------------------------------------------------------------
# alpha-cone order isomorphism by bounded map search


def _slice_contains(alpha: ExtendedRational, x: Fraction, n: int) -> bool:
    if n > 0:
        return True if is_infinite(alpha) else x > -n * alpha
    if n == 0:
        return x >= 0
    return False


def _boundary_probes(alpha: ExtendedRational, n: int, precision: int) -> list[Fraction]:
    if is_infinite(alpha):
        return [Fraction(-(1 << 20)), Fraction(-1), Fraction(0), Fraction(1)]
    scale = 1 << precision
    base = math.floor(-n * alpha * scale)
    return [Fraction(base + d, scale) for d in (-1, 0, 1, 2)]


def _candidate_consistent(
    a: ExtendedRational, b: ExtendedRational, k: int, shift: Fraction, precision: int
) -> bool:
    pow2 = Fraction(2) ** k
    for n in (1, 2):
        for x in _boundary_probes(a, n, precision):
            if _slice_contains(a, x, n) != _slice_contains(b, pow2 * x + shift * n, n):
                return False
        for x in _boundary_probes(b, n, precision):
            if _slice_contains(b, x, n) != _slice_contains(a, (x - shift * n) / pow2, n):
                return False
    for x in (Fraction(-1), Fraction(0), Fraction(1, 2)):
        if _slice_contains(a, x, 0) != _slice_contains(b, pow2 * x, 0):
            return False
    return True


def find_order_isomorphism(
    a: ExtendedRational,
    b: ExtendedRational,
    k_bound: int = 8,
    exp_bound: int = 8,
    num_bound: int = 64,
) -> tuple[int, Fraction] | None:
    """Bounded search for a cone map (x, n) -> (2^k x + shift * n, n) taking
    the alpha cone of ``a`` onto that of ``b``.

    Candidates range over |k| <= k_bound and dyadic shifts with exponent at
    most exp_bound and numerator at most num_bound in absolute value.  Each
    candidate is tested on probe points straddling both cone boundaries at a
    precision fine enough that every wrong candidate in the search box is
    rejected.  Returns the first witness found, or None when the whole box
    fails.  Independent of :func:`alpha_cones_isomorphic` by construction.
    """

    def den_bits(v) -> int:
        return 1 if is_infinite(v) else Fraction(v).denominator.bit_length()

    precision = den_bits(a) + den_bits(b) + k_bound + exp_bound + 2

    shifts: list[Fraction] = [Fraction(t) for t in range(-num_bound, num_bound + 1)]
    for e in range(1, exp_bound + 1):
        for t in range(-num_bound, num_bound + 1):
            if t % 2:
                shifts.append(Fraction(t, 1 << e))
    shifts.sort(key=lambda s: (abs(s), s.denominator))

    ks = sorted(range(-k_bound, k_bound + 1), key=abs)
    for k in ks:
        for shift in shifts:
            if _candidate_consistent(a, b, k, shift, precision):
                return k, shift
    return None


# --------------------------------------------------------------------------
# congruence layer by enumeration: pair scans over both orbits, union-find
# over every residue (and every unit)


def enumerated_exact_witness(modulus: int, n_a: int, n_b: int) -> IsoWitness | None:
    """Smallest (by l + l', then l) exponent pair with 2^l n_a == 2^l' n_b."""
    cycle_a = residue_cycle(modulus, n_a)
    cycle_b = residue_cycle(modulus, n_b)
    for total in range(len(cycle_a) + len(cycle_b) - 1):
        for la in range(min(total, len(cycle_a) - 1) + 1):
            lb = total - la
            if lb >= len(cycle_b):
                continue
            if cycle_a[la] == cycle_b[lb]:
                return IsoWitness(l=la, l_prime=lb, unit=1)
    return None


def enumerated_stable_witness(modulus: int, n_a: int, n_b: int) -> IsoWitness | None:
    """Smallest witness (l, l', u) with u a unit and 2^l n_a == u 2^l' n_b."""
    cycle_a = residue_cycle(modulus, n_a)
    cycle_b = residue_cycle(modulus, n_b)
    for total in range(len(cycle_a) + len(cycle_b) - 1):
        for la in range(min(total, len(cycle_a) - 1) + 1):
            lb = total - la
            if lb >= len(cycle_b):
                continue
            ra, rb = cycle_a[la], cycle_b[lb]
            if ra in _unit_multiples(modulus, rb):
                for u in units_mod(modulus):
                    if (u * rb - ra) % modulus == 0:
                        return IsoWitness(l=la, l_prime=lb, unit=u)
    return None


def _pair_search(modulus: int, seeds: list[tuple[int, int]]) -> list[list[tuple[int, int] | None]]:
    """For every residue pair (a, b), the smallest (by l + l', then l)
    exponents with (2^l a, 2^l' b) in ``seeds``, or None if there are none.

    A backward breadth-first search from the seeds over the pair graph, whose
    edges double one coordinate, gives l + l'; a second pass in order of
    distance takes the smallest l over the shortest paths.
    """
    halves: list[list[int]] = [[] for _ in range(modulus)]
    for r in range(modulus):
        halves[2 * r % modulus].append(r)
    dist = {pair: 0 for pair in seeds}
    order = list(dist)
    for a, b in order:  # grows while it is walked: breadth-first order
        for pair in [(h, b) for h in halves[a]] + [(a, h) for h in halves[b]]:
            if pair not in dist:
                dist[pair] = dist[(a, b)] + 1
                order.append(pair)
    table: list[list[tuple[int, int] | None]] = [[None] * modulus for _ in range(modulus)]
    for a, b in order:  # by distance, so every next pair on a shortest path is done
        d = dist[(a, b)]
        ls = [0] if d == 0 else []
        if dist.get((2 * a % modulus, b)) == d - 1:  # double a: l grows by one
            ls.append(table[2 * a % modulus][b][0] + 1)
        if dist.get((a, 2 * b % modulus)) == d - 1:  # double b: l' grows by one
            ls.append(table[a][2 * b % modulus][0])
        table[a][b] = (min(ls), d - min(ls))
    return table


def exact_witness_table(modulus: int) -> list[list[IsoWitness | None]]:
    """``table[a][b]`` is the minimal exact witness for residues a, b."""
    seeds = [(r, r) for r in range(modulus)]
    return [
        [None if t is None else IsoWitness(l=t[0], l_prime=t[1], unit=1) for t in row]
        for row in _pair_search(modulus, seeds)
    ]


def stable_witness_table(modulus: int) -> list[list[IsoWitness | None]]:
    """``table[a][b]`` is the minimal stable witness for residues a, b: the
    pair search seeded by every pair (u b, b) with u a unit, then the
    smallest such u at the pair the exponents reach."""
    smallest_unit: dict[tuple[int, int], int] = {}
    for u in units_mod(modulus):  # ascending, so the first unit to reach a pair is the smallest
        for b in range(modulus):
            smallest_unit.setdefault((u * b % modulus, b), u)
    table = _pair_search(modulus, list(smallest_unit))
    out: list[list[IsoWitness | None]] = [[None] * modulus for _ in range(modulus)]
    for a in range(modulus):
        for b in range(modulus):
            if table[a][b] is not None:
                l, l_prime = table[a][b]
                end = (a * pow(2, l, modulus) % modulus, b * pow(2, l_prime, modulus) % modulus)
                out[a][b] = IsoWitness(l=l, l_prime=l_prime, unit=smallest_unit[end])
    return out


def _union_find_classes(modulus: int, with_units: bool) -> list[int]:
    parent = list(range(modulus))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    units = units_mod(modulus) if with_units else ()
    for n in range(modulus):
        union(n, (2 * n) % modulus)
        for u in units:
            union(n, (u * n) % modulus)
    return [find(n) for n in range(modulus)]


def exact_class_partition(modulus: int) -> list[int]:
    """Class representative per weight in [0, modulus): exact isomorphism.

    Two weights are exactly isomorphic iff their forward two-power orbits
    meet, which is the weak connectivity of n -> 2n on Z/modulus.
    """
    return _union_find_classes(modulus, with_units=False)


def stable_class_partition(modulus: int) -> list[int]:
    """Class representative per weight in [0, modulus): stable isomorphism
    by honest unit-and-doubling enumeration (no gcd shortcut)."""
    return _union_find_classes(modulus, with_units=True)


# --------------------------------------------------------------------------
# whole-modulus stable partitions


def stable_gcd_partition(modulus: int) -> list[int]:
    """Class key per weight from the gcd route."""
    m_odd = odd_part(modulus)
    return [gcd(n, m_odd) for n in range(modulus)]


def partitions_agree(p: list[int], q: list[int]) -> bool:
    """Whether two labelings induce the same partition."""
    fwd: dict[int, int] = {}
    back: dict[int, int] = {}
    for a, b in zip(p, q):
        if fwd.setdefault(a, b) != b:
            return False
        if back.setdefault(b, a) != a:
            return False
    return True


def stable_partition_disagreements(max_modulus: int) -> list[int]:
    """Moduli up to max_modulus where the enumeration and gcd routes induce
    different stable partitions (expected empty)."""
    bad = []
    for modulus in range(1, max_modulus + 1):
        if not partitions_agree(stable_class_partition(modulus), stable_gcd_partition(modulus)):
            bad.append(modulus)
    return bad


# --------------------------------------------------------------------------
# dyadic rationals


def dyadic_strictly_between(lo: Fraction, hi: Fraction) -> Fraction:
    """Some dyadic rational (a power-of-two denominator) in the open interval (lo, hi)."""
    if not lo < hi:
        raise ValueError("empty interval")
    gap = hi - lo
    e = 0
    while Fraction(1, 1 << e) >= gap:
        e += 1
    d = Fraction(math.floor(lo * (1 << e)) + 1, 1 << e)
    assert lo < d < hi
    return d
