"""Independent reference routes that the test suite checks the library against.

None of these is on a production path: each one re-derives, by a slower or
more literal route, a quantity the library computes in closed form.

* :func:`sympy_cokernel` - the cokernel read off sympy's invariant factors
  of the whole dense matrix, a separate implementation that eliminates no
  unit pivots first; it is the one dense reference;
* :func:`dense` - the library's :class:`SparseMatrix` written out as a
  dense ``sympy.Matrix``;
* :func:`dense_presentation` - the truncated presentation written out as a
  dense (depth+1) x depth ``sympy.Matrix``, entry by entry;
* :func:`summed_alpha` - alpha = sum(n_i / 2^i), summed term by term;
* :func:`in_torsion_range` - whether a torsion order occurs at a loop count,
  by two divisibility tests and no factorisation;
* :func:`find_order_isomorphism` - a bounded search for an alpha-cone map;
* :func:`k_lexicographic_by_clauses` - the paper's two-clause ordering
  condition read from a printed invariant section's tags, clause 1 by
  :func:`cone_contains` on a box of elements (:func:`cone_box`);
* :func:`two_power_orbit`, :func:`unit_residues` - a doubling orbit and the
  units of a modulus, computed here rather than by the library's walk and
  unit list, so that a fault in those is not shared with these oracles;
* :func:`walked_exact_witness`, :func:`walked_alpha_cones_isomorphic` - the
  exact witness and the alpha-cone criterion by a walk along
  :func:`two_power_orbit`, in time and memory linear in the orbit length;
* :func:`enumerated_exact_witness`, :func:`enumerated_stable_witness` - the
  minimal witnesses by a pair scan over both two-power orbits (and, for the
  stable one, over every unit);
* :func:`exact_witness_table`, :func:`stable_witness_table` - the minimal
  witness of every residue pair of one modulus at once, by a backward
  breadth-first search over residue pairs;
* :func:`exact_class_partition`, :func:`stable_class_partition` - class
  representatives by union-find over every residue (and every unit);
* :func:`burnside_exact_class_count` - the number of exact classes by
  Burnside's lemma, counting the residues each power of two fixes;
* :func:`stable_gcd_partition`, :func:`partitions_agree`,
  :func:`stable_partition_disagreements` - whole-modulus comparison of the
  unit-enumeration and gcd stable partitions;
* :func:`scan_text_from_json` - the text view of a ``scan`` report rendered
  from its JSON row dicts, not from the sieve's ints.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from math import gcd

import sympy
from sympy.matrices.normalforms import invariant_factors

from oneideal import FamilySpec
from oneideal.classify import IsoWitness
from oneideal.dyadic import (
    ExtendedRational,
    is_infinite,
    odd_part,
    two_adic_valuation,
)
from oneideal.exactlinalg import SparseMatrix

# --------------------------------------------------------------------------
# dense matrices and the cokernel by sympy


def sympy_cokernel(m: sympy.Matrix) -> tuple[int, list[int]]:
    """Free rank and torsion (the invariant factors above 1) of
    Z^rows / (column span of ``m``), by sympy's ``invariant_factors``."""
    nonzero = [int(d) for d in invariant_factors(m, domain=sympy.ZZ) if d]
    return m.rows - len(nonzero), [d for d in nonzero if d > 1]


def dense(m: SparseMatrix) -> sympy.Matrix:
    """The same matrix with every entry stored, zeros included."""
    out = sympy.zeros(m.rows, len(m.columns))
    for j, col in enumerate(m.columns):
        for i, v in col:
            out[i, j] = v
    return out


def dense_presentation(spec: FamilySpec, depth: int) -> sympy.Matrix:
    """The relation matrix of the depth-truncated presentation, every entry
    stored: column i < depth - 1 is w_i - 2 w_{i+1}, the last column
    sum(n_i w_i) + (m-1) v0, over generators (w_1, ..., w_depth, v0)."""
    out = sympy.zeros(depth + 1, depth)
    for j in range(depth - 1):
        out[j, j] = 1
        out[j + 1, j] = -2
    for i, n in enumerate(spec.prefix):
        out[i, depth - 1] = n
    out[depth, depth - 1] = spec.m - 1
    return out


# --------------------------------------------------------------------------
# alpha by summing the series


def summed_alpha(spec: FamilySpec) -> ExtendedRational:
    """sum(n_i / 2^i) over the prefix plus c / 2^k for a constant tail, as
    exact fractions term by term; infinity for a doubling tail."""
    if spec.tail.kind == "doubling":
        return math.inf
    k = len(spec.prefix)
    total = sum(Fraction(n, 1 << (i + 1)) for i, n in enumerate(spec.prefix))
    if spec.tail.kind == "constant":
        total += Fraction(spec.tail.c, 1 << k)
    return total


# --------------------------------------------------------------------------
# the torsion orders that occur


def in_torsion_range(m: int, x: int) -> bool:
    """Whether some member with loop count 1 < m < infinity has middle
    torsion order x: the two-part of m-1 times a divisor of its odd part."""
    two = 1 << two_adic_valuation(m - 1)
    return x % two == 0 and odd_part(m - 1) % (x // two) == 0


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
    fails.  Independent of :func:`walked_alpha_cones_isomorphic` by
    construction.
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
# the paper's fullness condition, read from a printed invariant section


def cone_contains(cone: dict, *element) -> bool:
    """Whether a printed cone holds ``element``: (x,) of Z[1/2], (n,) of Z,
    or (x, n) of Z[1/2] (+) Z; an unknown tag is a ValueError."""
    tag = cone["tag"]
    if tag == "AlphaCone":
        alpha = math.inf if cone["alpha"] == "inf" else Fraction(cone["alpha"])
        return _slice_contains(alpha, *element)
    if tag not in ("AllPositive", "StandardDyadicCone", "StandardIntegerCone"):
        raise ValueError(f"no membership rule for the cone {tag!r}")
    return tag == "AllPositive" or element[0] >= 0


def cone_box(alpha: str) -> list[tuple[Fraction, int]]:
    """The elements (x, n) with |n| <= 2 and x in Z/4, |x| <= 2 (alpha + 1),
    or 2 at alpha = infinity: they include (-n alpha - 1, n) for n = 1, 2.
    An alpha past 64 is a ValueError, which keeps the box small."""
    reach = 0 if alpha == "inf" else math.ceil(Fraction(alpha))
    if reach > 64:
        raise ValueError(f"alpha {alpha} is past the box")
    width = 8 * (reach + 1)
    return [(Fraction(c, 4), n) for n in range(-2, 3) for c in range(-width, width + 1)]


def k_lexicographic_by_clauses(section: dict) -> bool:
    """The paper's two-clause ordering condition on a printed invariant
    section, read from its tags; a clause whose hypothesis fails holds.
    (1) If the quotient cone is proper, the cone sequence is lexicographic:
    on :func:`cone_box`, the middle cone holds (x, n) iff n != 0 lies in the
    quotient cone, or n = 0 and x lies in the ideal cone.  It is decided on
    the split sequence Z[1/2] -> Z[1/2] (+) Z -> Z alone, else ValueError.
    (2) If the quotient is all-positive with a full class, so is the middle."""
    ideal, middle, quotient = (section[key]["cone"] for key in ("ideal", "middle", "quotient"))
    if quotient["tag"] != "AllPositive":
        groups = tuple(section[key]["group"]["tag"] for key in ("ideal", "middle", "quotient"))
        if groups != ("DyadicLine", "DyadicPlusFree", "FreeZ"):
            raise ValueError(f"no lexicographic rule for the groups {groups}")
        lexicographic = all(
            cone_contains(middle, x, n) == cone_contains(*((quotient, n) if n else (ideal, x)))
            for x, n in cone_box(middle.get("alpha", "inf"))
        )
        if not lexicographic:
            return False
    full = {"tag": "AllPositive", "withFullClass": True}
    return quotient != full or middle == full


# --------------------------------------------------------------------------
# congruence layer by enumeration: pair scans over both orbits, union-find
# over every residue (and every unit)


def two_power_orbit(modulus: int, n: int) -> list[int]:
    """2^l n mod modulus for l = 0, 1, ... up to the first repeat, in that
    order, collected as the keys of an insertion-ordered dict."""
    seen: dict[int, None] = {}
    r = n % modulus
    while r not in seen:
        seen[r] = None
        r = 2 * r % modulus
    return list(seen)


def unit_residues(modulus: int) -> list[int]:
    """The residues in [1, modulus] that share no prime with the modulus,
    ascending, by striking out the multiples of each prime factor; for
    modulus 1 the one residue [1]."""
    is_unit = [True] * (modulus + 1)
    rest, p = modulus, 2
    while rest > 1:
        if rest % p == 0:
            is_unit[p::p] = [False] * (modulus // p)
            while rest % p == 0:
                rest //= p
        p += 1
    return [u for u in range(1, modulus + 1) if is_unit[u]]


@functools.cache
def _smallest_units(modulus: int, r: int) -> dict[int, int]:
    """Each residue u r mod modulus, u a unit, mapped to its smallest such u."""
    out: dict[int, int] = {}
    for u in unit_residues(modulus):
        out.setdefault(u * r % modulus, u)
    return out


def walked_exact_witness(modulus: int, n_a: int, n_b: int) -> IsoWitness | None:
    """Smallest (by l + l', then l) exponent pair with 2^l n_a == 2^l' n_b,
    by one walk along the orbit of n_a against an index of the orbit of n_b;
    linear in the orbit length, so it reaches moduli the pair scan cannot."""
    index = {r: lb for lb, r in enumerate(two_power_orbit(modulus, n_b))}
    orbit_a = two_power_orbit(modulus, n_a)
    meets = ((la + index[r], la) for la, r in enumerate(orbit_a) if r in index)
    total, la = min(meets, default=(None, None))
    return None if total is None else IsoWitness(l=la, l_prime=total - la, unit=1)


def walked_alpha_cones_isomorphic(a: ExtendedRational, b: ExtendedRational) -> bool:
    """The alpha-cone criterion: two cones with parameters a and b are
    order-isomorphic iff b lies in 2^Z * a + Z[1/2], infinity matching only
    infinity.

    Every isomorphism of the underlying group restricts to x -> 2^k x on the
    divisible summand (the free quotient admits no nonzero map from it) and
    so has the triangular shape (x, n) -> (2^k x + s n, n) once cone
    preservation fixes the signs; :func:`find_order_isomorphism` searches
    that family directly as an independent check on the criterion.  For
    finite parameters it reads: the odd parts of the denominators agree and
    the numerator of ``a`` lies on the orbit of the numerator of ``b``
    modulo that odd part.
    """
    if is_infinite(a) or is_infinite(b):
        return a == b
    m0 = odd_part(a.denominator)
    return m0 == odd_part(b.denominator) and a.numerator % m0 in two_power_orbit(m0, b.numerator)


def enumerated_exact_witness(modulus: int, n_a: int, n_b: int) -> IsoWitness | None:
    """Smallest (by l + l', then l) exponent pair with 2^l n_a == 2^l' n_b."""
    cycle_a = two_power_orbit(modulus, n_a)
    cycle_b = two_power_orbit(modulus, n_b)
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
    cycle_a = two_power_orbit(modulus, n_a)
    cycle_b = two_power_orbit(modulus, n_b)
    for total in range(len(cycle_a) + len(cycle_b) - 1):
        for la in range(min(total, len(cycle_a) - 1) + 1):
            lb = total - la
            if lb >= len(cycle_b):
                continue
            u = _smallest_units(modulus, cycle_b[lb]).get(cycle_a[la])
            if u is not None:
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
    for u in unit_residues(modulus):  # ascending, so the first unit to reach a pair is the smallest
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

    units = unit_residues(modulus) if with_units else ()
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


def burnside_exact_class_count(m: int) -> int:
    """Number of exact classes of the weights at loop count m, by Burnside.

    They are the orbits of doubling on Z/M, M the odd part of m-1.  Doubling
    generates a group of order o = ord_M(2), and 2^j fixes gcd(2^j - 1, M)
    residues, so there are (1/o) sum_{j<o} gcd(2^j - 1, M) orbits; no
    divisor of M, Euler phi or order of 2 modulo a divisor is involved.
    """
    modulus = odd_part(m - 1)
    one = 1 % modulus
    power, fixed, order = one, 0, 0
    while True:
        fixed += gcd(power - 1, modulus)
        order += 1
        power = 2 * power % modulus
        if power == one:
            return fixed // order


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
# report rendering


def scan_text_from_json(d: dict) -> str:
    """The text view of a ``scan`` report, rendered from its JSON object:
    each row from its dict of digit strings, each column padded by
    f-string, so that it shares no code with the integer rows of
    ``Report.to_text``."""
    v = d["verdict"]
    (entry,) = d["inputs"]
    lines = ["command: scan", f"input: max-m={entry['maxM']}", "m  exact-classes  stable-classes"]
    width = max([3] + [len(row["m"]) + 1 for row in v["table"]])
    for row in v["table"]:
        e, s = row["exactClasses"], row["stableClasses"]
        marker = "  <- diverges" if e != s else ""
        lines.append(f"{row['m']:<{width}}{e:<15}{s}{marker}")
    lines.append(f"smallest divergent m: {v['smallestDivergentM']}")
    lines.append(f"version: {d['version']}")
    return "\n".join(lines)
