"""Seeded query generators for the three benchmark workloads.

Every workload is an endless stream of *blocks*.  A block is a stratified
sample of the workload's input space: it always has the same composition
(the same strata of prefix length, modulus or scan limit, the same command,
format and verdict mix) and the seed only chooses the values inside each
stratum and, except in compare-orbits, the order.  A run that measures whole blocks therefore does the
same amount of work on every seed, which keeps run-to-run spread small.

The program under test sees only ``Query.argv``; the other fields describe
the same input for the output checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from math import gcd

from checks import exact_iso, odd_part, orbit

INF = math.inf
WORKLOADS = ("invariant-deep", "compare-orbits", "scan-sweep")


@dataclass(frozen=True)
class Member:
    """One family member: loop count (``INF`` for infinity), prefix, tail."""

    m: int | float
    prefix: tuple[int, ...]
    tail: str = "zero"
    c: int | None = None

    def flags(self) -> list[str]:
        tail = self.tail if self.c is None else f"{self.tail}:{self.c}"
        return ["--m", m_text(self.m), "--n", ",".join(map(str, self.prefix)), "--tail", tail]

    def compact(self) -> str:
        return f"m={m_text(self.m)},n=[{','.join(map(str, self.prefix))}]"


@dataclass(frozen=True)
class Query:
    """A generated command line and the facts the checker needs about it.

    ``error`` names the error the contract fixes for this input (exit 2);
    ``None`` means a computed verdict (exit 0) is expected.
    """

    argv: tuple[str, ...]
    members: tuple[Member, ...] = ()
    mode: str | None = None
    max_m: int | None = None
    error: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]


def m_text(m) -> str:
    return "inf" if m == INF else str(m)


def blocks(workload: str, seed: int):
    """Endless iterator of query blocks for ``workload`` at ``seed``."""
    makers = {
        "invariant-deep": _invariant_block,
        "compare-orbits": _compare_block,
        "scan-sweep": _scan_block,
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield makers[workload](rng)


def _balanced(rng: random.Random, values, count: int) -> list:
    """``count`` items cycling through ``values`` equally, in seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _digits(rng: random.Random, k: int) -> tuple[int, ...]:
    prefix = [rng.choices((0, 1, 2, 3), weights=(4, 3, 2, 1))[0] for _ in range(k)]
    if not any(prefix):
        prefix[rng.randrange(k)] = 1
    return tuple(prefix)


# --------------------------------------------------------------------------
# invariant-deep: Smith forms and ktheory; the congruence layer is idle.

K_RANGE = (8, 100)
K_STRATA = 15
M_MAX = 10**6


def _finite_m(rng: random.Random, deep: bool) -> int:
    """m in [2, 1e6]; when ``deep``, m - 1 = 2^v * odd with v in [6, 19],
    whose large 2-adic valuation deepens the truncation oracle."""
    if not deep:
        return rng.randrange(2, M_MAX + 1)
    v = rng.randrange(6, 20)
    return (rng.randrange(1, (M_MAX >> v) + 1, 2) << v) + 1


def _invariant_block(rng: random.Random) -> list[Query]:
    """20 queries: 15 finite m with k stratified over K_RANGE, 4 with
    m = 0 or inf, 1 contract error; invariant/fullness and text/JSON 50/50.

    The Smith form cost grows with k, and fullness runs 4 of them where
    invariant runs 3, so the command and the deep valuation alternate along
    the k strata instead of landing on them at random.
    """
    lo, hi = K_RANGE
    flip_cmd, flip_deep = rng.randrange(2), rng.randrange(2)
    queries: list[tuple[str, Member, str | None]] = []
    for i in range(K_STRATA):
        k = lo + int((i + rng.random()) * (hi - lo + 1) / K_STRATA)
        member = Member(_finite_m(rng, bool((i // 2 + flip_deep) % 2)), _digits(rng, k))
        queries.append((("invariant", "fullness")[(i + flip_cmd) % 2], member, None))
    # the 15 above hold one more of the first command; these 5 even it out
    rest = _balanced(rng, ("invariant", "fullness") if flip_cmd else ("fullness", "invariant"), 5)
    for cmd in rest[:4]:
        m = rng.choice((0, INF))
        tail = rng.choice(("zero", "constant", "doubling"))
        c = None if tail == "zero" else rng.randrange(1, 6)
        queries.append((cmd, Member(m, _digits(rng, rng.randrange(1, 41)), tail, c), None))
    if rng.random() < 0.5:
        queries.append((rest[4], Member(1, _digits(rng, rng.randrange(1, 20))), "ConditionK"))
    else:
        m = rng.choice((0, _finite_m(rng, False)))
        queries.append((rest[4], Member(m, (0,) * rng.randrange(1, 20)), "NoIdealEdge"))
    rng.shuffle(queries)
    formats = _balanced(rng, ("text", "json"), len(queries))
    return [
        Query((cmd, *member.flags(), "--format", fmt), (member,), error=error)
        for (cmd, member, error), fmt in zip(queries, formats)
    ]


# --------------------------------------------------------------------------
# compare-orbits: the per-pair congruence path only, no Smith forms.

# m - 1 values.  Long two-power orbits at small moduli (10000 = 2^4 * 5^4 has
# orbit length 504) load residue_cycle and the witness pair scan; short
# orbits at large moduli (131071 = 2^17 - 1, length 17) load units_mod and
# the cached unit sets.  Every orbit is at most ~500 long, which keeps a
# single query near or below one second.
BIG_MODULI = (43691, 65537, 131071, 262143)
LONG_ORBIT_MODULI = (1458, 2916, 5000, 10000)
MID_MODULI = (4097, 8191, 32767)
SHORT_ORBIT_MODULI = (1000, 2000, 24000)
# divisors and neighbours of 2^10 - 1 ... 2^14 - 1 and 2^10 + 1, 2^11 + 1:
# orbits of length 10 to 22 and small unit groups, so their queries cost a
# few milliseconds and the median query lies inside this cheap majority,
# not on its edge
FAST_MODULI = (1023, 1025, 1365, 2047, 2049, 2730, 4095, 5461, 8190, 16383)
POOL = BIG_MODULI + LONG_ORBIT_MODULI + MID_MODULI + SHORT_ORBIT_MODULI + FAST_MODULI
# every modulus of the pool gets one run per block with these (mode,
# positive, variant) kinds, in this order; the variant fixes the shape of
# the pair (see _pair), so each block costs about the same whatever the seed
COMPARE_RUN = tuple((mode, positive, variant) for variant in (0, 1)
                    for positive in (True, False) for mode in ("exact", "stable"))
COMPARE_ERRORS = ("ConditionK", "NoIdealEdge", "OutOfScope-0", "OutOfScope-inf", "m mismatch")


def _weight_member(rng: random.Random, m: int, residue: int) -> Member:
    """A member whose weight N is congruent to ``residue`` mod m - 1.

    N is lifted by a random multiple of the modulus; the prefix is the
    binary expansion of N, with some ``1 0`` digit pairs rewritten to the
    equal-weight ``0 2`` and up to two leading zeros, neither of which
    changes N.
    """
    modulus = m - 1
    n_weight = residue % modulus + modulus * rng.randrange(0 if residue % modulus else 1, 4)
    digits = [int(b) for b in bin(n_weight)[2:]]
    for i in range(len(digits) - 1):
        if digits[i] and not digits[i + 1] and rng.random() < 0.3:
            digits[i] -= 1
            digits[i + 1] = 2
    return Member(m, (0,) * rng.randrange(3) + tuple(digits))


def _coprime(rng: random.Random, modulus: int, to: int) -> int:
    while True:
        r = rng.randrange(1, modulus)
        if gcd(r, to) == 1:
            return r


def _pair(rng: random.Random, modulus: int, mode: str, positive: bool, variant: int):
    """Weights (n_a, n_b) mod ``modulus`` with the requested verdict.

    ``coprime`` weights have the full two-power orbit; ``p_multiple``
    weights share exactly the smallest odd prime p of the modulus, so their
    gcd with the odd part differs and their orbit is shorter.
    """
    m_odd = odd_part(modulus)
    p = next(d for d in range(3, m_odd + 1, 2) if m_odd % d == 0)

    def coprime():
        return _coprime(rng, modulus, m_odd)

    def p_multiple():
        return p * coprime() % modulus

    n_a = p_multiple() if (mode, positive, variant) == ("stable", True, 1) else coprime()
    length = len(orbit(modulus, n_a))
    if mode == "exact" and positive:
        # the witness search grows with j: one j from each half of the orbit
        half = length // 2
        j = rng.randrange(half) if variant == 0 else rng.randrange(half, length)
        return n_a, pow(2, j, modulus) * n_a % modulus
    if mode == "exact":
        # variant 0 tries a unit multiple outside the orbit (stably but not
        # exactly equivalent); a p-multiple never shares the orbit
        if variant == 0:
            for _ in range(20):
                n_b = _coprime(rng, modulus, modulus) * n_a % modulus
                if not exact_iso(modulus, n_a, n_b):
                    return n_a, n_b
        return n_a, p_multiple()
    if positive:
        u = _coprime(rng, modulus, modulus)
        return n_a, u * pow(2, rng.randrange(length), modulus) * n_a % modulus
    # variant 1 puts the long orbit second, which the pair scan pays for
    return (n_a, p_multiple()) if variant == 0 else (p_multiple(), n_a)


def _compare_error(rng: random.Random, kind: str) -> Query:
    modulus = rng.choice(POOL)
    m = modulus + 1
    good = _weight_member(rng, m, rng.randrange(1, modulus))
    error = kind
    if kind == "ConditionK":
        a, b = Member(1, good.prefix), good
    elif kind == "NoIdealEdge":
        a, b = good, Member(m, (0,) * rng.randrange(1, 6))
    elif kind.startswith("OutOfScope"):
        loops = 0 if kind.endswith("0") else INF
        a = Member(loops, _digits(rng, rng.randrange(1, 12)))
        b = Member(loops, _digits(rng, rng.randrange(1, 12)))
        error = "OutOfScope"
    else:  # a negative verdict, not an error: the loop counts differ
        other = rng.choice([x for x in POOL if x != modulus])
        a, b = good, _weight_member(rng, other + 1, rng.randrange(1, other))
        error = None
    mode = rng.choice(("exact", "stable"))
    fmt = rng.choice(("text", "json"))
    argv = ("compare", "--a", a.compact(), "--b", b.compact(), "--mode", mode, "--format", fmt)
    return Query(argv, (a, b), mode=mode, error=error)


def _compare_block(rng: random.Random) -> list[Query]:
    """One run of 8 queries sharing m per pool modulus, plus 10 contract cases.

    The moduli come in a fixed order, so the cache of unit sets sees the
    same pattern on every seed.  Each big modulus is followed by a
    long-orbit one, whose stable negatives insert ~500 new entries into the
    512-entry cache and so evict the big modulus's sets: at most one big
    modulus's sets are alive at a time.
    """
    order = [x for pair in zip(BIG_MODULI, LONG_ORBIT_MODULI) for x in pair]
    order += [x for pair in zip(MID_MODULI, SHORT_ORBIT_MODULI) for x in pair] + list(FAST_MODULI)
    runs: list[list[Query]] = []
    first_format = rng.randrange(2)
    for modulus in order:
        m = modulus + 1
        run = []
        for i, (mode, positive, variant) in enumerate(COMPARE_RUN):
            n_a, n_b = _pair(rng, modulus, mode, positive, variant)
            a, b = _weight_member(rng, m, n_a), _weight_member(rng, m, n_b)
            # each (mode, verdict) pair gets one text and one JSON query
            fmt = ("text", "json")[(i + i // 4 + first_format) % 2]
            argv = ("compare", "--a", a.compact(), "--b", b.compact(),
                    "--mode", mode, "--format", fmt)
            run.append(Query(argv, (a, b), mode=mode))
        runs.append(run)
    # contract cases (about 5% of the block) go between runs, so runs
    # still share one m
    for kind in COMPARE_ERRORS * 2:
        runs.insert(rng.randrange(len(runs) + 1), [_compare_error(rng, kind)])
    return [q for run in runs for q in run]


# --------------------------------------------------------------------------
# scan-sweep: whole-modulus class counting and the largest reports.

SCAN_RANGE = (40, 200)
# seven strata put the median in the middle of one stratum, among many
# similar queries, rather than between two
SCAN_BLOCK = 7


def _scan_block(rng: random.Random) -> list[Query]:
    lo, hi = SCAN_RANGE
    limits = [lo + int((i + rng.random()) * (hi - lo + 1) / SCAN_BLOCK) for i in range(SCAN_BLOCK)]
    rng.shuffle(limits)
    formats = _balanced(rng, rng.sample(("text", "json"), 2), SCAN_BLOCK)
    return [
        Query(("scan", "--max-m", str(v), "--format", fmt), max_m=v)
        for v, fmt in zip(limits, formats)
    ]
