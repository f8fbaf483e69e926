"""Output checks against oracles computed here, independently of the program.

``check(query, exit_code, stdout, stderr, report_cls)`` returns ``None``
when the output is right and a one-line reason when it is not.  The oracles
use only the standard library and the generated input:

* invariant / fullness: x = 2^v2(m-1) * gcd(odd(m-1), N); stabilized-full
  and a Full unstabilized verdict iff m != 0 or the tail doubles; alpha,
  k and N from the prefix; the truncation oracle's torsion is [x].
* compare: exact verdict = the two two-power orbits intersect; stable
  verdict = gcd(N_a, M) == gcd(N_b, M) with M = odd(m-1); every witness
  re-substitutes with a unit.
* scan: per row, stable classes = d(M) and exact classes =
  sum over d | M of phi(d) / ord_d(2).
* every JSON report round-trips through ``Report.from_json_dict``.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd


def two_adic_valuation(n: int) -> int:
    return (n & -n).bit_length() - 1


def odd_part(n: int) -> int:
    return n >> two_adic_valuation(n)


def weight(prefix) -> int:
    n_weight = 0
    for n in prefix:
        n_weight = 2 * n_weight + n
    return n_weight


def orbit(modulus: int, n: int) -> set[int]:
    """{2^l * n mod modulus : l >= 0}."""
    seen: set[int] = set()
    r = n % modulus
    while r not in seen:
        seen.add(r)
        r = 2 * r % modulus
    return seen


def exact_iso(modulus: int, n_a: int, n_b: int) -> bool:
    return not orbit(modulus, n_a).isdisjoint(orbit(modulus, n_b))


def stable_iso(modulus: int, n_a: int, n_b: int) -> bool:
    m_odd = odd_part(modulus)
    return gcd(n_a, m_odd) == gcd(n_b, m_odd)


def torsion_order(m: int, n_weight: int) -> int:
    b = m - 1
    return (1 << two_adic_valuation(b)) * gcd(odd_part(b), n_weight)


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in _factor(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return divs


def _phi(n: int) -> int:
    out = n
    for p in _factor(n):
        out = out // p * (p - 1)
    return out


def _order_of_two(d: int) -> int:
    if d == 1:
        return 1
    k, r = 1, 2 % d
    while r != 1:
        r = 2 * r % d
        k += 1
    return k


@lru_cache(maxsize=None)
def class_counts(m: int) -> tuple[int, int]:
    """(exact classes, stable classes) of weights mod m - 1, closed forms."""
    divs = _divisors(odd_part(m - 1))
    return sum(_phi(d) // _order_of_two(d) for d in divs), len(divs)


def alpha_text(member) -> str:
    if member.tail == "doubling":
        return "inf"
    k = len(member.prefix)
    total = sum(Fraction(n, 1 << (i + 1)) for i, n in enumerate(member.prefix))
    if member.tail == "constant":
        total += Fraction(member.c, 1 << k)
    return str(total)


# --------------------------------------------------------------------------
# parsing: text and JSON reduce to the same plain values

_NONE = "None"


def _opt(v):
    return None if v in (None, _NONE) else str(v)


def _field(text: str, pattern: str) -> str | None:
    match = re.search(pattern, text, re.MULTILINE)
    return match.group(1) if match else None


def _parse_text(command: str, out: str) -> dict:
    got: dict = {}
    if command in ("invariant", "fullness"):
        s = re.search(r"^scalars: alpha=(\S+) k=(\S+) N=(\S+) x=(\S+) M=(\S+)$", out, re.MULTILINE)
        if s:
            got["scalars"] = tuple(_opt(v) for v in s.groups())
        t = re.search(r"^truncation oracle: depth=(\d+) free rank=(\d+) torsion=\[([\d, ]*)\]$",
                      out, re.MULTILINE)
        if t:
            torsion = tuple(int(v) for v in t.group(3).split(",") if v.strip())
            got["truncation"] = (int(t.group(2)), torsion)
        f = re.search(r"^fullness: .* stabilized-full=(\w+) unstabilized=(\w+)$", out, re.MULTILINE)
        if f:
            got["fullness"] = (f.group(1) == "True", f.group(2))
    elif command == "compare":
        verdict = _field(out, r"^isomorphic: (\w+)$")
        if verdict not in ("True", "False"):
            raise ValueError(f"no isomorphic verdict line, got {verdict!r}")
        got["isomorphic"] = verdict == "True"
        got["reason"] = _field(out, r"^reason: (.*)$")
        w = re.search(r"^witness: l=(\d+) l'=(\d+) unit=(\d+)$", out, re.MULTILINE)
        got["witness"] = tuple(int(v) for v in w.groups()) if w else None
    else:
        lines = out.splitlines()
        start = lines.index("m  exact-classes  stable-classes") + 1
        rows = []
        m = 2
        for line in lines[start:]:
            if line.startswith("smallest divergent m:"):
                break
            # columns run together once m has three digits; m is known
            if not line.startswith(str(m)):
                raise ValueError(f"scan row {line!r} does not start with m={m}")
            e, s = line[len(str(m)):].split()[:2]
            rows.append((m, int(e), int(s)))
            m += 1
        got["rows"] = rows
        got["smallest"] = _opt(_field(out, r"^smallest divergent m: (\S+)$"))
    return got


def _parse_json(command: str, d: dict) -> dict:
    got: dict = {}
    if command in ("invariant", "fullness"):
        s = d["scalars"]
        got["scalars"] = tuple(_opt(s[key]) for key in ("alpha", "k", "N", "x", "M"))
        trunc = (d["invariant"] or {}).get("truncation")
        if trunc:
            got["truncation"] = (int(trunc["freeRank"]), tuple(int(v) for v in trunc["torsion"]))
        if d["verdict"] is not None:
            got["fullness"] = (d["verdict"]["stabilizedFull"], d["verdict"]["unstabilized"])
    elif command == "compare":
        got["isomorphic"] = d["verdict"]["isomorphic"]
        got["reason"] = d["verdict"].get("reason")
        w = d["witness"]
        got["witness"] = None if w is None else (int(w["l"]), int(w["lPrime"]), int(w["unit"]))
    else:
        got["rows"] = [(int(r["m"]), int(r["exactClasses"]), int(r["stableClasses"]))
                       for r in d["verdict"]["table"]]
        got["smallest"] = d["verdict"]["smallestDivergentM"]
    return got


# --------------------------------------------------------------------------
# expectations


def _expect_member(query) -> dict:
    (member,) = query.members
    m = member.m
    finite = m not in (0, math.inf)
    want: dict = {}
    zero_tail = member.tail == "zero"
    n_weight = weight(member.prefix) if zero_tail else None
    x = torsion_order(m, n_weight) if finite else None
    want["scalars"] = (
        alpha_text(member),
        _opt(len(member.prefix) if zero_tail else None),
        _opt(n_weight),
        _opt(x),
        _opt(odd_part(m - 1) if finite else None),
    )
    if query.command == "invariant":
        if finite:
            want["truncation"] = (1, (x,) if x > 1 else ())
    else:
        full = m != 0 or member.tail == "doubling"
        want["fullness"] = (full, "Full" if full else "Unknown")
    return want


def _check_compare(query, got: dict) -> str | None:
    a, b = query.members
    if a.m != b.m:
        if got["isomorphic"] or got["reason"] != "m mismatch" or got["witness"] is not None:
            return f"expected the 'm mismatch' negative, got {got}"
        return None
    modulus = a.m - 1
    n_a, n_b = weight(a.prefix), weight(b.prefix)
    decide = exact_iso if query.mode == "exact" else stable_iso
    expected = decide(modulus, n_a, n_b)
    if got["isomorphic"] != expected:
        return f"{query.mode} verdict {got['isomorphic']}, oracle says {expected}"
    if not expected:
        return None if got["witness"] is None else "negative verdict carries a witness"
    if got["witness"] is None:
        return "positive verdict without a witness"
    l, l_prime, u = got["witness"]
    if gcd(u, modulus) != 1 or (query.mode == "exact" and u != 1):
        return f"witness unit {u} is not allowed mod {modulus}"
    if ((1 << l) * n_a - u * (1 << l_prime) * n_b) % modulus:
        return f"witness ({l}, {l_prime}, {u}) does not re-substitute mod {modulus}"
    return None


def _check_scan(query, got: dict) -> str | None:
    want_rows = [(m, *class_counts(m)) for m in range(2, query.max_m + 1)]
    if got["rows"] != want_rows:
        first = next((w for g, w in zip(got["rows"], want_rows) if g != w), None)
        return f"scan table differs from the closed forms (first at {first}, " \
               f"{len(got['rows'])} rows for {len(want_rows)})"
    smallest = next((str(m) for m, e, s in want_rows if e != s), None)
    if got["smallest"] != smallest:
        return f"smallest divergent m {got['smallest']}, closed form gives {smallest}"
    return None


def check(query, exit_code, stdout: str, stderr: str, report_cls) -> str | None:
    """Reason the output of ``query`` is wrong, or ``None`` when it is right.

    ``report_cls`` is the program's ``Report`` class, used for the JSON
    round-trip check.
    """
    if query.error is not None:
        if exit_code != 2 or f"[{query.error}]" not in stderr:
            return f"expected exit 2 with [{query.error}], got exit {exit_code}: {stderr.strip()!r}"
        return None
    if exit_code != 0:
        return f"exit {exit_code}: {stderr.strip()!r}"
    try:
        if query.fmt == "json":
            d = json.loads(stdout)
            if report_cls.from_json_dict(d).to_json_dict() != d:
                return "JSON report does not round-trip"
            got = _parse_json(query.command, d)
        else:
            got = _parse_text(query.command, stdout)
    except (ValueError, KeyError, TypeError) as err:
        return f"unparsable {query.fmt} output: {err!r}"
    if query.command == "compare":
        return _check_compare(query, got)
    if query.command == "scan":
        return _check_scan(query, got)
    want = _expect_member(query)
    for key, value in want.items():
        if got.get(key) != value:
            return f"{key}: got {got.get(key)}, oracle says {value}"
    return None
