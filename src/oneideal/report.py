"""Reports: each command's JSON object, and the text view rendered from it.

The builders here are the one place that knows the JSON format; a
:class:`Report` holds their output, and its text view reads nothing else.
The scan verdict's table alone keeps the sieve's ``(m, exact, stable)`` int
rows: :func:`write_json` and the text view render them straight to bytes,
and ``Report.to_json_dict`` builds the JSON row objects from them.
Every integer in the JSON form is emitted as a decimal string so consumers
without big-integer support cannot silently lose precision.  Rationals are
emitted as "p/q" strings and infinity as "inf".  Every value in a report
follows from its inputs, so ``Report.from_json_dict`` reads only those (the
family specs, the compare mode, the truncation depth, the scan limit),
recomputes the report with the command line's own code, and accepts the
dict iff that report emits exactly it; otherwise it raises ``ValueError``.
:func:`write_json` writes a report in the bytes of
``json.dumps(..., indent=2, sort_keys=True)`` of the JSON object and a
newline: the whole text in one piece, bar a scan table, which it streams.
A constant section is one shared dict whose text the writer encodes once,
at import, at the one indent where every report places it, and then copies
instead of walking the dict; so a shared section must never be mutated.

The ordered six-term invariant lives here only as its JSON section:
:func:`invariant_to_json` fills one of three templates, one per regime,
whose only parameters are alpha, the torsion order x and m - 1.

Family specs, which users also write by hand, are read by
:func:`spec_from_json`, with explicit checks and messages and within the
input-size limits :data:`MAX_PREFIX_LENGTH` and :data:`MAX_INTEGER_DIGITS`,
and echoed in a report's ``inputs`` in their own digits.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .classify import FULL, UNKNOWN, FullnessVerdict, IsoVerdict
from .dyadic import INF, format_extended, is_infinite, is_int
from .errors import InternalConsistencyError, OneIdealError, WorkLimitError
from .family import MAX_INTEGER_DIGITS, MAX_PREFIX_LENGTH, ZERO_TAIL, FamilySpec, TailSpec
from .ktheory import DerivedScalars
from .version import __version__

UNKNOWN_NOTE = "see Example (α finite): K-theory does not decide"

# The largest ``scan --max-m``: one class-count row per m up to it.
MAX_SCAN_M = 100_000

_DIGIT_BOUND = 10**MAX_INTEGER_DIGITS  # the smallest int past the digit limit


class _Shared(dict):
    """A section that reports share, never to be mutated: ``text`` is what
    :func:`_encode` appends for it at ``indent``, both set at import."""

    __slots__ = ("indent", "text")


def _int_str(v: int | None) -> str | None:
    return None if v is None else str(v)


def read_int(v, what: str) -> tuple[int, str]:
    """A JSON integer (not a bool) or a string of decimal digits, as an int and
    its decimal text: the string without its leading zeros, or ``str`` of the
    int.  Past :data:`MAX_INTEGER_DIGITS` digits a WorkLimitError: a digit
    string is measured before it is converted, an int by its size, so neither
    meets Python's own limit on converting between the two.  Any other text,
    however long, is a ValueError."""
    if isinstance(v, str):
        if v.isascii() and v.isdigit():
            if len(v) > MAX_INTEGER_DIGITS:
                raise WorkLimitError(
                    f"{what} has {len(v)} digits, more than the limit {MAX_INTEGER_DIGITS}"
                )
            return int(v), v.lstrip("0") or "0"
    elif is_int(v):
        if abs(v) >= _DIGIT_BOUND:
            raise WorkLimitError(f"{what} has more digits than the limit {MAX_INTEGER_DIGITS}")
        return v, str(v)
    raise ValueError(f"{what} must be an integer or a string of decimal digits, got {v!r}")


# the required and the allowed keys of a family spec and of its tail; a spec's default tail
_SPEC_KEYS, _SPEC_ALLOWED = frozenset(("m", "n")), frozenset(("m", "n", "tail"))
_TAIL_KEYS, _TAIL_ALLOWED = frozenset(("kind",)), frozenset(("kind", "c"))
_NO_TAIL = _Shared({"kind": "zero"})  # also the echo of every zero tail
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))  # b"7" -> b"\x07"


def _json_object(v, what: str, keys: frozenset[str], allowed: frozenset[str]) -> dict:
    """``v`` as a JSON object with every key in ``keys`` and no key outside
    ``allowed``; else ValueError."""
    if not isinstance(v, dict):
        raise ValueError(f"{what} must be a JSON object, got {v!r}")
    if keys <= v.keys() <= allowed:
        return v
    unknown = sorted(v.keys() - allowed)
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")
    raise ValueError(f"{what} is missing keys {sorted(keys - v.keys())}")


def spec_from_json(d) -> tuple[FamilySpec, dict]:
    """Parse the input schema strictly: every integer is a JSON integer or a
    decimal string ("inf" also for m); nothing else is coerced.  A prefix
    longer than :data:`MAX_PREFIX_LENGTH`, or an integer with more than
    :data:`MAX_INTEGER_DIGITS` digits, raises :class:`WorkLimitError`.
    Returns the spec and its entry in a report's ``inputs``, whose integers
    are the input's digits without leading zeros (``str`` of a Python int)."""
    d = _json_object(d, "family spec", _SPEC_KEYS, _SPEC_ALLOWED)
    m, m_text = (INF, "inf") if d["m"] == "inf" else read_int(d["m"], "m")
    ns = d["n"]
    if type(ns) is not list:
        raise ValueError(f"n must be a JSON list, got {ns!r}")
    if len(ns) > MAX_PREFIX_LENGTH:
        raise WorkLimitError(f"n has {len(ns)} entries, more than the limit {MAX_PREFIX_LENGTH}")
    # one-digit strings (the common prefix) are checked and converted in bulk, as their own
    # text and bytes less b"0"; any other prefix reads entry by entry, naming the bad one
    try:
        joined = "".join(ns)
    except TypeError:  # an entry that is not a string
        joined = ""
    if len(joined) == len(ns) and joined.isascii() and joined.isdigit() and "" not in ns:
        prefix, n_text = tuple(joined.encode().translate(_DIGIT_VALUES)), ns[:]
    else:
        read = [read_int(n, "each entry of n") for n in ns]
        prefix, n_text = tuple(n for n, _ in read), [text for _, text in read]
    tail_d = _json_object(d["tail"], "tail", _TAIL_KEYS, _TAIL_ALLOWED) if "tail" in d else _NO_TAIL
    c, c_text = read_int(tail_d["c"], "tail c") if "c" in tail_d else (None, None)
    kind = tail_d["kind"]
    zero = c is None and kind == "zero"
    tail_text = _NO_TAIL if zero else {"kind": kind} if c is None else {"kind": kind, "c": c_text}
    tail = ZERO_TAIL if zero else TailSpec(kind, c)
    return FamilySpec(m, prefix, tail), {"m": m_text, "n": n_text, "tail": tail_text}


# The invariant section in its three shapes, one per regime: m = 0 (the alpha
# cone in the middle), finite m > 1 (torsion Z/x in the middle, quotient
# Z/(m - 1)) and m = infinity.  Every member's ideal is the dyadic line with
# its standard cone, and every cone of a member with loops is all-positive
# with a full class.  The m = inf section has no parameters, so it is shared whole.
_DYADIC_LINE = _Shared({"symbol": "Z[1/2]", "tag": "DyadicLine"})
_DYADIC_PLUS_Z = _Shared({"symbol": "Z[1/2] (+) Z", "tag": "DyadicPlusFree"})
_Z = _Shared({"symbol": "Z", "tag": "FreeZ"})
_IDEAL = _Shared({"cone": {"tag": "StandardDyadicCone"}, "group": _DYADIC_LINE})
_FULL_CLASS = _Shared({"tag": "AllPositive", "withFullClass": True})
_NO_LOOPS = {
    "caseTag": "AF-AF", "ideal": _IDEAL, "indexMapZero": True,
    "quotient": _Shared({"cone": {"tag": "StandardIntegerCone"}, "group": _Z}),
}
_FINITE_LOOPS = {"caseTag": "AF-PI", "ideal": _IDEAL, "indexMapZero": True}
_INFINITE_LOOPS = _Shared({
    **_FINITE_LOOPS,
    "middle": {"cone": _FULL_CLASS, "group": _DYADIC_PLUS_Z},
    "quotient": {"cone": _FULL_CLASS, "group": _Z},
})


def invariant_to_json(m, scalars: DerivedScalars, truncation: tuple | None = None) -> dict:
    """The invariant section of the member with loop count ``m`` and
    ``scalars`` (as :func:`.ktheory.invariant_of` returns them), with a
    truncation (depth, free rank, torsion) if given, which only 1 < m < inf
    has: its regime's template, filled in with alpha, or with x and m - 1.
    The torsion summand Z/1 is trivial, so x = 1 gives the dyadic line.  The
    templates' parts are shared, and at m = inf so is the whole section, so
    callers must not mutate it."""
    if m == 0:
        alpha_cone = {"alpha": format_extended(scalars.alpha), "tag": "AlphaCone"}
        out = {**_NO_LOOPS, "middle": {"cone": alpha_cone, "group": _DYADIC_PLUS_Z}}
    elif is_infinite(m):
        return _INFINITE_LOOPS
    else:
        x, b = scalars.x, str(m - 1)
        middle = _DYADIC_LINE if x == 1 else {
            "symbol": f"Z[1/2] (+) Z/{x}", "tag": "DyadicPlusTorsion", "torsion": str(x)
        }
        quotient = {"modulus": b, "symbol": f"Z/{b}", "tag": "CyclicMod"}
        out = {
            **_FINITE_LOOPS,
            "middle": {"cone": _FULL_CLASS, "group": middle},
            "quotient": {"cone": _FULL_CLASS, "group": quotient},
        }
    if truncation is not None:
        depth, free_rank, torsion = truncation
        torsion = [str(t) for t in torsion]
        out["truncation"] = {"depth": str(depth), "freeRank": str(free_rank), "torsion": torsion}
    return out


def scalars_to_json(s: DerivedScalars) -> dict:
    return {
        "alpha": format_extended(s.alpha),
        "k": _int_str(s.k),
        "N": _int_str(s.n_weight),
        "x": _int_str(s.x),
        "M": _int_str(s.m_odd),
    }


# the sections of the two verdicts that classify.decide_fullness returns
_FULLNESS = {
    FullnessVerdict(True, True, True, FULL): _Shared(
        {"stenotic": True, "kLexicographic": True, "stabilizedFull": True, "unstabilized": FULL}),
    FullnessVerdict(True, False, False, UNKNOWN): _Shared(
        {"stenotic": True, "kLexicographic": False, "stabilizedFull": False,
         "unstabilized": UNKNOWN, "note": UNKNOWN_NOTE}),
}


def fullness_to_json(f: FullnessVerdict) -> dict:
    return _FULLNESS[f]


def comparison_to_json(mode: str, c: IsoVerdict) -> tuple[dict, dict | None]:
    """The verdict and witness sections of ``compare``."""
    verdict = {"mode": mode, "isomorphic": c.isomorphic}
    if c.reason is not None:
        verdict["reason"] = c.reason
    w = c.witness
    witness = None if w is None else {"l": str(w.l), "lPrime": str(w.l_prime), "unit": str(w.unit)}
    return verdict, witness


class _ScanTable(tuple):
    """A scan verdict's rows (m, exact, stable) as the sieve's ints; only this
    module renders them, as {"exactClasses", "m", "stableClasses"} objects."""


def scan_to_json(max_m: int, table: list[tuple[int, int, int]]) -> tuple[list, dict]:
    """The inputs and verdict sections of ``scan``, from its rows (m, exact, stable)."""
    smallest = next((m for m, e, s in table if e != s), None)
    verdict = {"smallestDivergentM": _int_str(smallest), "table": _ScanTable(table)}
    return [{"maxM": str(max_m)}], verdict


_ESCAPE = json.encoder.encode_basestring_ascii  # json.dumps's default string escape


def write_json(value, write) -> None:
    """Pass ``value`` to ``write`` as exactly ``json.dumps(value, indent=2,
    sort_keys=True)`` and a newline, in one piece but for a scan table.  Only
    what the builders emit is accepted: dicts with ``str`` keys, lists,
    ``str``, ``True``, ``False``, ``None`` and a scan table; else TypeError.
    The encoder is a module-level function, not a closure that calls itself:
    such a closure is a reference cycle, which keeps each call's locals
    alive until the cyclic garbage collector runs."""
    out: list[str] = []
    _encode(value, "\n", out, write)
    out.append("\n")
    text = "".join(out)
    out.clear()  # before the write, which may copy the text once more
    write(text)


def _encode(value, indent: str, out: list, write) -> None:
    """Append ``value``'s text, indented from ``indent``, to ``out`` in pieces,
    each byte copied once, not once per level.  A scan table is written as
    its row objects, each by one ``%`` template: ``out``, then 1,024 rows to
    a ``write``."""
    inner = indent + "  "
    if isinstance(value, dict):
        sep, comma = "{" + inner, "," + inner
        # a key that is not a str fails in _ESCAPE, or in sorted among str keys
        for key, item in sorted(value.items()):
            if isinstance(item, str):  # the common leaf, in one piece
                out.append(f"{sep}{_ESCAPE(key)}: {_ESCAPE(item)}")
            elif type(item) is _Shared and item.indent == inner:
                out.append(f"{sep}{_ESCAPE(key)}: {item.text}")
            else:
                out.append(f"{sep}{_ESCAPE(key)}: ")
                _encode(item, inner, out, write)
            sep = comma
        out.append(indent + "}" if value else "{}")
    elif isinstance(value, list):
        if value and all(map(str.__instancecheck__, value)):  # a prefix or a torsion: all str
            out += "[" + inner, (',' + inner).join(map(_ESCAPE, value)), indent + "]"
            return
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out, write)
            sep = comma
        out.append(indent + "]" if value else "[]")
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, str):
        out.append(_ESCAPE(value))
    elif isinstance(value, _ScanTable):
        write("".join(out))
        out.clear()
        row = (f'{inner}{{{inner}  "exactClasses": "%d",{inner}  "m": "%d",'
               f'{inner}  "stableClasses": "%d"{inner}}}')
        sep = "["
        for start in range(0, len(value), 1024):
            write(sep + ",".join([row % (e, m, s) for m, e, s in value[start : start + 1024]]))
            sep = ","
        out.append(indent + "]" if value else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# Each shared section's text at the nesting depth where reports place it, inner ones first.
for _shared, _depth in ((_DYADIC_LINE, 3), (_DYADIC_PLUS_Z, 3), (_Z, 3), (_FULL_CLASS, 3),
                        (_NO_TAIL, 3), (_IDEAL, 2), (_NO_LOOPS["quotient"], 2),
                        (_INFINITE_LOOPS, 1), *zip(_FULLNESS.values(), (1, 1))):
    _shared.indent, _text = "\n" + "  " * _depth, []
    _encode(_shared, _shared.indent, _text, None)
    _shared.text = "".join(_text)
del _shared, _depth, _text


_CONE_TEXT = {
    "AllPositive": "all-positive (full class)",
    "StandardDyadicCone": "standard dyadic cone",
    "StandardIntegerCone": "standard integer cone",
}


def _cone_text(cone: dict) -> str:
    tag = cone["tag"]
    return f"alpha-cone({cone['alpha']})" if tag == "AlphaCone" else _CONE_TEXT[tag]


class Report(namedtuple("Report", "command inputs scalars invariant verdict witness version",
                        defaults=(None, None, None, None, __version__))):
    """A command's report: one field per top-level key of its JSON object,
    as the report functions in :mod:`.cli` build it.  Every section is in
    JSON form except a scan verdict's table, which holds the sieve's int
    rows; :meth:`to_json_dict` is the JSON-object view, with that table as
    row dicts.  It shares the other sections, so callers must not mutate
    them, and a report, whose sections are dicts, is not hashable."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        d = self._asdict()
        if self.command == "scan":
            rows = [{"m": str(m), "exactClasses": str(e), "stableClasses": str(s)}
                    for m, e, s in self.verdict["table"]]
            d["verdict"] = {**self.verdict, "table": rows}
        return d

    @classmethod
    def from_json_dict(cls, d) -> "Report":
        """The report that the command line computes from the inputs ``d``
        names (specs, compare mode, truncation depth, scan limit), under its
        work limits, if it emits exactly ``d``; else ValueError.  An
        :class:`InternalConsistencyError` from recomputing propagates."""
        from . import cli  # imported here, because cli imports this module

        try:
            command, inputs = d["command"], d["inputs"]
            # each spec and its entry; a wrong number of them is a TypeError
            read = () if command == "scan" else [x for e in inputs for x in spec_from_json(e)]
            if command == "invariant":
                inv = d["invariant"]
                t = inv["truncation"] if isinstance(inv, dict) and "truncation" in inv else None
                report = cli.invariant_report(*read, None if t is None else t["depth"])
            elif command == "fullness":
                report = cli.fullness_report(*read)
            elif command == "compare":
                report = cli.compare_report(*read, d["verdict"]["mode"])
            elif command == "scan":
                (entry,) = inputs
                report = cli.scan_report(entry["maxM"])
            else:
                raise ValueError(f"unknown command {command!r}")
            report = report._replace(version=str(d["version"]))
            emitted = json.dumps(report.to_json_dict(), sort_keys=True)
            same = emitted == json.dumps(d, sort_keys=True)
        except InternalConsistencyError:
            raise
        except (KeyError, TypeError, RecursionError, OneIdealError) as err:
            raise ValueError(f"not a report this program writes: {err!r}") from err
        if not same:
            raise ValueError("not a report this program writes: its inputs give another report")
        return report

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for entry in self.inputs:
            if "maxM" in entry:
                lines.append(f"input: max-m={entry['maxM']}")
                continue
            tail = ":".join(entry["tail"].values())  # kind, then c if present
            lines.append(f"input: m={entry['m']} n=[{','.join(entry['n'])}] tail={tail}")
        if self.scalars is not None:
            lines.append("scalars: alpha={alpha} k={k} N={N} x={x} M={M}".format(**self.scalars))
        if self.invariant is not None:
            inv = self.invariant
            for key in ("ideal", "middle", "quotient"):
                group, cone = inv[key]["group"], inv[key]["cone"]
                lines.append(f"{key + ':':<10}{group['symbol']} with {_cone_text(cone)}")
            lines.append(f"case: {inv['caseTag']}  index map zero: {inv['indexMapZero']}")
            if "truncation" in inv:
                t = inv["truncation"]
                lines.append(
                    f"truncation oracle: depth={t['depth']} free rank={t['freeRank']} "
                    f"torsion=[{', '.join(t['torsion'])}]"
                )
        v = self.verdict
        if self.command == "fullness":
            lines.append(
                "fullness: stenotic={stenotic} K-lexicographic={kLexicographic} "
                "stabilized-full={stabilizedFull} unstabilized={unstabilized}".format(**v)
            )
            if "note" in v:
                lines.append(f"note: {v['note']}")
        elif self.command == "compare":
            lines += [f"mode: {v['mode']}", f"isomorphic: {v['isomorphic']}"]
            if "reason" in v:
                lines.append(f"reason: {v['reason']}")
            if self.witness is not None:
                w = self.witness
                lines.append(f"witness: l={w['l']} l'={w['lPrime']} unit={w['unit']}")
        elif self.command == "scan":
            lines.append("m  exact-classes  stable-classes")
            table = v["table"]  # m rises, so the last m is the widest
            row = f"%-{max(3, len(str(table[-1][0])) + 1)}d%-15d%d"
            templates = (row, row + "  <- diverges")
            lines += [templates[e != s] % (m, e, s) for m, e, s in table]
            lines.append(f"smallest divergent m: {v['smallestDivergentM']}")
        lines.append(f"version: {self.version}")
        return "\n".join(lines)
