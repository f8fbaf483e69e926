"""Reports: one structure, two renderings (text and JSON), exact round-trip.

Every integer in the JSON form is emitted as a decimal string so consumers
without big-integer support cannot silently lose precision.  Rationals are
emitted as "p/q" strings and infinity as "inf".  ``Report.from_json_dict``
is the exact inverse of ``Report.to_json_dict``: parsing an emitted report
re-yields the original values.  It is as strict as the input schema: every
integer is read by :func:`strict_int`, and a rational only as "inf", "p" or
"p/q" in decimal digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .classify import FULL, UNKNOWN, FullnessVerdict, IsoVerdict, IsoWitness
from .dyadic import INF, format_extended
from .family import FamilySpec, TailSpec
from .groups import (
    ALL_POSITIVE,
    ALPHA_CONE,
    LEXICOGRAPHIC_CONE,
    ConeDescriptor,
    GroupDescriptor,
    PreorderedGroup,
)
from .ktheory import DerivedScalars, SixTermInvariant
from .version import __version__

UNKNOWN_NOTE = "see Example (α finite): K-theory does not decide"


def _int_str(v: int | None) -> str | None:
    return None if v is None else str(v)


def _optional_int(v, what: str) -> int | None:
    return None if v is None else strict_int(v, what)


def _parse_rational(v, what: str):
    """"inf", or "p" or "p/q" with p and q > 0 strings of decimal digits."""
    if v == "inf":
        return INF
    if not isinstance(v, str):
        raise ValueError(f"{what} must be a string \"inf\", \"p\" or \"p/q\", got {v!r}")
    p, slash, q = v.partition("/")
    den = strict_int(q, what) if slash else 1
    if den == 0:
        raise ValueError(f"{what} has a zero denominator: {v!r}")
    return Fraction(strict_int(p, what), den)


def spec_to_json(spec: FamilySpec) -> dict:
    tail: dict = {"kind": spec.tail.kind}
    if spec.tail.c is not None:
        tail["c"] = str(spec.tail.c)
    return {"m": format_extended(spec.m), "n": [str(n) for n in spec.prefix], "tail": tail}


def strict_int(v, what: str) -> int:
    """A JSON integer (not a bool) or a string of decimal digits."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str) and v.isascii() and v.isdigit():
        return int(v)
    raise ValueError(f"{what} must be an integer or a string of decimal digits, got {v!r}")


def _field(d, key: str, *kinds: type, choices: tuple = ()):
    """``d[key]`` (None when absent) of the JSON object ``d``.  Given
    ``kinds``, its exact type must be one of them (so a bool is no int);
    given ``choices``, it must be one of them.  Else ValueError."""
    if type(d) is not dict:
        raise ValueError(f"expected a JSON object with key {key!r}, got {d!r}")
    v = d.get(key)
    if kinds and type(v) not in kinds:
        raise ValueError(f"{key} must be a JSON {'/'.join(k.__name__ for k in kinds)}, got {v!r}")
    if choices and v not in choices:
        raise ValueError(f"{key} must be one of {choices}, got {v!r}")
    return v


def _json_object(v, what: str, keys: set[str]) -> dict:
    if not isinstance(v, dict):
        raise ValueError(f"{what} must be a JSON object, got {v!r}")
    unknown = sorted(set(v) - keys)
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")
    return v


def spec_from_json(d) -> FamilySpec:
    """Parse the input schema strictly: every integer is a JSON integer or a
    decimal string ("inf" also for m); nothing else is coerced."""
    d = _json_object(d, "family spec", {"m", "n", "tail"})
    if "m" not in d or "n" not in d:
        raise ValueError("family spec needs at least m and n")
    m = INF if d["m"] == "inf" else strict_int(d["m"], "m")
    prefix = tuple(strict_int(n, "each entry of n") for n in _field(d, "n", list))
    tail_d = _json_object(d.get("tail", {"kind": "zero"}), "tail", {"kind", "c"})
    tail = TailSpec(tail_d.get("kind"), _optional_int(tail_d.get("c"), "tail c"))
    return FamilySpec(m, prefix, tail)


def _cone_to_json(cone: ConeDescriptor) -> dict:
    out: dict = {"tag": cone.tag}
    if cone.tag == ALL_POSITIVE:
        out["withFullClass"] = cone.with_full_class
    elif cone.tag == ALPHA_CONE:
        out["alpha"] = format_extended(cone.alpha)
    elif cone.tag == LEXICOGRAPHIC_CONE:
        out["parts"] = [_cone_to_json(p) for p in cone.parts]
    return out


def _cone_from_json(d: dict) -> ConeDescriptor:
    tag = _field(d, "tag", str)
    if tag == ALL_POSITIVE:
        return ConeDescriptor(tag, with_full_class=_field(d, "withFullClass", bool))
    if tag == ALPHA_CONE:
        return ConeDescriptor(tag, alpha=_parse_rational(d.get("alpha"), "cone alpha"))
    if tag == LEXICOGRAPHIC_CONE:
        parts = _field(d, "parts", list)
        return ConeDescriptor(tag, parts=tuple(_cone_from_json(p) for p in parts))
    return ConeDescriptor(tag)


def _group_to_json(group: GroupDescriptor) -> dict:
    out: dict = {"tag": group.tag, "symbol": group.render()}
    if group.torsion_order is not None:
        out["torsion"] = str(group.torsion_order)
    if group.modulus is not None:
        out["modulus"] = str(group.modulus)
    return out


def _group_from_json(d: dict) -> GroupDescriptor:
    group = GroupDescriptor(
        _field(d, "tag", str),
        torsion_order=_optional_int(d.get("torsion"), "group torsion"),
        modulus=_optional_int(d.get("modulus"), "group modulus"),
    )
    _field(d, "symbol", choices=(group.render(),))
    return group


def _pg_to_json(pg: PreorderedGroup) -> dict:
    return {"group": _group_to_json(pg.group), "cone": _cone_to_json(pg.cone)}


def _pg_from_json(d: dict) -> PreorderedGroup:
    return PreorderedGroup(_group_from_json(_field(d, "group")), _cone_from_json(d.get("cone")))


def invariant_to_json(inv: SixTermInvariant) -> dict:
    return {
        "ideal": _pg_to_json(inv.ideal),
        "middle": _pg_to_json(inv.middle),
        "quotient": _pg_to_json(inv.quotient),
        "caseTag": inv.case_tag,
        "indexMapZero": inv.index_map_zero,
    }


def invariant_from_json(d: dict) -> SixTermInvariant:
    return SixTermInvariant(
        ideal=_pg_from_json(_field(d, "ideal")),
        middle=_pg_from_json(d.get("middle")),
        quotient=_pg_from_json(d.get("quotient")),
        index_map_zero=_field(d, "indexMapZero", bool),
        case_tag=_field(d, "caseTag", str),
    )


def scalars_to_json(s: DerivedScalars) -> dict:
    return {
        "alpha": format_extended(s.alpha),
        "k": _int_str(s.k),
        "N": _int_str(s.n_weight),
        "x": _int_str(s.x),
        "M": _int_str(s.m_odd),
    }


def scalars_from_json(d: dict) -> DerivedScalars:
    return DerivedScalars(
        alpha=_parse_rational(_field(d, "alpha"), "alpha"),
        k=_optional_int(d.get("k"), "k"),
        n_weight=_optional_int(d.get("N"), "N"),
        x=_optional_int(d.get("x"), "x"),
        m_odd=_optional_int(d.get("M"), "M"),
    )


@dataclass(frozen=True)
class ScanResult:
    smallest_divergent_m: int | None
    table: tuple[tuple[int, int, int], ...]  # (m, exact classes, stable classes)


@dataclass(frozen=True)
class Report:
    """Everything a command computed, ready for rendering."""

    command: str
    inputs: tuple[FamilySpec, ...] = ()
    scalars: DerivedScalars | None = None
    invariant: SixTermInvariant | None = None
    fullness: FullnessVerdict | None = None
    comparison: IsoVerdict | None = None
    compare_mode: str | None = None
    scan: ScanResult | None = None
    truncation: tuple[int, int, tuple[int, ...]] | None = None  # (depth, free rank, torsion)
    scan_limit: int | None = None
    version: str = __version__

    # -- JSON ---------------------------------------------------------------

    def to_json_dict(self) -> dict:
        inputs: list[dict] = [spec_to_json(s) for s in self.inputs]
        if self.scan_limit is not None:
            inputs.append({"maxM": str(self.scan_limit)})
        verdict = None
        witness = None
        if self.fullness is not None:
            verdict = {
                "stenotic": self.fullness.stenotic,
                "kLexicographic": self.fullness.k_lexicographic,
                "stabilizedFull": self.fullness.stabilized_full,
                "unstabilized": self.fullness.unstabilized,
            }
            if self.fullness.unstabilized == UNKNOWN:
                verdict["note"] = UNKNOWN_NOTE
        if self.comparison is not None:
            verdict = {"mode": self.compare_mode, "isomorphic": self.comparison.isomorphic}
            if self.comparison.reason is not None:
                verdict["reason"] = self.comparison.reason
            if self.comparison.witness is not None:
                w = self.comparison.witness
                witness = {"l": str(w.l), "lPrime": str(w.l_prime), "unit": str(w.unit)}
        if self.scan is not None:
            verdict = {
                "smallestDivergentM": _int_str(self.scan.smallest_divergent_m),
                "table": [
                    {"m": str(m), "exactClasses": str(e), "stableClasses": str(s)}
                    for m, e, s in self.scan.table
                ],
            }
        invariant = None
        if self.invariant is not None:
            invariant = invariant_to_json(self.invariant)
            if self.truncation is not None:
                depth, free_rank, torsion = self.truncation
                invariant["truncation"] = {
                    "depth": str(depth),
                    "freeRank": str(free_rank),
                    "torsion": [str(t) for t in torsion],
                }
        return {
            "command": self.command,
            "inputs": inputs,
            "scalars": scalars_to_json(self.scalars) if self.scalars else None,
            "invariant": invariant,
            "verdict": verdict,
            "witness": witness,
            "version": self.version,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Report":
        command = _field(d, "command", choices=("invariant", "fullness", "compare", "scan"))
        specs = []
        scan_limit = None
        for entry in _field(d, "inputs", list):
            if _field(entry, "maxM") is None:
                specs.append(spec_from_json(entry))
            else:
                scan_limit = strict_int(entry["maxM"], "maxM")
        scalars = None if d.get("scalars") is None else scalars_from_json(d["scalars"])
        invariant = None
        truncation = None
        if d.get("invariant") is not None:
            invariant = invariant_from_json(d["invariant"])
            trunc = d["invariant"].get("truncation")
            if trunc is not None:
                truncation = (
                    strict_int(_field(trunc, "depth"), "truncation depth"),
                    strict_int(trunc.get("freeRank"), "truncation free rank"),
                    tuple(
                        strict_int(t, "truncation torsion") for t in _field(trunc, "torsion", list)
                    ),
                )
        fullness = None
        comparison = None
        compare_mode = None
        scan = None
        verdict = d.get("verdict")
        if command == "fullness" and verdict is not None:
            fullness = FullnessVerdict(
                stenotic=_field(verdict, "stenotic", bool),
                k_lexicographic=_field(verdict, "kLexicographic", bool),
                stabilized_full=_field(verdict, "stabilizedFull", bool),
                unstabilized=_field(verdict, "unstabilized", choices=(FULL, UNKNOWN)),
            )
            note = UNKNOWN_NOTE if fullness.unstabilized == UNKNOWN else None
            _field(verdict, "note", choices=(note,))
        elif command == "compare" and verdict is not None:
            compare_mode = _field(verdict, "mode", choices=("exact", "stable"))
            w = d.get("witness")
            if w is not None:
                w = IsoWitness(*(strict_int(_field(w, k), k) for k in ("l", "lPrime", "unit")))
            comparison = IsoVerdict(
                isomorphic=_field(verdict, "isomorphic", bool),
                witness=w,
                reason=_field(verdict, "reason", str, type(None)),
            )
        elif command == "scan" and verdict is not None:
            rows = _field(verdict, "table", list)
            keys = ("m", "exactClasses", "stableClasses")
            scan = ScanResult(
                smallest_divergent_m=_optional_int(
                    verdict.get("smallestDivergentM"), "smallestDivergentM"
                ),
                table=tuple(tuple(strict_int(_field(r, k), k) for k in keys) for r in rows),
            )
        return cls(
            command=command,
            inputs=tuple(specs),
            scalars=scalars,
            invariant=invariant,
            fullness=fullness,
            comparison=comparison,
            compare_mode=compare_mode,
            scan=scan,
            truncation=truncation,
            scan_limit=scan_limit,
            version=_field(d, "version", str),
        )

    # -- text ---------------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for spec in self.inputs:
            tail = spec.tail.kind if spec.tail.c is None else f"{spec.tail.kind}:{spec.tail.c}"
            n = ",".join(str(v) for v in spec.prefix)
            lines.append(f"input: m={format_extended(spec.m)} n=[{n}] tail={tail}")
        if self.scan_limit is not None:
            lines.append(f"input: max-m={self.scan_limit}")
        if self.scalars is not None:
            s = self.scalars
            lines.append(
                "scalars: alpha={} k={} N={} x={} M={}".format(
                    format_extended(s.alpha), s.k, s.n_weight, s.x, s.m_odd
                )
            )
        if self.invariant is not None:
            inv = self.invariant
            lines.append(f"ideal:    {inv.ideal.render()}")
            lines.append(f"middle:   {inv.middle.render()}")
            lines.append(f"quotient: {inv.quotient.render()}")
            lines.append(f"case: {inv.case_tag}  index map zero: {inv.index_map_zero}")
            if self.truncation is not None:
                depth, free_rank, torsion = self.truncation
                lines.append(
                    f"truncation oracle: depth={depth} free rank={free_rank} "
                    f"torsion={list(torsion)}"
                )
        if self.fullness is not None:
            f = self.fullness
            lines.append(
                "fullness: stenotic={} K-lexicographic={} stabilized-full={} "
                "unstabilized={}".format(
                    f.stenotic, f.k_lexicographic, f.stabilized_full, f.unstabilized
                )
            )
            if f.unstabilized == UNKNOWN:
                lines.append(f"note: {UNKNOWN_NOTE}")
        if self.comparison is not None:
            c = self.comparison
            lines.append(f"mode: {self.compare_mode}")
            lines.append(f"isomorphic: {c.isomorphic}")
            if c.reason:
                lines.append(f"reason: {c.reason}")
            if c.witness:
                w = c.witness
                lines.append(f"witness: l={w.l} l'={w.l_prime} unit={w.unit}")
        if self.scan is not None:
            lines.append("m  exact-classes  stable-classes")
            width = max([3] + [len(str(m)) + 1 for m, _, _ in self.scan.table])
            for m, e, s in self.scan.table:
                marker = "  <- diverges" if e != s else ""
                lines.append(f"{m:<{width}}{e:<15}{s}{marker}")
            lines.append(f"smallest divergent m: {self.scan.smallest_divergent_m}")
        lines.append(f"version: {self.version}")
        return "\n".join(lines)
