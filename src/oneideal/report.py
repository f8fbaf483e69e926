"""Reports: one structure, two renderings (text and JSON), exact round-trip.

Every integer in the JSON form is emitted as a decimal string so consumers
without big-integer support cannot silently lose precision.  Rationals are
emitted as "p/q" strings and infinity as "inf".  Every value in a report
follows from its inputs, so ``Report.from_json_dict`` reads only those (the
family specs, the compare mode, the truncation depth, the scan limit),
recomputes the report with the command line's own code, and accepts the
dict iff that report emits exactly it; otherwise it raises ``ValueError``.

Family specs, which users also write by hand, are read by
:func:`spec_from_json`, with explicit checks and messages and within the
input-size limits :data:`MAX_PREFIX_LENGTH` and :data:`MAX_INTEGER_DIGITS`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .classify import UNKNOWN, FullnessVerdict, IsoVerdict, ScanResult
from .dyadic import INF, format_extended
from .errors import InternalConsistencyError, OneIdealError, WorkLimitError
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

# The largest input :func:`spec_from_json` reads, for every spec form.  The
# weight N and alpha = (N + c) / 2^k then have at most 1000 + 10000 log10(2)
# < 4012 digits, so every integer a report shows stays below Python's default
# 4,300-digit limit on int-to-str conversion.
MAX_PREFIX_LENGTH = 10_000
MAX_INTEGER_DIGITS = 1_000
# The largest ``scan --max-m``: one class-count row per m up to it.
MAX_SCAN_M = 100_000


def _int_str(v: int | None) -> str | None:
    return None if v is None else str(v)


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


def limited_int(v, what: str) -> int:
    """:func:`strict_int`, past :data:`MAX_INTEGER_DIGITS` digits a WorkLimitError.

    A string is measured before it is converted, an int by its size, so
    neither meets Python's own limit on converting between the two."""
    if isinstance(v, str) and len(v) > MAX_INTEGER_DIGITS:
        raise WorkLimitError(
            f"{what} has {len(v)} digits, more than the limit {MAX_INTEGER_DIGITS}"
        )
    value = strict_int(v, what)
    if not isinstance(v, str) and abs(value) >= 10**MAX_INTEGER_DIGITS:
        raise WorkLimitError(f"{what} has more digits than the limit {MAX_INTEGER_DIGITS}")
    return value


def _json_object(v, what: str, keys: set[str], optional: set[str] = frozenset()) -> dict:
    """``v`` as a JSON object with every key in ``keys`` and besides them
    only keys in ``optional``; else ValueError."""
    if not isinstance(v, dict):
        raise ValueError(f"{what} must be a JSON object, got {v!r}")
    unknown = sorted(set(v) - keys - optional)
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")
    missing = sorted(keys - set(v))
    if missing:
        raise ValueError(f"{what} is missing keys {missing}")
    return v


def spec_from_json(d) -> FamilySpec:
    """Parse the input schema strictly: every integer is a JSON integer or a
    decimal string ("inf" also for m); nothing else is coerced.  A prefix
    longer than :data:`MAX_PREFIX_LENGTH`, or an integer with more than
    :data:`MAX_INTEGER_DIGITS` digits, raises :class:`WorkLimitError`."""
    d = _json_object(d, "family spec", {"m", "n"}, {"tail"})
    m = INF if d["m"] == "inf" else limited_int(d["m"], "m")
    ns = d["n"]
    if type(ns) is not list:
        raise ValueError(f"n must be a JSON list, got {ns!r}")
    if len(ns) > MAX_PREFIX_LENGTH:
        raise WorkLimitError(f"n has {len(ns)} entries, more than the limit {MAX_PREFIX_LENGTH}")
    prefix = tuple(limited_int(n, "each entry of n") for n in ns)
    tail_d = _json_object(d.get("tail", {"kind": "zero"}), "tail", {"kind"}, {"c"})
    c = limited_int(tail_d["c"], "tail c") if "c" in tail_d else None
    tail = TailSpec(tail_d.get("kind"), c)
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


def _group_to_json(group: GroupDescriptor) -> dict:
    out: dict = {"tag": group.tag, "symbol": group.render()}
    if group.torsion_order is not None:
        out["torsion"] = str(group.torsion_order)
    if group.modulus is not None:
        out["modulus"] = str(group.modulus)
    return out


def _pg_to_json(pg: PreorderedGroup) -> dict:
    return {"group": _group_to_json(pg.group), "cone": _cone_to_json(pg.cone)}


def invariant_to_json(inv: SixTermInvariant) -> dict:
    return {
        "ideal": _pg_to_json(inv.ideal),
        "middle": _pg_to_json(inv.middle),
        "quotient": _pg_to_json(inv.quotient),
        "caseTag": inv.case_tag,
        "indexMapZero": inv.index_map_zero,
    }


def scalars_to_json(s: DerivedScalars) -> dict:
    return {
        "alpha": format_extended(s.alpha),
        "k": _int_str(s.k),
        "N": _int_str(s.n_weight),
        "x": _int_str(s.x),
        "M": _int_str(s.m_odd),
    }


@dataclass(frozen=True)
class Report:
    """Everything a command computed, ready for rendering; the report
    functions in :mod:`.cli` build one per command."""

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
    def from_json_dict(cls, d) -> "Report":
        """The report that the command line computes from the inputs ``d``
        names (specs, compare mode, truncation depth, scan limit), under its
        work limits, if it emits exactly ``d``; else ValueError.  An
        :class:`InternalConsistencyError` from recomputing propagates."""
        from . import cli  # imported here, because cli imports this module

        try:
            command, inputs = d["command"], d["inputs"]
            specs = () if command == "scan" else tuple(spec_from_json(e) for e in inputs)
            if command == "invariant":
                (spec,) = specs
                inv = d["invariant"]
                t = inv["truncation"] if isinstance(inv, dict) and "truncation" in inv else None
                report = cli.invariant_report(spec, None if t is None else t["depth"])
            elif command == "fullness":
                (spec,) = specs
                report = cli.fullness_report(spec)
            elif command == "compare":
                spec_a, spec_b = specs
                report = cli.compare_report(spec_a, spec_b, d["verdict"]["mode"])
            elif command == "scan":
                (entry,) = inputs
                report = cli.scan_report(entry["maxM"])
            else:
                raise ValueError(f"unknown command {command!r}")
            report = replace(report, version=str(d["version"]))
            emitted = json.dumps(report.to_json_dict(), sort_keys=True)
            same = emitted == json.dumps(d, sort_keys=True)
        except InternalConsistencyError:
            raise
        except (KeyError, TypeError, OneIdealError) as err:
            raise ValueError(f"not a report this program writes: {err!r}") from err
        if not same:
            raise ValueError("not a report this program writes: its inputs give another report")
        return report

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
