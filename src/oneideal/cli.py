"""Command-line front end.

Subcommands: ``invariant``, ``fullness``, ``compare``, ``scan``.  Family
members are given either as flags (``--m 8 --n 1,0,3 --tail zero``), as a
JSON object matching the input schema
``{"m": 8 | "inf", "n": [..], "tail": {"kind": ..., "c": ...}}``, or (for
``compare``) compactly as ``m=8,n=[1,0,3],tail=constant:2``.  The flag
and compact forms are rewritten, values verbatim (no stripping, no case
folding), into that schema object, so :func:`.report.spec_from_json` is
the one reader of every form.

Exit codes: 0 = computed (negative verdicts included), 2 = input or
validation error, 3 = internal consistency failure (the stable-isomorphism
routes disagree, or the truncation shown by ``invariant`` contradicts the
closed-form torsion order).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classify
from .errors import (
    FamilyValidationError,
    InternalConsistencyError,
    OneIdealError,
    OutOfScopeComparison,
)
# validate_family is unused here, but perfbench resolves it in this module to trace it
from .family import FamilySpec, validate_family  # noqa: F401
from .ktheory import invariant_of, stable_oracle_depth, truncated_k0
from .report import Report, ScanResult, spec_from_json, strict_int


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    keys = [key for key, _ in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError(f"repeated key in JSON object with keys {keys}")
    return dict(pairs)


def _schema_object(m: str, n: str, tail: str) -> dict:
    """The input-schema object for flag or compact-form text, values verbatim."""
    kind, colon, c = tail.partition(":")
    tail_d = {"kind": kind, "c": c} if colon else {"kind": kind}
    return {"m": m, "n": n.split(",") if n else [], "tail": tail_d}


def _spec_from_flags(args) -> FamilySpec:
    if args.spec is not None:
        return spec_from_json(json.loads(args.spec, object_pairs_hook=_unique_keys))
    if args.m is None or args.n is None:
        raise ValueError("provide --m and --n (or --spec with a JSON object)")
    return spec_from_json(_schema_object(args.m, args.n, args.tail))


def _spec_from_compact(text: str) -> FamilySpec:
    """Parse ``m=8,n=[1,0,3],tail=constant:2`` (or a JSON object)."""
    if text.lstrip().startswith("{"):
        return spec_from_json(json.loads(text, object_pairs_hook=_unique_keys))
    fields: dict[str, str] = {}
    rest = text
    while rest:
        key, sep, rest = rest.partition("=")
        if not sep:
            raise ValueError(f"expected key=value in {text!r}")
        if key not in ("m", "n", "tail"):
            raise ValueError(f"unknown key {key!r} in spec {text!r} (want m, n, tail)")
        if key in fields:
            raise ValueError(f"key {key!r} repeated in spec {text!r}")
        if rest.startswith("["):
            value, closed, rest = rest[1:].partition("]")
            if not closed:
                raise ValueError(f"unclosed '[' in spec {text!r}")
            rest = rest.removeprefix(",")
        else:
            value, _, rest = rest.partition(",")
        fields[key] = value
    if "m" not in fields or "n" not in fields:
        raise ValueError(f"spec {text!r} needs at least m= and n=")
    return spec_from_json(_schema_object(fields["m"], fields["n"], fields.get("tail", "zero")))


def _cmd_invariant(args) -> Report:
    spec = _spec_from_flags(args)
    invariant, scalars = invariant_of(spec)
    truncation = None
    if spec.has_finite_loops:
        stable_depth = stable_oracle_depth(spec)
        depth = max(len(spec.prefix) + 3, stable_depth)
        if args.depth is not None:
            depth = strict_int(args.depth, "--depth")
        free_rank, torsion = truncated_k0(spec, depth)
        truncation = (depth, free_rank, tuple(torsion))
        # past saturation the truncation is an independent check on x
        x = scalars.x
        if depth >= stable_depth and truncation[1:] != (1, (x,) if x > 1 else ()):
            raise InternalConsistencyError(
                f"truncation at depth {depth} has free rank {free_rank} and torsion "
                f"{list(torsion)}, but the closed-form torsion order is {x}"
            )
    elif args.depth is not None:
        raise ValueError("--depth applies only when 1 < m < infinity")
    return Report(
        command="invariant",
        inputs=(spec,),
        scalars=scalars,
        invariant=invariant,
        truncation=truncation,
    )


def _cmd_fullness(args) -> Report:
    spec = _spec_from_flags(args)
    invariant, scalars = invariant_of(spec)
    return Report(
        command="fullness",
        inputs=(spec,),
        scalars=scalars,
        invariant=invariant,
        fullness=classify.decide_fullness(invariant, scalars),
    )


def _cmd_compare(args) -> Report:
    spec_a = _spec_from_compact(args.a)
    spec_b = _spec_from_compact(args.b)
    decide = classify.exact_iso if args.mode == "exact" else classify.stable_iso
    return Report(
        command="compare",
        inputs=(spec_a, spec_b),
        comparison=decide(spec_a, spec_b),
        compare_mode=args.mode,
    )


def _cmd_scan(args) -> Report:
    max_m = strict_int(args.max_m, "--max-m")
    if max_m < 2:
        raise ValueError("--max-m must be at least 2")
    table = tuple(classify.divergence_table(max_m))
    smallest = next((m for m, e, s in table if e != s), None)
    return Report(
        command="scan",
        scan=ScanResult(smallest_divergent_m=smallest, table=table),
        scan_limit=max_m,
    )


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", help="loop count: a non-negative integer or 'inf'")
    parser.add_argument("--n", help="comma-separated edge multiplicities, e.g. 1,0,3")
    parser.add_argument(
        "--tail",
        default="zero",
        help="tail rule: zero | constant:<c> | doubling:<c> (default zero)",
    )
    parser.add_argument("--spec", help="JSON family object instead of --m/--n/--tail")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oneideal",
        description="Ordered K-theory invariants and classification for the "
        "one-ideal graph family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="compute the six-term invariant")
    _add_spec_flags(p_inv)
    p_inv.add_argument("--depth", help="truncation oracle depth override")
    p_inv.set_defaults(func=_cmd_invariant)

    p_full = sub.add_parser("fullness", help="decide fullness of the extension")
    _add_spec_flags(p_full)
    p_full.set_defaults(func=_cmd_fullness)

    p_cmp = sub.add_parser("compare", help="decide exact or stable isomorphism")
    p_cmp.add_argument("--a", required=True, help="first member, e.g. m=8,n=1")
    p_cmp.add_argument("--b", required=True, help="second member, e.g. m=8,n=3")
    p_cmp.add_argument("--mode", choices=("exact", "stable"), required=True)
    p_cmp.set_defaults(func=_cmd_compare)

    p_scan = sub.add_parser("scan", help="tabulate class counts and find divergence")
    p_scan.add_argument("--max-m", required=True)
    p_scan.set_defaults(func=_cmd_scan)

    for p in (p_inv, p_full, p_cmp, p_scan):
        p.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except FamilyValidationError as err:
        print(f"error [{err.code}]: {err.message}", file=sys.stderr)
        return 2
    except OutOfScopeComparison as err:
        print(f"error [OutOfScope]: {err}", file=sys.stderr)
        return 2
    except InternalConsistencyError as err:
        print(f"error [InternalConsistency]: {err}", file=sys.stderr)
        return 3
    except (OneIdealError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        else:
            print(report.to_text())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (e.g. `| head`); the verdict was computed.
        # Point stdout at devnull so the final flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
