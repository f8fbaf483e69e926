"""Command-line front end.

Subcommands: ``invariant``, ``fullness``, ``compare``, ``scan``.  Family
members are given either as flags (``--m 8 --n 1,0,3 --tail zero``), as a
JSON object matching the input schema
``{"m": 8 | "inf", "n": [..], "tail": {"kind": ..., "c": ...}}``, or (for
``compare``) compactly as ``m=8,n=[1,0,3],tail=constant:2``.  ``--spec``
replaces the flags, so giving it with ``--m``, ``--n`` or ``--tail`` is an
error.  The flag and compact forms are rewritten, values verbatim (no
stripping, no case folding), into that schema object, so
:func:`.report.spec_from_json` is the one reader of every form.

``--format json`` streams the report's sections, scan rows as ints, through
:func:`.report.write_json` to stdout as it is generated, in the bytes of
``json.dumps(report.to_json_dict(), indent=2, sort_keys=True)``; the text
view is rendered whole.

The argument parser is built once per process, on the first query, and
every later call of :func:`main` reuses it.  The command's own parser
reads the arguments after the command name, in one pass; only an argv it
cannot take whole goes through the top-level parser as well, which prints
argparse's error.

Exit codes: 0 = computed (negative verdicts included); else the status and
stderr tag that the error's class in :mod:`.errors` carries (a bare
``error:`` and 2 for a ``ValueError`` or ``KeyError`` of the input).
2 = input or validation error, an out-of-scope comparison, or (``WorkLimit``)
an input past ``family.MAX_PREFIX_LENGTH`` or ``family.MAX_INTEGER_DIGITS``
(``--depth`` and ``--max-m`` included), a truncation deeper than
``ktheory.MAX_TRUNCATION_DEPTH``, a ``scan --max-m`` above
``report.MAX_SCAN_M`` or an exact ``compare`` whose discrete logarithm
:func:`.dyadic.two_power_log` refuses: the order of 2 modulo the odd
modulus it runs on is past ``dyadic.MAX_LOG_STEP`` squared;
3 = internal consistency failure
(the stable-isomorphism routes disagree, an exact witness fails
re-substitution, the truncation shown by ``invariant`` contradicts the
closed-form torsion order, or a ``scan`` row counts fewer exact than stable
classes).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import classify
from .errors import InternalConsistencyError, OneIdealError, WorkLimitError
# validate_family is unused here, but perfbench resolves it in this module to trace it
from .family import FamilySpec, validate_family  # noqa: F401
from .ktheory import invariant_of, stable_oracle_depth, truncated_k0
from .report import (
    MAX_SCAN_M, Report, comparison_to_json, fullness_to_json, invariant_to_json, limited_int,
    scalars_to_json, scan_to_json, spec_from_json, spec_to_json, write_json,
)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    keys = [key for key, _ in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError(f"repeated key in JSON object with keys {keys}")
    return dict(pairs)


# Decodes a JSON spec.  Its integers stay digit strings, so that
# spec_from_json applies its digit limit to them, even past Python's own.
_SPEC_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys, parse_int=str)


def _decode(text: str):
    """Decode a JSON spec; nesting too deep for the decoder is a ValueError."""
    try:
        return _SPEC_JSON.decode(text)
    except RecursionError:
        raise ValueError("the JSON spec is nested too deeply") from None


def _schema_object(m: str, n: str, tail: str | None) -> dict:
    """The input-schema object for flag or compact-form text, values
    verbatim; no tail text means the tail ``zero``."""
    kind, colon, c = ("zero" if tail is None else tail).partition(":")
    tail_d = {"kind": kind, "c": c} if colon else {"kind": kind}
    return {"m": m, "n": n.split(",") if n else [], "tail": tail_d}


def _spec_from_flags(args) -> FamilySpec:
    if args.spec is not None:
        given = [flag for flag in ("m", "n", "tail") if getattr(args, flag) is not None]
        if given:
            flags = ", ".join(f"--{flag}" for flag in given)
            raise ValueError(f"--spec cannot be combined with {flags}")
        return spec_from_json(_decode(args.spec))
    if args.m is None or args.n is None:
        raise ValueError("provide --m and --n (or --spec with a JSON object)")
    return spec_from_json(_schema_object(args.m, args.n, args.tail))


def _spec_from_compact(text: str) -> FamilySpec:
    """Parse ``m=8,n=[1,0,3],tail=constant:2`` (or a JSON object)."""
    if text.lstrip().startswith("{"):
        return spec_from_json(_decode(text))
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
            if rest and not rest.startswith(","):
                raise ValueError(f"expected ',' or the end after ']' in spec {text!r}")
            rest = rest[1:]
        else:
            value, _, rest = rest.partition(",")
        fields[key] = value
    if text.endswith(","):  # a separating comma with nothing after it
        raise ValueError(f"expected key=value in {text!r}")
    if "m" not in fields or "n" not in fields:
        raise ValueError(f"spec {text!r} needs at least m= and n=")
    return spec_from_json(_schema_object(fields["m"], fields["n"], fields.get("tail")))


# One function per command, of plain values: main calls them with the
# values argparse read, and Report.from_json_dict with those a report holds.


def invariant_report(spec: FamilySpec, depth=None) -> Report:
    """The ``invariant`` report of ``spec``, with the truncation at ``depth``
    (an integer or decimal digits, as ``--depth`` takes it) or by default
    past saturation."""
    if depth is not None and not spec.has_finite_loops:
        raise ValueError("--depth applies only when 1 < m < infinity")
    depth = None if depth is None else limited_int(depth, "--depth")
    invariant, scalars = invariant_of(spec)
    truncation = None
    if spec.has_finite_loops:
        stable_depth = stable_oracle_depth(spec)
        if depth is None:
            depth = max(len(spec.prefix) + 3, stable_depth)
        free_rank, torsion = truncated_k0(spec, depth)
        truncation = (depth, free_rank, tuple(torsion))
        # past saturation the truncation is an independent check on x
        x = scalars.x
        if depth >= stable_depth and truncation[1:] != (1, (x,) if x > 1 else ()):
            raise InternalConsistencyError(
                f"truncation at depth {depth} has free rank {free_rank} and torsion "
                f"{list(torsion)}, but the closed-form torsion order is {x}"
            )
    return Report(
        command="invariant",
        inputs=[spec_to_json(spec)],
        scalars=scalars_to_json(scalars),
        invariant=invariant_to_json(invariant, truncation),
    )


def fullness_report(spec: FamilySpec) -> Report:
    invariant, scalars = invariant_of(spec)
    return Report(
        command="fullness",
        inputs=[spec_to_json(spec)],
        scalars=scalars_to_json(scalars),
        invariant=invariant_to_json(invariant),
        verdict=fullness_to_json(classify.decide_fullness(invariant, scalars)),
    )


def compare_report(spec_a: FamilySpec, spec_b: FamilySpec, mode: str) -> Report:
    decide = {"exact": classify.exact_iso, "stable": classify.stable_iso}[mode]
    verdict, witness = comparison_to_json(mode, decide(spec_a, spec_b))
    return Report(
        command="compare",
        inputs=[spec_to_json(spec_a), spec_to_json(spec_b)],
        verdict=verdict,
        witness=witness,
    )


def scan_report(max_m) -> Report:
    """The ``scan`` report up to ``max_m`` (an integer or decimal digits, as
    ``--max-m`` takes it)."""
    max_m = limited_int(max_m, "--max-m")
    if max_m < 2:
        raise ValueError("--max-m must be at least 2")
    if max_m > MAX_SCAN_M:
        raise WorkLimitError(f"--max-m is {max_m}, more than the limit {MAX_SCAN_M}")
    table = classify.divergence_table(max_m)
    # every stable class is a union of exact classes
    for m, exact, stable in table:
        if exact < stable:
            raise InternalConsistencyError(
                f"at m = {m} the scan counts {exact} exact classes but {stable} stable ones"
            )
    inputs, verdict = scan_to_json(max_m, table)
    return Report(command="scan", inputs=inputs, verdict=verdict)


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", help="loop count: a non-negative integer or 'inf'")
    parser.add_argument("--n", help="comma-separated edge multiplicities, e.g. 1,0,3")
    parser.add_argument(
        "--tail", help="tail rule: zero | constant:<c> | doubling:<c> (default zero)"
    )
    parser.add_argument("--spec", help="JSON family object instead of --m/--n/--tail")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one shared parser, built on the first call.

    Every caller gets the same object, so callers must not mutate it (add
    arguments, set defaults); :func:`main` only parses with it and with
    the command parsers in its ``commands`` map."""
    parser = argparse.ArgumentParser(
        prog="oneideal",
        description="Ordered K-theory invariants and classification for the "
        "one-ideal graph family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="compute the six-term invariant")
    _add_spec_flags(p_inv)
    p_inv.add_argument("--depth", help="truncation oracle depth override")
    p_inv.set_defaults(func=lambda args: invariant_report(_spec_from_flags(args), args.depth))

    p_full = sub.add_parser("fullness", help="decide fullness of the extension")
    _add_spec_flags(p_full)
    p_full.set_defaults(func=lambda args: fullness_report(_spec_from_flags(args)))

    p_cmp = sub.add_parser("compare", help="decide exact or stable isomorphism")
    p_cmp.add_argument("--a", required=True, help="first member, e.g. m=8,n=1")
    p_cmp.add_argument("--b", required=True, help="second member, e.g. m=8,n=3")
    p_cmp.add_argument("--mode", choices=("exact", "stable"), required=True)
    p_cmp.set_defaults(
        func=lambda args: compare_report(
            _spec_from_compact(args.a), _spec_from_compact(args.b), args.mode
        )
    )

    p_scan = sub.add_parser("scan", help="tabulate class counts and find divergence")
    p_scan.add_argument("--max-m", required=True)
    p_scan.set_defaults(func=lambda args: scan_report(args.max_m))

    for p in (p_inv, p_full, p_cmp, p_scan):
        p.add_argument("--format", choices=("text", "json"), default="text")

    # each command's own parser, which _parse_args hands the command's arguments
    parser.commands = sub.choices
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one pass over ``argv``: the
    command's own parser reads the arguments after the command's name.  An
    ``argv`` it cannot take whole (none, an unknown command, arguments left
    over) goes through the whole parser, so argparse's errors keep their
    bytes."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        report = args.func(args)
    except (OneIdealError, ValueError, KeyError) as err:
        code = getattr(err, "code", None)
        print(f"error [{code}]: {err}" if code else f"error: {err}", file=sys.stderr)
        return getattr(err, "exit_status", 2)
    try:
        if args.format == "json":
            write_json(vars(report), sys.stdout.write)
            sys.stdout.write("\n")
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
