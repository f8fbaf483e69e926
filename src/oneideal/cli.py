"""Command-line front end.

Subcommands: ``invariant``, ``fullness``, ``compare``, ``scan``.  Family
members are given either as flags (``--m 8 --n 1,0,3 --tail zero``), as a
JSON object matching the input schema
``{"m": 8 | "inf", "n": [..], "tail": {"kind": ..., "c": ...}}``, or (for
``compare``) compactly as ``m=8,n=[1,0,3],tail=constant:2``.  ``--spec``
replaces the flags, so giving it with ``--m``, ``--n`` or ``--tail`` is an
error.  The flag and compact forms are rewritten, values verbatim (no
stripping, no case folding), into that schema object, so
:func:`.report.spec_from_json` is the one reader, and echo, of every form.

``--format json`` writes the report, scan rows as ints, through
:func:`.report.write_json` to stdout, in the bytes of
``json.dumps(report.to_json_dict(), indent=2, sort_keys=True)`` and a newline; the text
view is rendered whole.

Each command's options are declared once, in :data:`COMMANDS`.  An argv
``COMMAND (--flag VALUE)*`` with exact flags, plain values, valid choices
and every required flag is read from that table in one pass; any other
(help, an abbreviation, ``--flag=value``, ``--``, a usage error) goes
through the argparse parser built from it, once per process.

Exit codes: 0 = computed (negative verdicts included); else the status and
stderr tag that the error's class in :mod:`.errors` carries (a bare
``error:`` and 2 for a ``ValueError`` of the input; any other exception is
a bug and propagates).
2 = input or validation error, an out-of-scope comparison, or (``WorkLimit``)
an input past ``family.MAX_PREFIX_LENGTH`` or ``family.MAX_INTEGER_DIGITS``
(``--depth`` and ``--max-m`` included), a truncation deeper than
``ktheory.MAX_TRUNCATION_DEPTH``, a ``scan --max-m`` above
``report.MAX_SCAN_M`` or an exact ``compare`` whose discrete logarithm
:func:`.dyadic.two_power_log` refuses: the order of 2 modulo the odd
modulus it runs on is past ``dyadic.MAX_LOG_STEP`` squared;
3 = internal consistency failure
(the stable-isomorphism routes disagree, an exact witness fails
re-substitution, the truncation shown by ``invariant`` contradicts its
closed form gcd(2^(d-k) N, m - 1), or past saturation the torsion order, or
a ``scan`` row counts fewer exact than stable classes).
"""

from __future__ import annotations

import functools
import json
import os
import sys
from math import gcd
from types import SimpleNamespace

from . import classify
from .errors import InternalConsistencyError, OneIdealError, WorkLimitError
# validate_family is unused here, but perfbench resolves it in this module to trace it
from .family import FamilySpec, validate_family  # noqa: F401
from .ktheory import invariant_of, stable_oracle_depth, truncated_k0
from .report import (
    MAX_SCAN_M, Report, comparison_to_json, fullness_to_json, invariant_to_json, read_int,
    scalars_to_json, scan_to_json, spec_from_json, write_json,
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
    verbatim; no tail text means no tail, which is the tail ``zero``."""
    d = {"m": m, "n": n.split(",") if n else []}
    if tail is not None:
        kind, colon, c = tail.partition(":")
        d["tail"] = {"kind": kind, "c": c} if colon else {"kind": kind}
    return d


def _spec_from_flags(args) -> tuple[FamilySpec, dict]:
    if args.spec is not None:
        given = [flag for flag in ("m", "n", "tail") if getattr(args, flag) is not None]
        if given:
            flags = ", ".join(f"--{flag}" for flag in given)
            raise ValueError(f"--spec cannot be combined with {flags}")
        return spec_from_json(_decode(args.spec))
    if args.m is None or args.n is None:
        raise ValueError("provide --m and --n (or --spec with a JSON object)")
    return spec_from_json(_schema_object(args.m, args.n, args.tail))


def _spec_from_compact(text: str) -> tuple[FamilySpec, dict]:
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
# values of its argv, and Report.from_json_dict with those a report holds.
# Each spec comes with its inputs entry, as spec_from_json returns them.


def invariant_report(spec: FamilySpec, entry: dict, depth=None) -> Report:
    """The ``invariant`` report of ``spec``, with the truncation at ``depth``
    (an integer or decimal digits, as ``--depth`` takes it) or by default
    past saturation."""
    if depth is not None and not spec.has_finite_loops:
        raise ValueError("--depth applies only when 1 < m < infinity")
    depth = None if depth is None else read_int(depth, "--depth")[0]
    scalars = invariant_of(spec)
    truncation = None
    if spec.has_finite_loops:
        stable_depth = stable_oracle_depth(spec)
        if depth is None:
            depth = max(len(spec.prefix) + 3, stable_depth)
        free_rank, torsion = truncated_k0(spec, depth)
        truncation = (depth, free_rank, tuple(torsion))
        # at depth d: free rank 1, torsion y = gcd(2^(d-k) N, m - 1), and y = x
        # past saturation
        x, y = scalars.x, gcd(scalars.n_weight << (depth - scalars.k), spec.m - 1)
        if truncation[1:] != (1, (y,) if y > 1 else ()) or depth >= stable_depth and y != x:
            raise InternalConsistencyError(
                f"truncation at depth {depth} has free rank {free_rank} and torsion "
                f"{list(torsion)}, but the closed form gives {y} and torsion order {x}"
            )
    return Report(
        command="invariant",
        inputs=[entry],
        scalars=scalars_to_json(scalars),
        invariant=invariant_to_json(spec.m, scalars, truncation),
    )


def fullness_report(spec: FamilySpec, entry: dict) -> Report:
    scalars = invariant_of(spec)
    return Report(
        command="fullness",
        inputs=[entry],
        scalars=scalars_to_json(scalars),
        invariant=invariant_to_json(spec.m, scalars),
        verdict=fullness_to_json(classify.decide_fullness(spec.m, scalars.alpha)),
    )


def compare_report(spec_a: FamilySpec, entry_a: dict, spec_b: FamilySpec, entry_b: dict,
                   mode: str) -> Report:
    decide = {"exact": classify.exact_iso, "stable": classify.stable_iso}[mode]
    verdict, witness = comparison_to_json(mode, decide(spec_a, spec_b))
    return Report(
        command="compare",
        inputs=[entry_a, entry_b],
        verdict=verdict,
        witness=witness,
    )


def scan_report(max_m) -> Report:
    """The ``scan`` report up to ``max_m`` (an integer or decimal digits, as
    ``--max-m`` takes it)."""
    max_m = read_int(max_m, "--max-m")[0]
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


# Each command's help, its report function of the parsed arguments, and its
# options in argparse's order: flag -> (dest, add_argument's other keywords).
_SPEC_FLAGS = {
    "--m": ("m", {"help": "loop count: a non-negative integer or 'inf'"}),
    "--n": ("n", {"help": "comma-separated edge multiplicities, e.g. 1,0,3"}),
    "--tail": ("tail", {"help": "tail rule: zero | constant:<c> | doubling:<c> (default zero)"}),
    "--spec": ("spec", {"help": "JSON family object instead of --m/--n/--tail"}),
}
_FORMAT = {"--format": ("format", {"choices": ("text", "json"), "default": "text"})}
COMMANDS = {
    "invariant": (
        "compute the six-term invariant",
        lambda args: invariant_report(*_spec_from_flags(args), args.depth),
        {**_SPEC_FLAGS, "--depth": ("depth", {"help": "truncation oracle depth override"}),
         **_FORMAT},
    ),
    "fullness": (
        "decide fullness of the extension",
        lambda args: fullness_report(*_spec_from_flags(args)),
        {**_SPEC_FLAGS, **_FORMAT},
    ),
    "compare": (
        "decide exact or stable isomorphism",
        lambda args: compare_report(
            *_spec_from_compact(args.a), *_spec_from_compact(args.b), args.mode
        ),
        {
            "--a": ("a", {"required": True, "help": "first member, e.g. m=8,n=1"}),
            "--b": ("b", {"required": True, "help": "second member, e.g. m=8,n=3"}),
            "--mode": ("mode", {"choices": ("exact", "stable"), "required": True}),
            **_FORMAT,
        },
    ),
    "scan": (
        "tabulate class counts and find divergence",
        lambda args: scan_report(args.max_m),
        {"--max-m": ("max_m", {"required": True}), **_FORMAT},
    ),
}
# each command's values before its argv is read, from COMMANDS once; a required one is _REQUIRED
_REQUIRED = object()
_DEFAULTS = {name: {dest: _REQUIRED if kw.get("required") else kw.get("default")
                    for dest, kw in options.values()} for name, (_, _, options) in COMMANDS.items()}


@functools.cache
def build_parser():
    """The process's one shared ``argparse`` parser, built from
    :data:`COMMANDS` on the first call; callers must not mutate it (add
    arguments, set defaults).  Only help and usage errors need it, so
    ``argparse`` is imported here."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="oneideal",
        description="Ordered K-theory invariants and classification for the "
        "one-ideal graph family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, func, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_)
        for flag, (dest, keywords) in options.items():
            command.add_argument(flag, dest=dest, **keywords)
        command.set_defaults(func=func)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` read from :data:`COMMANDS` alone,
    for an ``argv`` of the form ``COMMAND (--flag VALUE)*`` whose flags are
    the command's exact option strings, whose values do not start with
    ``-`` and lie in their choices, and which gives every required flag; a
    repeated flag keeps its last value.  Any other ``argv`` gives None."""
    entry = COMMANDS.get(argv[0]) if len(argv) % 2 else None
    if entry is None:
        return None
    _, func, options = entry
    args = {**_DEFAULTS[argv[0]], "command": argv[0], "func": func}
    for flag, value in zip(argv[1::2], argv[2::2]):
        dest, keywords = options.get(flag, (None, None))
        if dest is None or value.startswith("-") or value not in keywords.get("choices", (value,)):
            return None
        args[dest] = value
    if _REQUIRED in args.values():
        return None
    return SimpleNamespace(**args)


def _parse_args(argv: list[str] | None):
    """``build_parser().parse_args(argv)``; the parser is built only for an
    ``argv`` that :func:`_read_argv` hands on."""
    argv = sys.argv[1:] if argv is None else argv
    return _read_argv(argv) or build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        report = args.func(args)
    except (OneIdealError, ValueError) as err:
        code = getattr(err, "code", None)
        print(f"error [{code}]: {err}" if code else f"error: {err}", file=sys.stderr)
        return getattr(err, "exit_status", 2)
    try:
        if args.format == "json":
            write_json(report._asdict(), sys.stdout.write)
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
