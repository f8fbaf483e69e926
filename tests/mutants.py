"""The mutant catalogue: one deliberate fault per verdict route, cross-check
and work limit, with the tests that must catch it (mutation analysis in the
sense of DeMillo, Lipton and Sayward, "Hints on test data selection", 1978).

A mutant replaces one exact text in one module of ``src/oneideal`` with
another.  ``python tests/mutants.py`` applies each mutant to a fresh copy of
``src/`` in a temporary directory, never to ``src/`` itself, and runs all
of its tests against that copy in one pytest process.  A mutant is killed
when pytest reports every one of its tests FAILED within :data:`TIMEOUT_S`;
a run that times out or collects nothing catches none.  The command prints
one line per mutant, ends with "mutants killed k/n in t s", t its wall time
in seconds, and exits 1 if any mutant survives.  It is too slow for the
tier-1 suite, where ``test_mutants.py`` only checks that each old text still
occurs exactly once in its module and that each test id names a test
function.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oneideal"
# A mutant's pytest run still going after this long has caught nothing.
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    module: str  # file name in src/oneideal
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


# Retired with the code they broke when a single gcd came to finish the
# truncation's cokernel, which leaves no general Smith-form core: the
# invariant factors without the remainder repeat, without the gcd and lcm
# chain pass, with a chain pass that meets only neighbours, and keeping the
# pivot's sign; and the Bezout column step with the wrong sign in its
# second row.
MUTANTS = (
    Mutant(
        "cokernel elimination that never revisits a passed column",
        "exactlinalg.py",
        "for r, (s, f) in link.items():",
        "for r, (s, f) in ():",
        (
            "tests/test_exactlinalg.py::test_each_link_case_matches_sympy[unit row already linked]",
            "tests/test_exactlinalg.py::test_cokernel_matches_the_dense_smith_form_on_truncations",
        ),
    ),
    Mutant(
        "cokernel link with the wrong sign",
        "exactlinalg.py",
        "link[r] = s, -u * e",
        "link[r] = s, u * e",
        (
            "tests/test_exactlinalg.py::test_each_link_case_matches_sympy[unit row already linked]",
            "tests/test_exactlinalg.py::test_cokernel_matches_the_dense_smith_form_on_truncations",
        ),
    ),
    Mutant(
        "cokernel carry along the links in reverse creation order",
        "exactlinalg.py",
        "for r, (s, f) in link.items():",
        "for r, (s, f) in reversed(link.items()):",
        (
            "tests/test_exactlinalg.py::test_each_link_case_matches_sympy[chain read forwards]",
            "tests/test_exactlinalg.py::test_cokernel_matches_the_dense_smith_form_on_truncations",
        ),
    ),
    Mutant(
        "cokernel link made from a row that is already linked",
        "exactlinalg.py",
        "r not in link and s not in link",
        "s not in link",
        (
            "tests/test_exactlinalg.py::test_each_link_case_matches_sympy[unit row already linked]",
            "tests/test_exactlinalg.py::test_the_core_of_a_truncated_presentation_is_at_most_2_by_1",
        ),
    ),
    Mutant(
        "cokernel whose gcd finish skips the v0 row",
        "exactlinalg.py",
        "g = gcd(*x.values())",
        "g = gcd(*(v for i, v in x.items() if i != m.rows - 1))",
        (
            "tests/test_exactlinalg.py::test_the_core_of_a_truncated_presentation_is_at_most_2_by_1",
            "tests/test_exactlinalg.py::test_cokernel_matches_the_dense_smith_form_on_truncations",
            "tests/test_acceptance.py::"
            "test_criterion_09_truncated_cokernel_matches_sympy_on_1000_random_truncations",
        ),
    ),
    Mutant(
        "cokernel that finishes its first leftover column and drops the rest",
        "exactlinalg.py",
        'raise ValueError(f"{len(rest)} columns are left after linking; at most 1 is supported")',
        "rest = rest[:1]",
        ("tests/test_exactlinalg.py::test_a_matrix_that_leaves_more_than_one_column_is_refused",),
    ),
    Mutant(
        "alpha_of without the constant tail c",
        "family.py",
        "spec._weight + (spec.tail.c or 0)",
        "spec._weight",
        (
            "tests/test_family.py::test_alpha_examples",
            "tests/test_family.py::test_alpha_matches_the_summed_series",
        ),
    ),
    Mutant(
        "alpha_of that leaves the pair unreduced",
        "family.py",
        "v = min(two_adic_valuation(s), k)",
        "v = 0",
        (
            "tests/test_family.py::test_alpha_examples",
            "tests/test_family.py::test_alpha_matches_the_summed_series",
            "tests/test_family.py::test_padding_preserves_alpha",
            "tests/test_ktheory.py::test_invariant_m0",
        ),
    ),
    Mutant(
        "weight pass that adds the entries without doubling",
        "family.py",
        "weight = 2 * weight + n",
        "weight = weight + n",
        (
            "tests/test_family.py::test_weight_examples",
            "tests/test_family.py::test_a_new_prefix_gets_its_own_weight",
            "tests/test_family.py::test_alpha_matches_the_summed_series",
        ),
    ),
    Mutant(
        "report reader without its re-emission check",
        "report.py",
        "if not same:",
        "if False:",
        ("tests/test_cli.py::test_tampered_report_is_rejected",),
    ),
    Mutant(
        "scan sieve that never lifts a prime-power order",
        "classify.py",
        "order[d] = order[q] if pow(2, order[q], d) == 1 else order[q] * p",
        "order[d] = order[q]",
        (
            "tests/test_classify.py::test_divergence_and_class_counts",
            "tests/test_classify.py::test_divergence_table_matches_the_burnside_count",
        ),
    ),
    Mutant(
        "stable witness without its unit search",
        "classify.py",
        "    while gcd(u, modulus) != 1:\n        u += step\n",
        "",
        (
            "tests/test_classify.py::test_witnesses_match_the_enumerated_oracles"
            "[stable_orbit_witness-enumerated_stable_witness]",
        ),
    ),
    Mutant(
        "scan without its MAX_SCAN_M limit",
        "cli.py",
        "if max_m > MAX_SCAN_M:",
        "if False:",
        ("tests/test_cli.py::test_scan_past_the_limit_exits_2_before_any_class_count",),
    ),
    Mutant(
        "scan without its exact >= stable cross-check",
        "cli.py",
        "if exact < stable:",
        "if False:",
        (
            "tests/test_cli.py::test_each_error_kind_prints_its_line_and_exit_status"
            "[InternalConsistency]",
        ),
    ),
    Mutant(
        "internal consistency failure that exits 2",
        "errors.py",
        "exit_status = 3",
        "exit_status = 2",
        (
            "tests/test_cli.py::test_internal_consistency_failure_exits_3",
            "tests/test_cli.py::test_each_error_kind_prints_its_line_and_exit_status"
            "[InternalConsistency]",
        ),
    ),
    Mutant(
        "integer digit limit without its check on Python ints",
        "report.py",
        "if abs(v) >= _DIGIT_BOUND:",
        "if False:",
        ("tests/test_cli.py::test_a_python_int_past_the_digit_limit_is_a_work_limit",),
    ),
    Mutant(
        "exact witness off by one in l",
        "classify.py",
        "IsoWitness(l=l, l_prime=l_prime, unit=1)",
        "IsoWitness(l=l + 1, l_prime=l_prime, unit=1)",
        (
            "tests/test_classify.py::test_exact_iso_examples",
            "tests/test_classify.py::test_witnesses_match_the_enumerated_oracles"
            "[exact_orbit_witness-enumerated_exact_witness]",
        ),
    ),
    Mutant(
        "exact verdict without its witness re-substitution",
        "classify.py",
        "holds = witness is None or "
        "(witness.unit == 1 and witness_holds(modulus, n_a, n_b, witness))",
        "holds = True",
        (
            "tests/test_cli.py::test_an_exact_witness_that_fails_re_substitution_exits_3"
            "[not congruent]",
            "tests/test_cli.py::test_an_exact_witness_that_fails_re_substitution_exits_3"
            "[unit not 1]",
        ),
    ),
    Mutant(
        "unstabilized fullness rule that leaves m = 0 with divergent alpha unknown",
        "classify.py",
        "FULL if k_lex else UNKNOWN",
        "FULL if m != 0 else UNKNOWN",
        ("tests/test_classify.py::test_fullness_m0_divergent_alpha",),
    ),
    Mutant(
        "K-lexicographic condition with its m = 0 case flipped",
        "classify.py",
        "return m != 0 or alpha == INF",
        "return m == 0 or alpha == INF",
        (
            "tests/test_classify.py::test_fullness_m8",
            "tests/test_acceptance.py::test_criterion_05_fullness_dichotomy_at_m0",
            "tests/test_ordered.py::"
            "test_every_fullness_golden_and_corpus_row_agrees_with_the_clauses",
            "tests/test_ordered.py::test_fullness_agrees_with_the_clauses_in_every_regime",
        ),
    ),
    Mutant(
        "finite-m template that prints a trivial torsion summand Z/1",
        "report.py",
        "middle = _DYADIC_LINE if x == 1 else {",
        "middle = {",
        (
            "tests/test_ktheory.py::test_invariant_m8_torsion_canonicalizes",
            "tests/test_golden.py::"
            "test_output_matches_the_golden_bytes[invariant-m2-no-torsion-text]",
        ),
    ),
    Mutant(
        "invariant without the truncation cross-check",
        "cli.py",
        "if truncation[1:] != (1, (y,) if y > 1 else ()) or depth >= stable_depth and y != x:",
        "if False:",
        (
            "tests/test_cli.py::test_wrong_torsion_order_is_caught_by_the_truncation",
            "tests/test_cli.py::test_a_wrong_truncation_below_saturation_exits_3",
        ),
    ),
    Mutant(
        "stable verdict without its gcd cross-check",
        "classify.py",
        "if (witness is not None) != by_gcd or not holds:",
        "if not holds:",
        ("tests/test_classify.py::test_stable_witness_is_resubstituted[7-1-3-None]",),
    ),
    Mutant(
        "stable witness without its re-substitution",
        "classify.py",
        "holds = witness is None or witness_holds(modulus, n_a, n_b, witness)",
        "holds = True",
        (
            "tests/test_classify.py::test_stable_witness_is_resubstituted[7-1-3-bad0]",
            "tests/test_classify.py::test_stable_witness_is_resubstituted[6-2-2-bad1]",
        ),
    ),
    Mutant(
        "spec reader without its MAX_PREFIX_LENGTH limit",
        "report.py",
        "if len(ns) > MAX_PREFIX_LENGTH:",
        "if False:",
        ("tests/test_cli.py::test_input_past_the_size_limits_exits_2_before_any_arithmetic",),
    ),
    Mutant(
        "truncation without its MAX_TRUNCATION_DEPTH limit",
        "ktheory.py",
        "if depth > MAX_TRUNCATION_DEPTH:",
        "if False:",
        (
            "tests/test_cli.py::"
            "test_truncation_depth_past_the_limit_exits_2_before_building_the_matrix",
        ),
    ),
    Mutant(
        "discrete logarithm whose table grows one step past MAX_LOG_STEP",
        "dyadic.py",
        "step >= MAX_LOG_STEP:\n            break\n        step = min(4 * step, MAX_LOG_STEP)",
        "step > MAX_LOG_STEP:\n            break\n        step = 4 * step",
        (
            "tests/test_cli.py::"
            "test_each_error_kind_prints_its_line_and_exit_status[order past the logarithm table]",
            "tests/test_dyadic.py::test_two_power_log_prices_the_order_at_its_own_modulus",
        ),
    ),
    Mutant(
        "discrete logarithm that answers 'no power of 2' past its table instead of refusing",
        "dyadic.py",
        "    if order is None:\n        raise WorkLimitError(",
        "    if order is None:\n        return 0, None\n        raise WorkLimitError(",
        (
            "tests/test_cli.py::"
            "test_an_order_past_the_logarithm_table_exits_2_in_bounded_time_and_memory[31 digits]",
            "tests/test_classify.py::"
            "test_an_exact_witness_past_the_logarithm_table_is_a_work_limit",
            "tests/test_dyadic.py::test_two_power_log_prices_the_order_at_its_own_modulus",
        ),
    ),
    Mutant(
        "discrete logarithm off by one giant step in the order",
        "dyadic.py",
        "order = i * step - powers[y]",
        "order = (i + 1) * step - powers[y]",
        (
            "tests/test_dyadic.py::"
            "test_two_power_log_matches_the_orbit_walk_on_every_small_odd_modulus",
            "tests/test_classify.py::test_witnesses_match_the_enumerated_oracles"
            "[exact_orbit_witness-enumerated_exact_witness]",
        ),
    ),
    Mutant(
        "exact witness without the shared-valuation candidate",
        "classify.py",
        "            l, l_prime = s - alpha, s - beta\n",
        "            pass\n",
        (
            "tests/test_classify.py::test_witnesses_match_the_enumerated_oracles"
            "[exact_orbit_witness-enumerated_exact_witness]",
            "tests/test_classify.py::"
            "test_the_exact_witness_matches_the_orbit_walk_up_to_2_to_the_20",
        ),
    ),
    Mutant(
        "exact witness without the nearest candidate above",
        "classify.py",
        "if (2 * pre_b + above, pre_b + above) < (l + l_prime, l):",
        "if False:",
        (
            "tests/test_classify.py::test_exact_iso_examples",
            "tests/test_classify.py::"
            "test_the_exact_witness_matches_the_orbit_walk_up_to_2_to_the_20",
        ),
    ),
    Mutant(
        "one-pass argv parse that drops the arguments left over",
        "cli.py",
        "entry = COMMANDS.get(argv[0]) if len(argv) % 2 else None",
        "entry = COMMANDS.get(argv[0]) if argv else None",
        (
            "tests/test_cli.py::test_one_pass_over_argv_answers_as_the_whole_parser"
            "[invariant --m 9 --n 1,2 extra]",
        ),
    ),
    Mutant(
        "table reader without the choices check",
        "cli.py",
        ' or value not in keywords.get("choices", (value,))',
        "",
        (
            "tests/test_cli.py::test_one_pass_over_argv_answers_as_the_whole_parser"
            "[compare --a m=8,n=1 --b m=8,n=3 --mode bogus]",
            "tests/test_cli.py::test_the_table_reader_returns_what_the_parser_returns",
        ),
    ),
    Mutant(
        "table reader without the required-flag check",
        "cli.py",
        "if _REQUIRED in args.values():",
        "if False:",
        (
            "tests/test_cli.py::test_one_pass_over_argv_answers_as_the_whole_parser"
            "[compare --a m=8,n=1 --mode exact]",
            "tests/test_cli.py::test_the_table_reader_returns_what_the_parser_returns",
        ),
    ),
    Mutant(
        "table reader that takes a value starting with '-'",
        "cli.py",
        'value.startswith("-") or ',
        "",
        (
            "tests/test_cli.py::test_one_pass_over_argv_answers_as_the_whole_parser"
            "[invariant --n --m --m 8]",
            "tests/test_cli.py::test_the_table_reader_returns_what_the_parser_returns",
        ),
    ),
    Mutant(
        "integer rule that reads a bool as an integer",
        "dyadic.py",
        "return isinstance(value, int) and not isinstance(value, bool)",
        "return isinstance(value, int)",
        tuple(
            f"tests/test_family.py::test_bools_and_floats_are_not_read_as_integers[{case}]"
            for case in ("bool m", "bool n", "bool c")
        ),
    ),
    Mutant(
        "family member that takes a list as its prefix",
        "family.py",
        "if type(prefix) is not tuple:",
        "if False:",
        ("tests/test_family.py::test_a_prefix_that_is_not_a_tuple_is_refused",),
    ),
    Mutant(
        "family member whose _replace skips the constructor's checks",
        "family.py",
        "return cls._make((m, prefix, tail))\n\n    @classmethod\n    def _make(cls, iterable):",
        "return cls._checked((m, prefix, tail))\n\n    @classmethod\n    def _checked(cls, iterable):",
        (
            "tests/test_family.py::"
            "test_replacing_a_field_raises_what_the_constructor_raises[spec m]",
            "tests/test_family.py::"
            "test_replacing_a_field_raises_what_the_constructor_raises[spec prefix zero]",
            "tests/test_family.py::test_a_new_prefix_gets_its_own_weight",
        ),
    ),
    Mutant(
        "sparse matrix that takes a bool or a float as its row count",
        "exactlinalg.py",
        "if not is_int(rows) or rows < 0:",
        "if rows < 0:",
        (
            "tests/test_exactlinalg.py::"
            "test_the_constructors_reject_a_malformed_dimension[sparse bool rows]",
            "tests/test_exactlinalg.py::"
            "test_the_constructors_reject_a_malformed_dimension[sparse float rows]",
        ),
    ),
    Mutant(
        "cokernel elimination that ignores the pivot's sign",
        "exactlinalg.py",
        "link[r] = s, -u * e",
        "link[r] = s, -e",
        ("tests/test_exactlinalg.py::test_each_link_case_matches_sympy[unit -1]",),
    ),
    Mutant(
        "sparse presentation with the prefix one row off",
        "family.py",
        "filter(itemgetter(1), enumerate(spec.prefix))",
        "filter(itemgetter(1), enumerate(spec.prefix, 1))",
        (
            "tests/test_family.py::test_presentation_matrix_layout",
            "tests/test_family.py::test_sparse_presentation_is_the_dense_layout",
            "tests/test_exactlinalg.py::test_cokernel_matches_the_dense_smith_form_on_truncations",
        ),
    ),
    Mutant(
        "text view without the compare reason",
        "report.py",
        'if "reason" in v:',
        "if False:",
        ("tests/test_golden.py::test_output_matches_the_golden_bytes[compare-m-mismatch-text]",),
    ),
    Mutant(
        "JSON writer that leaves the keys unsorted",
        "report.py",
        "for key, item in sorted(value.items()):",
        "for key, item in value.items():",
        (
            "tests/test_golden.py::test_output_matches_the_golden_bytes[invariant-m9-json]",
            "tests/test_report.py::test_write_json_is_byte_identical_to_json_dumps",
        ),
    ),
    Mutant(
        "JSON writer that leaves non-ASCII text unescaped",
        "report.py",
        "_ESCAPE = json.encoder.encode_basestring_ascii",
        "_ESCAPE = json.encoder.py_encode_basestring",
        (
            "tests/test_golden.py::test_output_matches_the_golden_bytes[fullness-unknown-json]",
            "tests/test_report.py::test_write_json_is_byte_identical_to_json_dumps",
        ),
    ),
    Mutant(
        "JSON writer that drops the indentation inside a nested list",
        "report.py",
        "out.append(sep)\n            _encode(item, inner, out, write)",
        "out.append(sep)\n            _encode(item, indent, out, write)",
        (
            "tests/test_golden.py::test_output_matches_the_golden_bytes[compare-exact-yes-json]",
            "tests/test_report.py::test_write_json_is_byte_identical_to_json_dumps",
            "tests/test_golden.py::test_every_corpus_row_prints_the_bytes_it_printed_when_written",
        ),
    ),
    Mutant(
        "shared section encoded one indent level off, so every report walks it",
        "report.py",
        "(_IDEAL, 2)",
        "(_IDEAL, 1)",
        (
            "tests/test_report.py::"
            "test_each_shared_section_holds_the_text_of_its_contents_after_every_report",
            "tests/test_cost.py::test_a_json_fullness_at_m0_runs_under_2410_opcodes_in_every_frame",
        ),
    ),
    Mutant(
        "JSON writer that copies a shared section's text at any indent",
        "report.py",
        "elif type(item) is _Shared and item.indent == inner:",
        "elif type(item) is _Shared:",
        ("tests/test_report.py::test_a_shared_section_placed_at_another_depth_is_encoded_there",),
    ),
    Mutant(
        "integer reader that echoes a digit string with its leading zeros",
        "report.py",
        'return int(v), v.lstrip("0") or "0"',
        "return int(v), v",
        (
            "tests/test_golden.py::"
            "test_output_matches_the_golden_bytes[invariant-leading-zeros-json]",
            "tests/test_cli.py::test_every_spelling_of_a_member_prints_the_same_bytes",
            "tests/test_golden.py::test_every_corpus_row_prints_the_bytes_it_printed_when_written",
        ),
    ),
    Mutant(
        "integer reader that takes a digit string past the digit limit instead of refusing it",
        "report.py",
        "if len(v) > MAX_INTEGER_DIGITS:",
        "if False:",
        (
            "tests/test_cli.py::"
            "test_input_past_the_size_limits_exits_2_before_any_arithmetic[argv7]",
            "tests/test_cli.py::"
            "test_input_past_the_size_limits_exits_2_before_any_arithmetic[argv8]",
        ),
    ),
    Mutant(
        "JSON scan row with exactClasses and stableClasses swapped",
        "report.py",
        "row % (e, m, s) for m, e, s in value",
        "row % (s, m, e) for m, e, s in value",
        (
            "tests/test_golden.py::test_output_matches_the_golden_bytes[scan-12-json]",
            "tests/test_report.py::test_scan_rows_from_ints_render_as_their_json_row_dicts",
        ),
    ),
    Mutant(
        "text scan rows one column narrower",
        "report.py",
        "len(str(table[-1][0])) + 1)",
        "len(str(table[-1][0])))",
        (
            "tests/test_golden.py::test_output_matches_the_golden_bytes[scan-120-text]",
            "tests/test_report.py::test_scan_rows_from_ints_render_as_their_json_row_dicts",
        ),
    ),
)


def surviving_tests(mutant: Mutant) -> list[str]:
    """The tests of ``mutant`` that pytest does not report FAILED on a copy
    of ``src/`` with it applied."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE.parent, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "oneideal" / mutant.module
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text does not occur exactly once")
        path.write_text(text.replace(mutant.old, mutant.new))
        # the copy comes first on the path; pytest runs at the repository
        # root, so its -rf lines name each test as the catalogue does; it
        # keeps no cache, and Hypothesis, derandomized, no example database
        env = {**os.environ, "PYTHONPATH": str(src)}
        command = [sys.executable, "-m", "pytest", "-q", "-rf", "--color=no",
                   "-p", "no:cacheprovider", *mutant.tests]
        try:
            result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                                    timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return list(mutant.tests)
    # "FAILED <id>", then " - <message>" if one fits; an id that names a
    # parametrized test is caught by any of its cases
    failed = [line.partition(" ")[2] for line in result.stdout.splitlines()
              if line.startswith("FAILED ")]
    return [test for test in mutant.tests
            if not any(f == test or f.startswith((test + " - ", test + "[")) for f in failed)]


def main() -> int:
    start = time.perf_counter()
    killed = 0
    for mutant in MUTANTS:
        survivors = surviving_tests(mutant)
        killed += not survivors
        print(f"{'killed  ' if not survivors else 'SURVIVED'}  {mutant.name}", flush=True)
        for test in survivors:
            print(f"          not caught by {test}", flush=True)
    print(f"mutants killed {killed}/{len(MUTANTS)} in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
