"""Complexity bounds as exact opcode counts (see ``cost.py``), which repeat
on any host, unlike wall time.  Each command line is a corpus row tagged
``cost``."""

from cost import opcodes
from test_golden import tagged

ARGV = tagged("cost")


def test_each_chain_column_of_the_truncation_costs_under_97_opcodes():
    # m - 1 = 3 * 2^10, so the default truncation depth is k + 11: depths
    # 111 and 211, 100 more chain columns, each one link and one carry: 92.0
    # with the relation column carried in a dict and finished by one gcd;
    # carrying every leftover column in a dense list for a general Smith-form
    # core made it 104.75
    longer, shorter = ARGV["invariant 200 entries"], ARGV["invariant 100 entries"]
    per_column = (opcodes(longer) - opcodes(shorter)) / 100
    assert per_column < 97


def test_a_text_compare_runs_under_3000_opcodes_in_every_frame():
    # argv, spec, decision and text view, the standard library included:
    # 1,634, or 1,684 while validation called a function to test m for
    # infinity; reading the argv with argparse made it 5,603 (3,905 once warm)
    argv = ARGV["compare text"]
    first = opcodes(argv, every_frame=True)
    assert first == opcodes(argv, every_frame=True) < 3000


def test_a_json_compare_runs_under_2900_opcodes_in_every_frame():
    # the same, with the report echoing its inputs and written in one piece,
    # the zero tails' echo copied as text encoded at import: 2,633 (2,683
    # while validation called a function to test m for infinity); walking
    # that echo made it 2,753, and converting the specs back to text and
    # writing the report key by key 3,502
    argv = ARGV["compare json"]
    first = opcodes(argv, every_frame=True)
    assert first == opcodes(argv, every_frame=True) < 2900


def test_a_json_fullness_at_m0_runs_under_2410_opcodes_in_every_frame():
    # the invariant filled into its regime's template, alpha a reduced
    # dyadic pair, the condition read from m and alpha once, and the constant
    # sections (ideal, quotient, groups, verdict, tail) copied as text encoded
    # at import: 2,362, the first query in a process included; alpha as a
    # fractions.Fraction, whose constructor and str ran in the count, and m
    # and alpha tested for infinity by a function call made it 2,444; walking
    # those sections key by key 3,429, and building and validating group and
    # cone descriptors, then converting them to JSON, 4,448
    argv = ARGV["fullness json"]
    first = opcodes(argv, every_frame=True)
    assert first == opcodes(argv, every_frame=True) < 2410


def test_a_json_invariant_of_100_entries_runs_under_13550_opcodes_in_every_frame():
    # the finite-m template with its ideal, cone and tail copied as text
    # encoded at import, the truncation's cokernel finished by one gcd, and
    # alpha a reduced dyadic pair: 13,271, the first query in a process
    # included; alpha as a fractions.Fraction, whose constructor and str ran
    # in the count, and m tested for infinity by a function call made it 13,380;
    # finishing the cokernel with the general Smith-form core 15,199, and
    # walking the template's sections key by key 15,729
    argv = ARGV["invariant json"]
    first = opcodes(argv, every_frame=True)
    assert first == opcodes(argv, every_frame=True) < 13550
