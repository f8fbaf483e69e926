"""Complexity bounds as exact opcode counts (see ``cost.py``), which repeat
on any host, unlike wall time."""

from cost import opcodes


def invariant_argv(k: int) -> list[str]:
    # m - 1 = 3 * 2^10, so the default truncation depth is k + 11
    return ["invariant", "--m", "3073", "--n", ",".join(str(i % 4) for i in range(1, k + 1))]


def test_each_chain_column_of_the_truncation_costs_under_120_opcodes():
    # depths 111 and 211: 100 more chain columns, each one link and one carry
    per_column = (opcodes(invariant_argv(200)) - opcodes(invariant_argv(100))) / 100
    assert per_column < 120


COMPARE = ["compare", "--a", "m=1024,n=[3,0,5]", "--b", "m=1024,n=[5,1]", "--mode", "exact"]


def test_a_text_compare_runs_under_3000_opcodes_in_every_frame():
    # argv, spec, decision and text view, the standard library included:
    # 1,684; reading the argv with argparse made it 5,603 (3,905 once warm)
    first = opcodes(COMPARE, every_frame=True)
    assert first == opcodes(COMPARE, every_frame=True) < 3000


def test_a_json_compare_runs_under_2900_opcodes_in_every_frame():
    # the same, with the report echoing its inputs and written in one piece:
    # 2,757; converting the specs back to text and writing the report key by
    # key made it 3,502
    argv = [*COMPARE, "--format", "json"]
    first = opcodes(argv, every_frame=True)
    assert first == opcodes(argv, every_frame=True) < 2900


def test_a_json_fullness_at_m0_runs_under_3490_opcodes_in_every_frame():
    # the invariant filled into its regime's template and the condition read
    # from m and alpha once: 3,431, the first query in a process included;
    # building and validating group and cone descriptors, then converting
    # them to JSON, made it 4,448
    argv = ["fullness", "--m", "0", "--n", "2", "--format", "json"]
    first = opcodes(argv, every_frame=True)
    assert first == opcodes(argv, every_frame=True) < 3490
