"""The exact bytes each command prints, text and JSON, for one argv per
command and section shape.

The expected output of ``<name>`` lives in ``golden/<name>.txt`` (text) and
``golden/<name>.json`` (JSON).  A deliberate change of either format
rewrites them with ``PYTHONPATH=src python tests/test_golden.py``, and the
diff shows what changed.
"""

import contextlib
import io
from pathlib import Path

import pytest

from oneideal.cli import main

GOLDEN = Path(__file__).parent / "golden"
ARGV = {
    "invariant-m9": ("invariant", "--m", "9", "--n", "1"),
    "invariant-m9-depth3": ("invariant", "--m", "9", "--n", "1", "--depth", "3"),
    "invariant-m0-zero": ("invariant", "--m", "0", "--n", "1,1"),
    "invariant-m0-constant": ("invariant", "--m", "0", "--n", "1,0,3", "--tail", "constant:2"),
    "invariant-m0-doubling": ("invariant", "--m", "0", "--n", "1", "--tail", "doubling:1"),
    "invariant-minf": ("invariant", "--m", "inf", "--n", "2", "--tail", "constant:4"),
    # x = 1: no torsion summand, an empty torsion list
    "invariant-m2-no-torsion": ("invariant", "--m", "2", "--n", "1"),
    # the echoed inputs drop the leading zeros
    "invariant-leading-zeros": ("invariant", "--m", "009", "--n", "001,0,3"),
    "fullness-full": ("fullness", "--m", "8", "--n", "1"),
    "fullness-unknown": ("fullness", "--m", "0", "--n", "2"),
    "fullness-m0-doubling": ("fullness", "--m", "0", "--n", "1", "--tail", "doubling:1"),
    "compare-exact-yes": ("compare", "--a", "m=8,n=1", "--b", "m=8,n=2", "--mode", "exact"),
    "compare-exact-no": ("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "exact"),
    "compare-stable-unit": ("compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "stable"),
    "compare-m-mismatch": ("compare", "--a", "m=4,n=1", "--b", "m=8,n=1", "--mode", "stable"),
    # the minimal witnesses of each branch: (1, 0) from the shared-valuation
    # candidate; unit 5, lifted past the non-unit 2; (10, 3), after the
    # logarithm's table grows once and its giant steps find the order 100 of
    # 2 modulo 125; and the gcds with 7 differ, so no witness at all
    "compare-exact-shared-valuation": (
        "compare", "--a", "m=5,n=1", "--b", "m=5,n=2", "--mode", "exact"),
    "compare-stable-lifted-unit": (
        "compare", "--a", "m=7,n=1", "--b", "m=7,n=4", "--mode", "stable"),
    "compare-exact-giant-steps": (
        "compare", "--a", "m=1001,n=1", "--b", "m=1001,n=3", "--mode", "exact"),
    "compare-exact-gcd-differs": ("compare", "--a", "m=8,n=1", "--b", "m=8,n=7", "--mode", "exact"),
    "compare-stable-gcd-differs": (
        "compare", "--a", "m=8,n=1", "--b", "m=8,n=7", "--mode", "stable"),
    # no m up to 7 diverges: a null smallest m and no marker
    "scan-7": ("scan", "--max-m", "7"),
    "scan-12": ("scan", "--max-m", "12"),
    # past m = 100 the m column widens
    "scan-120": ("scan", "--max-m", "120"),
}
SUFFIX = {"text": ".txt", "json": ".json"}


def run(*argv: str) -> tuple[int, str, str]:
    """The exit status of ``cli.main(argv)`` and what it wrote to stdout and
    stderr; argparse's own exits (help, usage errors) give their status.
    The tests that read a command's output in this process read it here."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(list(argv))
        except SystemExit as exit_:
            status = exit_.code
    return status, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("fmt", SUFFIX)
@pytest.mark.parametrize("name", ARGV)
def test_output_matches_the_golden_bytes(name, fmt):
    expected = (GOLDEN / (name + SUFFIX[fmt])).read_bytes().decode()
    assert run(*ARGV[name], "--format", fmt) == (0, expected, "")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in ARGV.items():
        for fmt, suffix in SUFFIX.items():
            status, out, err = run(*argv, "--format", fmt)
            assert (status, err) == (0, ""), argv
            (GOLDEN / (name + suffix)).write_bytes(out.encode())
