"""The byte-identity gate: a fixed corpus of command lines, each with the
exit status and the sha256 of the stdout and stderr it gave when the corpus
was written.

``corpus.jsonl`` holds one row per command line: its tag, its argv, its
exit status and the two digests.  The rows are every golden argv in text
and JSON, every error line of ``test_cli.ERROR_LINES``, ``scan --max-m
100000`` in text and JSON, and the first three blocks of each perfbench
workload at seeds 11 and 12.  The perfbench rows are stored as argv, so this
test never imports perfbench.

A change that must not move an output byte leaves the file as it is.  A
deliberate change of the output rewrites it with
``PYTHONPATH=src python tests/test_corpus.py --regenerate``, and the diff
names the rows that changed.
"""

import hashlib
import json
import sys
from pathlib import Path

from test_cli import ERROR_LINES
from test_golden import ARGV, SUFFIX, run

CORPUS = Path(__file__).parent / "corpus.jsonl"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS, BLOCKS = (11, 12), 3


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def outcome(argv: list[str]) -> tuple[int, str, str]:
    """The exit status of ``cli.main(argv)`` and the digests of its stdout
    and stderr."""
    status, out, err = run(*argv)
    return status, digest(out), digest(err)


def rows() -> list[dict]:
    return [json.loads(line) for line in CORPUS.read_text().splitlines()]


def test_every_corpus_row_prints_the_bytes_it_printed_when_written():
    changed = [
        row["tag"] for row in rows()
        if outcome(row["argv"]) != (row["status"], row["stdout"], row["stderr"])
    ]
    assert changed == []


def test_the_corpus_holds_every_golden_and_error_line_argv():
    held = {tuple(row["argv"]) for row in rows()}
    wanted = [(*argv, "--format", fmt) for argv in ARGV.values() for fmt in SUFFIX]
    wanted += [argv for argv, _, _ in ERROR_LINES.values()]
    assert [argv for argv in wanted if argv not in held] == []


def _argvs():
    """(tag, argv) for every row, the perfbench blocks read from its workloads."""
    for name, argv in ARGV.items():
        for fmt in SUFFIX:
            yield f"golden {name} {fmt}", [*argv, "--format", fmt]
    for name, (argv, _, _) in ERROR_LINES.items():
        yield f"error {name}", list(argv)
    for fmt in SUFFIX:
        yield f"scan 100000 {fmt}", ["scan", "--max-m", "100000", "--format", fmt]
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            stream = workloads.blocks(workload, seed)
            for block in range(BLOCKS):
                for i, query in enumerate(next(stream)):
                    yield f"{workload} seed {seed} block {block} query {i}", list(query.argv)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --regenerate")
    with CORPUS.open("w") as out:
        for tag, argv in _argvs():
            status, stdout, stderr = outcome(argv)
            row = {"tag": tag, "argv": argv, "status": status, "stdout": stdout, "stderr": stderr}
            out.write(json.dumps(row) + "\n")
