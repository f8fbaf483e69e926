"""The benchmark's trace points still name attributes of the program.

``perfbench/tracing.py`` wraps module attributes by name (its ``POINTS``
table), and a rename breaks it only at install time.  This test loads that
file by path, installs its wrappers, checks that the calls of the compare
and invariant routes pass through them as often as each route makes them,
and uninstalls them again.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from oneideal.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_point_installs_fires_and_uninstalls(capsys):
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for qid, mode in enumerate(("exact", "stable")):
            argv = ["compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", mode]
            assert tracer.run_query(qid, main, argv) == 0
    finally:
        uninstall()
    capsys.readouterr()
    names = [span[3] for span in tracer.spans]
    assert names.count("family.weight_of") == 4
    assert names.count("classify.exact_orbit_witness") == 1
    assert names.count("classify.stable_orbit_witness") == 1
    assert names.count("classify.stable_gcd_equivalent") == 1
    # uninstalled: a further call records nothing
    tracer.query = 0
    assert main(["compare", "--a", "m=8,n=1", "--b", "m=8,n=3", "--mode", "exact"]) == 0
    capsys.readouterr()
    assert len(tracer.spans) == len(names)


INVARIANT_SPANS = {
    "cli.main": 1,
    "ktheory.invariant_of": 1,
    "family.alpha_of": 1,
    "ktheory.torsion_order": 1,
    "family.weight_of": 2,
    "report.to_text": 1,
}


@pytest.mark.parametrize(
    "command, spans",
    [
        (
            "invariant",
            {
                **INVARIANT_SPANS,
                "ktheory.stable_oracle_depth": 1,
                "ktheory.truncated_k0": 1,
                "family.truncated_presentation": 1,
                "exactlinalg.snf": 1,
            },
        ),
        ("fullness", {**INVARIANT_SPANS, "ordered.is_k_lexicographic": 1}),
    ],
)
def test_the_invariant_routes_fire_each_point_as_often_as_they_call_it(capsys, command, spans):
    # the weight is read twice: by torsion_order and by invariant_of
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert tracer.run_query(0, main, [command, "--m", "9", "--n", "1,0,3"]) == 0
    finally:
        uninstall()
    capsys.readouterr()
    assert Counter(span[3] for span in tracer.spans) == spans
