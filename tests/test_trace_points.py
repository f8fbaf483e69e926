"""The benchmark's trace points still name attributes of the program.

``perfbench/tracing.py`` wraps module attributes by name (its ``POINTS``
table), and a rename breaks it only at install time.  This test loads that
file by path, installs its wrappers, checks that the congruence layer's
calls pass through them, and uninstalls them again.
"""

import importlib.util
from pathlib import Path

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
