"""Self-tests of the benchmark.  Run from the repository root with::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys

import pytest

import run
import tracing
import worker
import workloads
from workloads import INF


def _first(workload: str, seed: int, count: int) -> list:
    return list(itertools.islice(itertools.chain.from_iterable(workloads.blocks(workload, seed)),
                                 count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--max-queries", "6"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    units = run.metric_units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in {**units, "failed_frac": "ratio"}.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines[:-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert _first(workload, 7, 60) == _first(workload, 7, 60)
    assert _first(workload, 7, 60) != _first(workload, 8, 60)


def test_injected_wrong_verdict_counts_as_failed(monkeypatch):
    from oneideal import classify
    from oneideal.classify import IsoVerdict

    queries = [q for q in _first("compare-orbits", 1, 120)
               if q.mode == "exact" and q.error is None][:6]
    assert worker.run_queries(queries)["failed"] == 0
    exact_iso = classify.exact_iso
    monkeypatch.setattr(classify, "exact_iso",
                        lambda a, b: IsoVerdict(isomorphic=not exact_iso(a, b).isomorphic))
    assert worker.run_queries(queries)["failed"] == len(queries)


def _traced(workload: str, count: int):
    queries = _first(workload, 5, count)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        result = worker.run_queries(queries, tracer)
    finally:
        uninstall()
    assert result["failed"] == 0, result["failures"]
    return queries, tracer.spans


def test_traced_counts_repeat_and_match_the_seed_smith_form_route():
    queries, spans = _traced("invariant-deep", 40)
    _, again = _traced("invariant-deep", 40)
    assert [s[:5] + s[7:] for s in spans] == [s[:5] + s[7:] for s in again]
    snf = tracing.per_query(spans, "exactlinalg.snf", len(queries))
    for query, calls in zip(queries, snf):
        (member,) = query.members
        finite = query.error is None and member.m not in (0, INF)
        # the truncation-oracle route: torsion_order runs two Smith forms per
        # invariant, `invariant` adds the report's truncation and `fullness`
        # computes the invariant twice; update when that route changes
        expected = {"invariant": 3, "fullness": 4}[query.command] if finite else 0
        assert calls == expected, query.argv


@pytest.mark.parametrize("workload", ("compare-orbits", "scan-sweep"))
def test_no_smith_forms_outside_invariant_deep(workload):
    queries, spans = _traced(workload, 12)
    assert sum(tracing.per_query(spans, "exactlinalg.snf", len(queries))) == 0


def test_missing_trace_point_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "POINTS", tracing.POINTS + (
        ("oneideal.classify", "no_such_function", "classify.none", "classify.witness", None),))
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError, match="no_such_function"):
        tracing.install(tracer)
