"""Spans around calls into each layer of the program, installed from outside.

Each wrapper replaces the attribute that a caller looks up (for example
``oneideal.ktheory.cokernel_invariants``, which ``truncated_k0`` resolves
as a module global), so nothing under ``src/`` changes.  A missing
attribute raises at install time: a rename cannot silently drop a layer.

A span is ``(id, parent id, query id, name, group, start ns, end ns, work)``.
Spans are kept in memory while queries run and written out afterwards.  The
*group* is the per-layer metric the span's self time counts toward; a span
nested directly in a span of the same layer joins its parent's group, so
``units_mod`` called by ``class_counts`` counts as class counting, and the
same call made by a witness search counts as witness search.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter_ns

ROOT = "cli.main"


def _rows(args, result):
    return args[0].rows


def _length(args, result):
    return len(result)


def _modulus(args, result):
    return args[0] - 1


# (module, attribute looked up by the caller, span name, group, work)
POINTS = (
    ("oneideal.cli", "invariant_of", "ktheory.invariant_of", "ktheory", None),
    ("oneideal.cli", "stable_oracle_depth", "ktheory.stable_oracle_depth", "ktheory", None),
    ("oneideal.cli", "truncated_k0", "ktheory.truncated_k0", "ktheory", None),
    ("oneideal.classify", "invariant_of", "ktheory.invariant_of", "ktheory", None),
    ("oneideal.ktheory", "torsion_order", "ktheory.torsion_order", "ktheory", None),
    ("oneideal.ktheory", "truncated_k0", "ktheory.truncated_k0", "ktheory", None),
    ("oneideal.ktheory", "cokernel_invariants", "exactlinalg.snf", "exactlinalg", _rows),
    ("oneideal.cli", "validate_family", "family.validate_family", "family", None),
    ("oneideal.ktheory", "weight_of", "family.weight_of", "family", None),
    ("oneideal.classify", "weight_of", "family.weight_of", "family", None),
    ("oneideal.ktheory", "alpha_of", "family.alpha_of", "family", None),
    ("oneideal.ktheory", "truncated_presentation", "family.truncated_presentation", "family", None),
    ("oneideal.classify", "residue_cycle", "classify.residue_cycle", "classify.witness", _length),
    ("oneideal.classify", "units_mod", "classify.units_mod", "classify.witness", _length),
    ("oneideal.classify", "exact_orbit_witness", "classify.exact_orbit_witness",
     "classify.witness", None),
    ("oneideal.classify", "stable_orbit_witness", "classify.stable_orbit_witness",
     "classify.witness", None),
    ("oneideal.classify", "stable_gcd_equivalent", "classify.stable_gcd_equivalent",
     "classify.witness", None),
    ("oneideal.classify", "class_counts", "classify.class_counts", "classify.class_counts",
     _modulus),
    ("oneideal.classify", "is_k_lexicographic", "ordered.is_k_lexicographic", "ordered", None),
    ("oneideal.report", "Report.to_text", "report.to_text", "report", None),
    ("oneideal.report", "Report.to_json_dict", "report.to_json_dict", "report", None),
)


def _layer(group: str) -> str:
    return group.split(".", 1)[0]


class Tracer:
    """Records spans for the query that is running; idle between queries."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.query: int | None = None
        self._stack: list[tuple[int, str]] = []

    def call(self, name: str, group: str, work, fn, args, kwargs):
        if self.query is None:
            return fn(*args, **kwargs)
        parent, parent_group = self._stack[-1] if self._stack else (None, None)
        if parent_group is not None and _layer(parent_group) == _layer(group):
            group = parent_group
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the call returns
        self._stack.append((sid, group))
        result = None
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            amount = None if work is None or result is None else work(args, result)
            self.spans[sid] = (sid, parent, self.query, name, group, start, end, amount)

    def run_query(self, qid: int, fn, *args):
        """Run ``fn(*args)`` as query ``qid`` under a root ``cli.main`` span."""
        self.query = qid
        try:
            return self.call(ROOT, "cli", None, fn, args, {})
        finally:
            self.query = None

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer):
    """Wrap every point in ``POINTS``; returns a function that unwraps them.

    Every point is resolved before any is wrapped, so a missing one raises
    and leaves the program untouched.
    """
    resolved = []
    for module_name, attr, name, group, work in POINTS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if not hasattr(owner, leaf):
            raise AttributeError(f"trace point {module_name}.{attr} is missing")
        resolved.append((owner, leaf, getattr(owner, leaf), name, group, work))

    for owner, leaf, fn, name, group, work in resolved:
        def wrapper(*args, _name=name, _group=group, _work=work, _fn=fn, **kwargs):
            return tracer.call(_name, _group, _work, _fn, args, kwargs)

        setattr(owner, leaf, functools.wraps(fn)(wrapper))

    def uninstall() -> None:
        for owner, leaf, fn, *_ in reversed(resolved):
            setattr(owner, leaf, fn)

    return uninstall


def read_spans(path: str) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh]


def self_times(spans) -> list[int]:
    """Self time of each span in ns: its duration minus its children's."""
    child = defaultdict(int)
    for sid, parent, _q, _n, _g, start, end, _w in spans:
        if parent is not None:
            child[parent] += end - start
    return [end - start - child[sid] for sid, _p, _q, _n, _g, start, end, _w in spans]


def per_query(spans, name: str, queries: int) -> list[int]:
    """Number of ``name`` spans in each query, indexed by query id."""
    counts = [0] * queries
    for span in spans:
        if span[3] == name:
            counts[span[2]] += 1
    return counts


def layer_metrics(spans, queries: int, cache_hits: int, cache_misses: int,
                  output_bytes: int, speed: float = 1.0) -> dict[str, float]:
    """Per-query layer metrics from the spans of ``queries`` traced queries;
    times are divided by the machine ``speed`` factor."""
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    work = defaultdict(int)
    group_calls = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        _sid, _parent, _q, name, group, _start, _end, amount = span
        self_ns[group] += own
        calls[name] += 1
        group_calls[_layer(group)] += 1
        work[name] += amount or 0

    def per(value):
        return value / queries

    def ms(group):
        return self_ns[group] / 1e6 / speed / queries

    lookups = cache_hits + cache_misses
    return {
        "exactlinalg.snf_calls_per_query": per(calls["exactlinalg.snf"]),
        "exactlinalg.snf_self_ms_per_query": ms("exactlinalg"),
        "exactlinalg.snf_rows_mean": (work["exactlinalg.snf"] / calls["exactlinalg.snf"]
                                      if calls["exactlinalg.snf"] else 0.0),
        "ktheory.invariant_calls_per_query": per(calls["ktheory.invariant_of"]),
        "ktheory.torsion_calls_per_query": per(calls["ktheory.torsion_order"]),
        "ktheory.self_ms_per_query": ms("ktheory"),
        "family.calls_per_query": per(group_calls["family"]),
        "family.self_ms_per_query": ms("family"),
        "classify.witness_self_ms_per_query": ms("classify.witness"),
        "classify.residues_enumerated_per_query": per(work["classify.residue_cycle"]),
        "classify.units_enumerated_per_query": per(work["classify.units_mod"]),
        "classify.unit_cache_hit_ratio": cache_hits / lookups if lookups else 0.0,
        "classify.consistency_checks_per_query": per(calls["classify.stable_gcd_equivalent"]),
        "classify.class_counts_self_ms_per_query": ms("classify.class_counts"),
        "classify.residues_partitioned_per_query": per(work["classify.class_counts"]),
        "ordered.calls_per_query": per(calls["ordered.is_k_lexicographic"]),
        "ordered.self_ms_per_query": ms("ordered"),
        "report.render_self_ms_per_query": ms("report"),
        "report.bytes_per_query": per(output_bytes),
        "cli.self_ms_per_query": ms("cli"),
    }
