"""One workload in one fresh interpreter: a closed loop with a single client.

Each query calls ``oneideal.cli.main(argv)`` in-process with stdout and
stderr captured, and the next query is sent only after it returns and its
output has been checked.  Only the ``main`` call is timed.  The worker
prints one JSON line with the per-query times, the failure count, speed
samples of the machine and its own peak resident memory.

Run by ``run.py``; by hand::

    PYTHONPATH=src python3 perfbench/worker.py --workload scan-sweep --seed 1 --blocks 2
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
import time

import checks
import workloads


SPEED_INTERVAL_S = 0.25


def speed_sample() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed.

    The loop mixes integer arithmetic, dict updates and small allocations,
    like the program, and never calls the program, so only the machine's
    speed moves it.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i % 7
        _ = [i, i + 1, str(i)]
    return time.perf_counter() - start


def run_queries(queries, tracer=None) -> dict:
    """Run and check ``queries`` in order; ``tracer`` records spans if given.

    Between queries, outside the timed region, a speed sample is taken every
    SPEED_INTERVAL_S of wall time, and once before and after the run.
    """
    from oneideal import cli
    from oneideal.report import Report

    latencies: list[int] = []
    failures: list[str] = []
    output_bytes = 0
    speed = [speed_sample()]
    sampled = time.perf_counter()
    for qid, query in enumerate(queries):
        out, err = io.StringIO(), io.StringIO()
        argv = list(query.argv)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.run_query(qid, cli.main, argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escaped exception is a failed query
                code = f"escaped {exc!r}"
            latencies.append(time.perf_counter_ns() - start)
        stdout = out.getvalue()
        output_bytes += len(stdout.encode())
        if isinstance(code, str):
            reason = code
        else:
            reason = checks.check(query, code, stdout, err.getvalue(), Report)
        if reason is not None:
            failures.append(f"{' '.join(query.argv)}: {reason}")
        if time.perf_counter() - sampled >= SPEED_INTERVAL_S:
            speed.append(speed_sample())
            sampled = time.perf_counter()
    speed.append(speed_sample())
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "latencies_ns": latencies,
        "output_bytes": output_bytes,
        "speed_s": speed,
    }


def fixed_queries(workload: str, seed: int, blocks: int, max_queries: int | None) -> list:
    stream = itertools.islice(workloads.blocks(workload, seed), blocks)
    return list(itertools.islice(itertools.chain.from_iterable(stream), max_queries))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, required=True, help="number of query blocks")
    parser.add_argument("--max-queries", type=int, help="stop after this many queries")
    parser.add_argument("--spans", help="trace the run and write its spans to this file")
    args = parser.parse_args(argv)

    queries = fixed_queries(args.workload, args.seed, args.blocks, args.max_queries)
    tracer = None
    if args.spans:
        from oneideal import classify

        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        before = classify._unit_multiples.cache_info()
    result = run_queries(queries, tracer)
    if tracer is not None:
        after = classify._unit_multiples.cache_info()
        result["cache_hits"] = after.hits - before.hits
        result["cache_misses"] = after.misses - before.misses
        tracer.write(args.spans)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
