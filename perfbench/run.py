"""Benchmark of the ``oneideal`` command line, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload compare-orbits --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it measures set-up time in fresh interpreters, then runs
the workload for ``--seconds`` in one fresh child interpreter (whole blocks,
see ``workloads.py``) and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed list of queries twice, untraced and traced,
each in its own fresh child, and reports the per-layer metrics and the
tracing overhead; the spans go to ``.perfbench_out/``.  Every output is
checked (``checks.py``).  Times are scaled to a reference machine speed
(see REFERENCE_SPEED_S).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Children run one at a time.  The program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
SETUP_PROBE = (
    "import oneideal.cli as cli; cli.build_parser(); "
    "cli.main(['invariant', '--m', '0', '--n', '1'])"
)
CHILD_TIMEOUT = 150
# Nominal seconds per block at this commit, measured on a 2-core x86
# container with Python 3.11.  A run measures round(--seconds / nominal)
# whole blocks (half that per pass of a traced run): the query list depends
# only on the seed and --seconds, so every commit measures the same queries
# and traced counts repeat exactly.
BLOCK_SECONDS = {"invariant-deep": 0.62, "compare-orbits": 8.6, "scan-sweep": 0.96}
# The CPU speed of a shared host drifts by tens of percent over minutes, and
# a fixed loop (worker.speed_sample) slows down with it.  Every time reported
# is divided by the speed factor of the process that measured it: the mean
# of its speed samples over REFERENCE_SPEED_S, about what the loop takes on
# that container when it is quiet.  Times are thus in milliseconds of the
# reference machine; the summary lines also print the raw values.
REFERENCE_SPEED_S = 0.006


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as declared
    in BENCHMARK.json, so the names and units live in one place."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class ChildFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _spawn(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args[:2])} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def speed_factor(samples: list[float]) -> float:
    return statistics.mean(samples) / REFERENCE_SPEED_S


def measure_setup() -> tuple[list[float], float]:
    """Wall seconds from spawning a fresh interpreter to the end of one
    trivial query, and the speed factor around them; one untimed warm-up
    first, so byte code is compiled."""
    _spawn(["-c", SETUP_PROBE])
    samples, speed = [], [worker.speed_sample()]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        _spawn(["-c", SETUP_PROBE])
        samples.append(time.perf_counter() - start)
        speed.append(worker.speed_sample())
    return samples, speed_factor(speed)


def run_worker(workload: str, seed: int, *length: str, max_queries=None, spans=None) -> dict:
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *length]
    if max_queries is not None:
        args += ["--max-queries", str(max_queries)]
    if spans is not None:
        args += ["--spans", str(spans)]
    proc = _spawn(args)
    return json.loads(proc.stdout.splitlines()[-1])


def _blocks(workload: str, seconds: float) -> list[str]:
    return ["--blocks", str(max(1, round(seconds / BLOCK_SECONDS[workload])))]


def end_to_end(workload: str, seed: int, seconds: float, max_queries) -> tuple[dict, dict, dict]:
    setup, setup_speed = measure_setup()
    res = run_worker(workload, seed, *_blocks(workload, seconds), max_queries=max_queries)
    speed = speed_factor(res["speed_s"])
    raw_ms = [ns / 1e6 for ns in res["latencies_ns"]]
    lat_ms = [v / speed for v in raw_ms]
    n = len(lat_ms)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if n > 1 else lat_ms[0]
    metrics = {
        "setup_s": statistics.median(setup) / setup_speed,
        "throughput_qps": n / (sum(lat_ms) / 1e3),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": p90,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    beyond = sum(1 for v in lat_ms if v > p90)
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, raw {statistics.median(setup):.4f}"
                   f" s at speed factor {setup_speed:.3f}",
        "throughput_qps": f"{n} queries / {sum(lat_ms) / 1e3:.3f} s inside cli.main, 1 client, "
                          f"speed factor {speed:.3f}",
        "latency_p50_ms": f"{n} queries, raw {statistics.median(raw_ms):.4g} ms",
        "latency_p90_ms": f"{n} queries, {beyond} beyond p90, raw {p90 * speed:.4g} ms",
        "peak_rss_mb": "1 sample: the workload's own child process",
    }
    return res, metrics, notes


def layered(workload: str, seed: int, seconds: float, max_queries) -> tuple[dict, dict, dict]:
    length = _blocks(workload, seconds / 2)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    plain = run_worker(workload, seed, *length, max_queries=max_queries)
    traced = run_worker(workload, seed, *length, max_queries=max_queries, spans=spans_path)
    spans = tracing.read_spans(spans_path)
    n = traced["attempted"]
    speed = speed_factor(traced["speed_s"])
    metrics = tracing.layer_metrics(spans, n, traced["cache_hits"], traced["cache_misses"],
                                    traced["output_bytes"], speed)
    metrics["trace.overhead_frac"] = (sum(traced["latencies_ns"]) / speed) / (
        sum(plain["latencies_ns"]) / speed_factor(plain["speed_s"])) - 1
    res = {
        "attempted": plain["attempted"] + n,
        "failed": plain["failed"] + traced["failed"],
        "failures": plain["failures"] + traced["failures"],
    }
    notes = {name: f"per traced query ({n} queries)" for name in metrics}
    notes["trace.overhead_frac"] = f"traced / untraced time in cli.main - 1, {n} queries each"
    return res, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-queries", type=int, help="cap the number of queries (smoke runs)")
    args = parser.parse_args(argv)

    measure = layered if args.trace else end_to_end
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if not (ROOT / "src" / "oneideal").is_dir():
        # never measure some other installed copy of the package
        print(f"benchmark failed: no program source at {ROOT / 'src' / 'oneideal'}", file=sys.stderr)
        return 1
    try:
        res, metrics, notes = measure(args.workload, args.seed, args.seconds, args.max_queries)
    except (ChildFailed, subprocess.TimeoutExpired) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"benchmark failed: measured {sorted(metrics)}, BENCHMARK.json declares "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    attempted, failed = res["attempted"], res["failed"]
    for reason in res["failures"]:
        print(f"FAILED {reason}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        print(f"{name:42} {metrics[name]:>14.6g} {unit:10} {notes[name]}")
    print(f"{'failed_frac':42} {failed / attempted:>14.6g} {'ratio':10} {failed} of {attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    if any(not math.isfinite(m["value"]) for m in result["metrics"].values()):
        print("benchmark failed: a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
