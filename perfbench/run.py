"""Benchmark of the probalc query path, as a ``probalc query`` user runs it.

One client in one thread sends one query at a time (a closed loop).  Each
query is the library path of ``probalc query``: ``parse_kb`` on the KB
text, ``parse_query`` on the query text and ``probability_query`` with the
default glass-box method and BDD engine.  Queries go in whole passes over
the workload, and the run stops at the end of the pass nearest to
``--seconds``.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --seed 1       # every workload, see run_all()

Set-up (the package import plus one untimed warm-up query) is repeated
three times from a fresh import, and ``setup_s`` is the median.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that record spans around every layer's entry
points (see tracer.py), and reports the per-layer metrics of one pass.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it name every
metric with its unit, plus ``failed_ratio`` (failed / attempted), which
is left out of ``metrics`` because it is 0 on a correct run.  A record
with the seed, input sizes, Python version and processor count goes to
``perfbench/out/``.

Exit status: 0 when every query was answered and matched its reference,
1 when some query failed or was wrong, 2 when the package is not found
next to the benchmark, 3 when the tracer's self-check fails.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
DEFAULT_SECONDS = 45


def use_sources() -> bool:
    """Import probalc from the sources next to the benchmark, if they are there."""
    if not (SRC / "probalc" / "__init__.py").is_file():
        print(f"probalc sources not found under {SRC}", file=sys.stderr)
        return False
    # Read the sources as they are, and leave no bytecode next to them.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    return True


def import_probalc():
    """A fresh import of the package, with no module cache carried over."""
    for name in [m for m in sys.modules if m == "probalc" or m.startswith("probalc.")]:
        del sys.modules[name]
    return importlib.import_module("probalc")


def answer(probalc, case: workloads.Case):
    kb = probalc.parse_kb(case.kb_text)
    query = probalc.parse_query(case.query_text)
    return probalc.probability_query(kb, query)


def setup(name: str, seed: int, size: int | None = None, repeats: int = SETUP_REPEATS):
    """Import the package and answer the warm-up query, ``repeats`` times.

    Returns the last import, the workload and the median set-up time.
    Building the workload's input text is not part of set-up.
    """
    samples = []
    workload = None
    for _ in range(repeats):
        start = time.perf_counter()
        probalc = import_probalc()
        imported = time.perf_counter()
        if workload is None:
            workload = workloads.build(name, probalc, seed, size)
        built = time.perf_counter()
        answer(probalc, workload.warmup)
        samples.append(imported - start + time.perf_counter() - built)
    # Collect the discarded imports now rather than inside the timed loop.
    gc.collect()
    return probalc, workload, statistics.median(samples)


@dataclass
class Loop:
    latencies: list[float]
    # In send order: the query's Answer, or the exception it raised.
    outcomes: list
    wall: float
    passes: int


def closed_loop(probalc, cases, *, seconds: float | None = None, passes: int | None = None, spans=None) -> Loop:
    """Send whole passes over ``cases`` until ``passes`` run out or ``seconds`` are near.

    With ``seconds`` the loop ends at the pass boundary nearest to it: one
    corpus pass takes 12-15 s, and going on until ``seconds`` had passed made
    a run last up to a whole pass longer than asked.
    """
    latencies: list[float] = []
    outcomes: list = []
    # Equal answers share one record, so that the harness's own memory does
    # not grow with the number of queries and show in peak_rss_mb.
    distinct: dict[workloads.Answer, workloads.Answer] = {}
    done = 0
    start = time.perf_counter()
    while True:
        for case in cases:
            if spans is not None:
                spans.query += 1
            sent = time.perf_counter()
            try:
                outcome = answer(probalc, case)
            except Exception as exc:  # counted as a failed query; the loop goes on
                outcome = exc
            latencies.append(time.perf_counter() - sent)
            if not isinstance(outcome, Exception):
                outcome = workloads.Answer.of(outcome)
                outcome = distinct.setdefault(outcome, outcome)
            outcomes.append(outcome)
        done += 1
        if passes is not None and done >= passes:
            break
        elapsed = time.perf_counter() - start
        if seconds is not None and elapsed + elapsed / done / 2 >= seconds:
            break
    return Loop(latencies, outcomes, time.perf_counter() - start, done)


def problems(loop: Loop, expected: list[workloads.Expected]) -> tuple[list[str], int]:
    """Every failed query, and how many of them were wrong answers."""
    found = []
    wrong = 0
    for i, outcome in enumerate(loop.outcomes):
        case = i % len(expected)
        if isinstance(outcome, Exception):
            found.append(f"query {i} (case {case}): {type(outcome).__name__}: {outcome}")
            continue
        why = workloads.mismatch(outcome, expected[case])
        if why is not None:
            wrong += 1
            found.append(f"query {i} (case {case}): wrong answer: {why}")
    return found, wrong


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile, used for the median.

    A mean of all order statistics, weighted by the Beta(p(n+1), (1-p)(n+1))
    mass on [(i-1)/n, i/n].  On a shared host the chain queries can fall
    into a fast and a slow group, and the sample median flips between the
    two; the weighted mean moves smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # Midpoint rule, which never evaluates the density at 0 or 1, where it
    # can be infinite; the weights are normalised below.
    steps = 32
    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def local_quantile(values: list[float], p: float) -> float:
    """Mean of the samples ranked between the (p - 0.01) and (p + 0.01) quantiles.

    At least one sample is taken.  Used for p95: the top 3% of corpus
    queries take 0.6-7 s against 0.05 s at p95, and Harrell-Davis weights
    reach that far, so its p95 fell from 109 to 65, 56 and 53 ms as a run
    made 1, 2, 3 or 4 passes over the same 200 queries.  This estimate
    stays within 49-51 ms for all four, and it is as steady as
    Harrell-Davis on the chain latencies.
    """
    xs = sorted(values)
    n = len(xs)
    low = min(n - 1, math.floor((p - 0.01) * n))
    high = max(low + 1, math.ceil((p + 0.01) * n))
    return statistics.fmean(xs[low:high])


def end_to_end(loop: Loop, setup_s: float, peak_mib: float) -> dict:
    ms = [latency * 1000.0 for latency in loop.latencies]
    return {
        "throughput_qps": (len(loop.outcomes) / loop.wall, "1/s"),
        "latency_p50_ms": (harrell_davis(ms, 0.5), "ms"),
        "latency_p95_ms": (local_quantile(ms, 0.95), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }


def peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_one(name: str, seed: int, seconds: float, trace: bool, size: int | None = None, *,
            expect=None, save: bool = True) -> tuple[dict, int]:
    """One workload in this process; returns the result line and exit status.

    ``expect`` replaces the workload's references (the self-test uses it
    to check that a wrong reference fails the gate).
    """
    probalc, workload, setup_s = setup(name, seed, size)
    if trace:
        # For the overhead ratio, neither side may pay for cold caches or
        # for going first: after one pass that only warms the caches (its
        # answers are still checked), untraced and traced passes alternate
        # in pairs whose order flips, for at least two pairs.
        warm = closed_loop(probalc, workload.cases, passes=1)
        spans = tracer.Tracer()
        plain, traced = [], []

        def untraced_pass():
            plain.append(closed_loop(probalc, workload.cases, passes=1))

        def traced_pass():
            with spans.installed():
                traced.append(closed_loop(probalc, workload.cases, passes=1, spans=spans))

        start = time.perf_counter()
        while len(plain) < 2 or time.perf_counter() - start < seconds:
            pair = (untraced_pass, traced_pass) if len(plain) % 2 == 0 else (traced_pass, untraced_pass)
            for one_pass in pair:
                one_pass()
        loops = [warm] + plain + traced
        traced_outcomes = [outcome for each in traced for outcome in each.outcomes]
        spans.self_check({i: r for i, r in enumerate(traced_outcomes) if not isinstance(r, Exception)})
        overhead = sum(each.wall for each in traced) / sum(each.wall for each in plain) - 1.0
        metrics = tracer.per_layer(spans.spans, len(traced), len(workload.cases), overhead)
    else:
        loops = [closed_loop(probalc, workload.cases, seconds=seconds)]
        metrics = end_to_end(loops[0], setup_s, peak_rss_mib())

    expected = (expect or workload.references)(probalc)
    failures: list[str] = []
    wrong = 0
    for each in loops:
        found, bad = problems(each, expected)
        failures += found
        wrong += bad
    attempted = sum(len(each.outcomes) for each in loops)
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": workload.sizes,
        "queries_per_pass": len(workload.cases),
        "passes": sum(each.passes for each in loops),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "failed_ratio": len(failures) / attempted,
    }
    print("meta " + json.dumps(meta))
    for metric, (value, unit) in metrics.items():
        print(f"metric {metric} {value!r} {unit}")
    print(f"metric failed_ratio {meta['failed_ratio']!r} ratio")
    for line in failures[:20]:
        print(f"failed {line}", file=sys.stderr)
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }
    if save:
        OUT.mkdir(exist_ok=True)
        stem = f"{name}-seed{seed}-trace{int(trace)}"
        record = {"meta": meta, "result": result, "failures": failures}
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if trace:
            spans.write(OUT / f"{stem}.spans.jsonl")
    return result, 0 if not failures else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own fresh process, one after another.

    Each workload runs untraced once and traced twice; the two traced
    runs must report the same counts.
    """
    status = 0
    combined: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        counts = []
        for trace in (0, 1, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit status {done.returncode}", file=sys.stderr)
                status = status or done.returncode or 1
            if not lines or not lines[-1].startswith("{"):
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            if trace:
                counts.append({k: result["metrics"][k]["value"] for k in tracer.COUNTS})
            if trace and len(counts) == 2:
                continue
            rows = dict(result["metrics"])
            if not trace:
                rows["failed_ratio"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
            for metric, entry in rows.items():
                combined["metrics"][f"{name}/{metric}"] = entry
                print(f"{name:13} {metric:34} {entry['value']:>14.6g} {entry['unit']}")
        if len(counts) == 2 and counts[0] != counts[1]:
            print(f"{name}: counts differ between two traced runs: {counts}", file=sys.stderr)
            status = status or 1
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not use_sources():
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        result, status = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except tracer.TracerError as exc:
        print(f"tracer self-check failed: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
