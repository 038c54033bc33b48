"""Record a baseline: medians and quartiles of every metric over many seeds.

    python3 perfbench/baseline.py --runs 10 [--workload chain ...]

Runs ``run.py`` once per seed for each workload, one run at a time, with
the settings of BENCHMARK.json, then one traced run per workload.  For
each end-to-end metric it records the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.  The result goes
to ``perfbench/out/baseline.json``; the committed ``perfbench/baseline.json``
is such a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}, {result}")
    return result


def summary(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    entry = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
    if bound is not None:
        entry["bound"] = bound
    return entry


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            for metric, entry in run(name, seed, 0)["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        end_to_end = {metric: summary(v, bounds[metric]) for metric, v in values.items()}
        for metric, entry in end_to_end.items():
            print(f"{name:13} {metric:16} median {entry['median']:12.6g} spread {entry['spread']:.4f} bound {entry['bound']}")
        traced = run(name, seeds[0], 1)["metrics"]
        record["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": {metric: entry["value"] for metric, entry in traced.items()},
        }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
