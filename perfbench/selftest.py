"""Fast self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Runs chain n=2, atomic-chain k=5 and a corpus of 5 KBs through the
harness, untraced and traced, and checks that:

- every metric BENCHMARK.json names is printed and reported with its unit;
- every answer passes its correctness gate and the tracer self-check;
- a deliberately wrong reference fails the gate and the exit status;
- a call path hidden from the tracer fails its self-check.

Exits 0 when all checks pass and 1 otherwise.  It takes a few seconds and
writes nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import tracer
import workloads

TINY = {"chain": 2, "atomic-chain": 5, "corpus": 5}
SECONDS = 0.05


def quiet_run(*args, **kwargs):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
        result, status = run.run_one(*args, save=False, **kwargs)
    return result, status, printed.getvalue().splitlines()


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    if not run.use_sources():
        return 1
    errors: list[str] = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            errors.append(what)

    for name, size in TINY.items():
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            label = f"{name} (size {size}, trace {int(trace)})"
            result, status, lines = quiet_run(name, 0, SECONDS, trace, size)
            check(status == 0 and result["correct"] and result["failed"] == 0, f"{label}: {result}")
            check(set(result["metrics"]) == {m["name"] for m in listed}, f"{label}: metrics {sorted(result['metrics'])}")
            for metric in listed:
                reported = result["metrics"].get(metric["name"], {})
                check(reported.get("unit") == metric["unit"], f"{label}: {metric['name']} unit {reported.get('unit')!r}")
                check(
                    any(line.startswith(f"metric {metric['name']} ") and line.endswith(f" {metric['unit']}") for line in lines),
                    f"{label}: {metric['name']} not printed with its unit",
                )

    wrong = {
        "chain": lambda _: [workloads.Expected(0.504**2 * 1.01)],
        "atomic-chain": lambda _: [workloads.Expected(0.99**5, bdd_nodes=6)],
    }
    for name, expect in wrong.items():
        result, status, _ = quiet_run(name, 0, SECONDS, False, TINY[name], expect=expect)
        check(
            status == 1 and not result["correct"] and result["failed"] == result["attempted"],
            f"{name}: a wrong reference passed the gate: {result}",
        )

    probalc, workload, _ = run.setup("chain", 0, TINY["chain"], repeats=1)
    spans = tracer.Tracer()
    with spans.installed():
        from probalc import justify, tableau

        justify.entails = tableau.entails  # a call path the tracer no longer sees
        loop = run.closed_loop(probalc, workload.cases, passes=1, spans=spans)
    try:
        spans.self_check(dict(enumerate(loop.outcomes)))
        errors.append("the tracer self-check missed a hidden call path")
    except tracer.TracerError:
        pass

    for error in errors:
        print(f"selftest: FAILED {error}")
    print("selftest: ok" if not errors else f"selftest: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
