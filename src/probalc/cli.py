"""Command line interface.

Subcommands: ``query`` answers a probabilistic query against a KB file,
``gen`` prints a generated KB, ``bench`` runs the chain scaling table and
``check`` tests consistency.  Exit codes: 0 on success, 1 on a parse
error, 2 when a timeout or budget is exhausted or the reasoner runs out
of Python stack or memory.  A reader that closes the output early (as
``| head -1`` does) ends the run quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .generators import chain_query, generate_synthetic, random_kb
from .justify import CoveringSet
from .parser import ParseError, parse_kb, parse_query, render_annotated, serialize_kb
from .pinpoint import render_formula
from .bdd import BddManager
from .semantics import (
    RunConfig,
    WorldLimitError,
    probability_query,
)
from .tableau import Deadline, ResourceLimitError, is_consistent

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_RESOURCE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probalc",
        description="Probabilistic ALC reasoning over annotated knowledge bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="compute the probability of a query")
    query.add_argument("kb", type=Path, help="knowledge base file")
    query.add_argument("query", help="query text, e.g. 'a : C' or 'C <= D'")
    query.add_argument("--method", choices=("glassbox", "blackbox"), default="glassbox")
    query.add_argument("--engine", choices=("bdd", "bruteforce"), default="bdd")
    query.add_argument("--timeout", type=float, default=600.0, metavar="SECS")
    query.add_argument("--json", action="store_true", help="print one JSON object")
    query.add_argument("--dot", type=Path, metavar="PATH", help="write the diagram as DOT")
    query.set_defaults(func=cmd_query)

    gen = sub.add_parser("gen", help="generate a knowledge base")
    gen.add_argument("n", nargs="?", type=_positive_int, help="chain layers")
    gen.add_argument("--random", action="store_true", help="random KB instead of the chain")
    gen.add_argument("--axioms", type=int, default=10, help="max axioms for --random")
    gen.add_argument("--seed", type=int, default=0, metavar="N")
    gen.add_argument("-o", "--out", type=Path, help="write to file instead of stdout")
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="scaling table over the chain family")
    bench.add_argument("max_n", type=int, help="largest chain length (rows 2, 4, ...)")
    bench.add_argument("--method", choices=("glassbox", "blackbox"), default="glassbox")
    bench.add_argument("--engine", choices=("bdd", "bruteforce"), default="bdd")
    bench.add_argument("--timeout", type=float, default=600.0, metavar="SECS")
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=cmd_bench)

    check = sub.add_parser("check", help="consistency of all axioms taken together")
    check.add_argument("kb", type=Path)
    check.add_argument("--timeout", type=float, default=600.0, metavar="SECS")
    check.add_argument("--json", action="store_true")
    check.set_defaults(func=cmd_check)
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("n must be >= 1")
    return value


def _parse_kb_file(path: Path):
    return parse_kb(path.read_text())


def _print_parse_error(error: ParseError) -> None:
    print(f"parse error at {error.line}:{error.column}: {error.message}", file=sys.stderr)


def _print_out_of_memory() -> None:
    # str(MemoryError()) is empty, so the message names the cause itself.
    print("aborted: out of memory", file=sys.stderr)


def _justification_lines(kb, covering: CoveringSet) -> list[str]:
    lines = []
    for rank, just in enumerate(covering.ordered(), 1):
        lines.append(f"justification {rank}:")
        for index in sorted(just):
            lines.append(f"  axiom {index + 1}: {render_annotated(kb.axioms[index])}")
    return lines


def cmd_query(args: argparse.Namespace) -> int:
    try:
        kb = _parse_kb_file(args.kb)
        query = parse_query(args.query)
    except ParseError as error:
        _print_parse_error(error)
        return EXIT_PARSE
    except OSError as error:
        print(f"cannot read {args.kb}: {error.strerror or error}", file=sys.stderr)
        return EXIT_PARSE
    config = RunConfig(
        method=args.method,
        engine=args.engine,
        timeout_s=args.timeout,
    )
    try:
        result = probability_query(kb, query, config)
        if args.dot:
            manager = BddManager(len(kb.prob_indices))
            dot = manager.to_dot(manager.build(result.formula))
    except (ResourceLimitError, WorldLimitError, RecursionError) as error:
        print(f"aborted: {error}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        _print_out_of_memory()
        return EXIT_RESOURCE
    if args.dot:
        args.dot.write_text(dot)
    formula_text = render_formula(result.formula)
    if args.json:
        payload = {
            "probability": result.probability,
            "justifications": [sorted(j) for j in result.covering.ordered()],
            "formula": formula_text,
            "bdd_nodes": result.bdd_nodes,
            "tableau_calls": result.covering.tableau_calls,
            "hst_nodes": result.covering.hst_nodes,
            "memo_hits": result.covering.memo_hits,
            "time_ms": result.time_ms,
            "config": config.as_dict(),
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"probability: {result.probability:.12g}")
        print(f"justifications ({len(result.covering)}):")
        for line in _justification_lines(kb, result.covering):
            print(f"  {line}")
        print(f"formula: {formula_text}")
        print(f"bdd nodes: {result.bdd_nodes}")
        print(f"time: {result.time_ms:.1f} ms")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.random:
        kb = random_kb(args.seed, max_axioms=args.axioms)
    else:
        if args.n is None:
            print("gen: provide a chain length or --random", file=sys.stderr)
            return EXIT_PARSE
        kb = generate_synthetic(args.n)
    text = serialize_kb(kb)
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    config_base = dict(method=args.method, engine=args.engine, timeout_s=args.timeout)
    rows = []
    print(f"{'n':>4} {'axioms':>7} {'justs':>7} {'bdd':>6} {'probability':>16} {'time_s':>9}")
    for n in range(2, args.max_n + 1, 2):
        kb = generate_synthetic(n)
        query = chain_query(n)
        try:
            result = probability_query(kb, query, RunConfig(**config_base))
        except (ResourceLimitError, WorldLimitError):
            print(f"{n:>4} {len(kb):>7} {'--':>7} {'--':>6} {'--':>16} {'--':>9}")
            rows.append({"n": n, "timeout": True})
            continue
        elapsed = result.time_ms / 1000
        print(
            f"{n:>4} {len(kb):>7} {len(result.covering):>7} {result.bdd_nodes:>6}"
            f" {result.probability:>16.12g} {elapsed:>9.3f}"
        )
        rows.append(
            {
                "n": n,
                "justifications": len(result.covering),
                "bdd_nodes": result.bdd_nodes,
                "probability": result.probability,
                "tableau_calls": result.covering.tableau_calls,
                "hst_nodes": result.covering.hst_nodes,
                "memo_hits": result.covering.memo_hits,
                "time_s": elapsed,
            }
        )
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    try:
        kb = _parse_kb_file(args.kb)
    except ParseError as error:
        _print_parse_error(error)
        return EXIT_PARSE
    except OSError as error:
        print(f"cannot read {args.kb}: {error.strerror or error}", file=sys.stderr)
        return EXIT_PARSE
    try:
        consistent = is_consistent(
            [a.axiom for a in kb.axioms], deadline=Deadline.after(args.timeout)
        )
    except (ResourceLimitError, RecursionError) as error:
        print(f"aborted: {error}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        _print_out_of_memory()
        return EXIT_RESOURCE
    if args.json:
        print(json.dumps({"consistent": consistent}))
    else:
        print("consistent" if consistent else "inconsistent")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Send the rest of stdout to devnull, so the
        # flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
