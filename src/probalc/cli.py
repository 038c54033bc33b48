"""Command line interface.

Subcommands: ``query`` answers a probabilistic query against a KB file,
``gen`` prints a generated KB and ``check`` tests consistency.  Exit
codes: 0 on success; 1 on a usage error, a parse error, or a KB file
that cannot be read or decoded as UTF-8 or an output file that cannot be
written; 2 when a timeout or budget is exhausted or the reasoner runs
out of Python stack or memory.  The subcommands raise, and ``main``
alone turns what they raise into a message and an exit code.  A reader
that closes the output early (as ``| head -1`` does) ends the run
quietly with exit code 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context
from pathlib import Path

from .generators import generate_synthetic, random_kb
from .justify import METHODS, CoveringSet
from .parser import ParseError, parse_kb, parse_query, render_annotated, serialize_kb
from .pinpoint import render_formula
from .semantics import ENGINES, QueryResult, RunConfig, probability_query
from .tableau import Deadline, ResourceLimitError, is_consistent

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_RESOURCE = 2


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1: argparse's usual 2 means an exhausted budget here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _above(kind: type, low):
    """An argparse type: the text as ``kind``, refused unless greater than ``low``."""

    def convert(text: str):
        value = kind(text)
        if not value > low:  # so NaN is refused as well
            raise argparse.ArgumentTypeError(f"must be > {low}, got {text}")
        return value

    convert.__name__ = kind.__name__
    return convert


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The options ``query`` and ``check`` share."""
    # ``inf`` is accepted and means no deadline.
    parser.add_argument(
        "--timeout", type=_above(float, 0), default=RunConfig.timeout_s, metavar="SECS"
    )
    parser.add_argument("--json", action="store_true", help="print JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="probalc",
        description="Probabilistic ALC reasoning over annotated knowledge bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="compute the probability of a query")
    query.add_argument("--method", choices=METHODS, default=RunConfig.method)
    query.add_argument("--engine", choices=ENGINES, default=RunConfig.engine)
    _add_common(query)
    query.add_argument("kb", type=Path, help="knowledge base file")
    query.add_argument("query", help="query text, e.g. 'a : C' or 'C <= D'")
    query.add_argument("--dot", type=Path, metavar="PATH", help="write the diagram as DOT")
    query.set_defaults(func=cmd_query)

    gen = sub.add_parser("gen", help="generate a knowledge base")
    gen.add_argument("n", nargs="?", type=_above(int, 0), help="chain layers")
    gen.add_argument("--random", action="store_true", help="random KB instead of the chain")
    gen.add_argument("--axioms", type=_above(int, 2), default=10, help="max axioms for --random")
    gen.add_argument("--seed", type=int, default=0, metavar="N")
    gen.add_argument("-o", "--out", type=Path, help="write to file instead of stdout")
    gen.set_defaults(func=cmd_gen)

    check = sub.add_parser("check", help="consistency of all axioms taken together")
    _add_common(check)
    check.add_argument("kb", type=Path)
    check.set_defaults(func=cmd_check)
    return parser


def _justification_lines(kb, covering: CoveringSet) -> list[str]:
    lines = []
    for rank, just in enumerate(covering.ordered(), 1):
        lines.append(f"justification {rank}:")
        for index in sorted(just):
            lines.append(f"  axiom {index + 1}: {render_annotated(kb.axioms[index])}")
    return lines


def _probability_text(result: QueryResult) -> str:
    """The answer to 12 significant digits, exact when the float one underflowed."""
    if result.exact is None:
        return f"{result.probability:.12g}"
    return f"{Context(prec=12, Emin=MIN_EMIN, Emax=MAX_EMAX).normalize(result.exact):g}"


def cmd_query(args: argparse.Namespace) -> int:
    kb = parse_kb(args.kb.read_text(encoding="utf-8"))
    query = parse_query(args.query)
    config = RunConfig(method=args.method, engine=args.engine, timeout_s=args.timeout)
    result = probability_query(kb, query, config)
    if args.dot:
        args.dot.write_text(result.manager.to_dot(result.root))
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
        if result.exact is not None:
            payload["exact_probability"] = _probability_text(result)
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"probability: {_probability_text(result)}")
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
    elif args.n is None:
        print("gen: provide a chain length or --random", file=sys.stderr)
        return EXIT_PARSE
    else:
        kb = generate_synthetic(args.n)
    text = serialize_kb(kb)
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    kb = parse_kb(args.kb.read_text(encoding="utf-8"))
    consistent = is_consistent(
        [a.axiom for a in kb.axioms], deadline=Deadline.after(args.timeout)
    )
    if args.json:
        print(json.dumps({"consistent": consistent}))
    else:
        print("consistent" if consistent else "inconsistent")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and turn what it raises into a message and an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # ``entrypoint`` ends the run quietly.
    except ParseError as error:
        message = f"parse error at {error.line}:{error.column}: {error.message}"
        code = EXIT_PARSE
    except UnicodeDecodeError as error:
        message, code = f"cannot read {args.kb}: {error}", EXIT_PARSE
    except OSError as error:
        # The KB is the only file read; ``-o`` and ``--dot`` are written.
        verb = "read" if "kb" in args and error.filename == str(args.kb) else "write"
        message = f"cannot {verb} {error.filename}: {error.strerror or error}"
        code = EXIT_PARSE
    except (ResourceLimitError, RecursionError) as error:
        message, code = f"aborted: {error}", EXIT_RESOURCE
    except MemoryError:
        # str(MemoryError()) is empty, so the message names the cause itself.
        message, code = "aborted: out of memory", EXIT_RESOURCE
    print(message, file=sys.stderr)
    return code


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
