"""The benchmark's workloads: query inputs as text, and their references.

Every workload is a list of cases, one pass of queries in the order the
client sends them.  A case is the text a ``probalc query`` user hands the
library: a knowledge base and a query.  The references that gate the
answers never come from the pipeline under test (hitting set tree,
covering formula, decision diagram): the chain families have closed
forms, and the corpus is checked against brute-force world enumeration.

The functions here take the imported ``probalc`` package as an argument,
because the harness imports it several times while it measures set-up.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

CHAIN_LAYERS = 7
ATOMIC_LENGTH = 100
ATOMIC_PROBABILITY = 0.99
# The corpus is the fixed seed-2026 fuzz corpus; see corpus() for why the
# command-line seed orders it instead of regenerating it.
CORPUS_SEED = 2026
CORPUS_SIZE = 200
CORPUS_MAX_AXIOMS = 10

# Absolute tolerance between a pipeline answer and its reference.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Case:
    kb_text: str
    query_text: str


@dataclass(frozen=True)
class Expected:
    """What a correct answer looks like; None leaves a field unchecked."""

    probability: float
    justifications: frozenset[frozenset[int]] | None = None
    bdd_nodes: int | None = None


@dataclass(frozen=True)
class Answer:
    """The parts of a QueryResult that the gates and the tracer check.

    Equal answers are equal records, so the harness can keep one record
    per distinct answer instead of every QueryResult it received.
    """

    probability: float
    justifications: frozenset[frozenset[int]]
    bdd_nodes: int
    tableau_calls: int

    @classmethod
    def of(cls, result) -> "Answer":
        covering = result.covering
        return cls(result.probability, covering.justifications, result.bdd_nodes, covering.tableau_calls)


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    # The untimed query of set-up; it does not depend on the seed.
    warmup: Case
    sizes: dict
    # Called after timing, with the final import of probalc; one entry per case.
    references: Callable[[object], list[Expected]]


def chain(probalc, layers: int = CHAIN_LAYERS) -> Workload:
    """``generate_synthetic(n)`` with ``B0 <= Bn``: 2**n justifications.

    Layer i holds axioms 3i (B -> P and Q), 3i+1 (P -> B) and 3i+2
    (Q -> B), all at 0.6.  A justification takes axiom 3i and one of the
    other two in every layer, so the probability is (0.6 * (1 - 0.4**2))**n
    = 0.504**n, and the ordered diagram has three nodes per layer.
    """
    from probalc.generators import chain_query, generate_synthetic
    from probalc.parser import render_query

    case = Case(
        probalc.serialize_kb(generate_synthetic(layers)),
        render_query(chain_query(layers)),
    )
    justifications = frozenset(
        frozenset(itertools.chain.from_iterable((3 * i, 3 * i + pick) for i, pick in enumerate(picks)))
        for picks in itertools.product((1, 2), repeat=layers)
    )
    expected = Expected(0.504**layers, justifications, 3 * layers)
    return Workload(
        "chain", (case,), case, {"layers": layers, "axioms": 3 * layers}, lambda _: [expected]
    )


def atomic_chain(probalc, length: int = ATOMIC_LENGTH) -> Workload:
    """``p :: A{i} <= A{i+1}`` for i < k with ``A0 <= Ak``.

    The only justification is the whole KB, so the probability is p**k
    and the diagram is one node per axiom.
    """
    text = "".join(f"{ATOMIC_PROBABILITY!r} :: A{i} <= A{i + 1}\n" for i in range(length))
    case = Case(text, f"A0 <= A{length}")
    expected = Expected(
        ATOMIC_PROBABILITY**length, frozenset({frozenset(range(length))}), length
    )
    return Workload("atomic-chain", (case,), case, {"axioms": length}, lambda _: [expected])


def corpus(probalc, seed: int, count: int = CORPUS_SIZE) -> Workload:
    """The seed-2026 fuzz corpus, each KB serialised and queried once.

    The corpus is fixed and the command-line seed only shuffles the order
    in which its queries are sent.  Regenerating it from the seed swaps in
    a different heavy tail each time: one pass took 12.8 s, 16.2 s and
    24.4 s for seeds 3, 2 and 1 on a 2-vCPU VM, so no per-seed throughput
    or p95 could be compared between commits.  Seed 2026 keeps the hard inputs: 110 of its
    200 queries are not entailed (the hitting set tree is bypassed), it has
    existentials, blocking and inconsistent KBs, and one KB takes about
    half of each pass.
    """
    from probalc.generators import fuzz_corpus
    from probalc.parser import render_query

    cases = [
        Case(probalc.serialize_kb(kb), render_query(query))
        for kb, query in fuzz_corpus(CORPUS_SEED, count, max_axioms=CORPUS_MAX_AXIOMS)
    ]
    ordered = list(cases)
    random.Random(seed).shuffle(ordered)

    def references(final) -> list[Expected]:
        return [
            Expected(final.probability_bruteforce(final.parse_kb(c.kb_text), final.parse_query(c.query_text)))
            for c in ordered
        ]

    sizes = {"corpus_seed": CORPUS_SEED, "kbs": count, "max_axioms": CORPUS_MAX_AXIOMS}
    return Workload("corpus", tuple(ordered), cases[0], sizes, references)


def build(name: str, probalc, seed: int, size: int | None = None) -> Workload:
    """The named workload; ``size`` overrides its default size."""
    if name == "chain":
        return chain(probalc, size or CHAIN_LAYERS)
    if name == "atomic-chain":
        return atomic_chain(probalc, size or ATOMIC_LENGTH)
    if name == "corpus":
        return corpus(probalc, seed, size or CORPUS_SIZE)
    raise ValueError(f"unknown workload {name!r}")


# BENCHMARK.json gates on chain and corpus only.  The regression check
# runs each listed workload 22 times within a fixed time, and on a shared
# 2-vCPU host 25 s runs of three workloads spread past the 25% bound; two
# workloads leave room for 45 s runs.  atomic-chain (per-call tableau
# cost) stays here for run_all() and for work on the tableau.
NAMES = ("chain", "atomic-chain", "corpus")


def mismatch(answer: Answer, expected: Expected) -> str | None:
    """Why a pipeline answer disagrees with its reference, or None."""
    if abs(answer.probability - expected.probability) > TOLERANCE:
        return f"probability {answer.probability!r}, expected {expected.probability!r}"
    if expected.justifications is not None and answer.justifications != expected.justifications:
        return f"{len(answer.justifications)} justifications differ from the {len(expected.justifications)} expected"
    if expected.bdd_nodes is not None and answer.bdd_nodes != expected.bdd_nodes:
        return f"{answer.bdd_nodes} diagram nodes, expected {expected.bdd_nodes}"
    return None
