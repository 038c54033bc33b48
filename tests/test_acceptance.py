"""Acceptance checks for the whole pipeline, one criterion per test.

Each test prints one summary line with capture disabled, so the headline
results stay visible in plain runs.  The criteria pin the documented
example values exactly, compare both probability engines on a sizeable
random corpus, and re-assert the structural invariants end to end.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from probalc.bdd import BddManager
from probalc.generators import chain_query, fuzz_corpus, generate_synthetic
from probalc.justify import all_justifications
from probalc.kb import KnowledgeBase
from probalc.parser import parse_kb, serialize_kb
from probalc.pinpoint import (
    Conj,
    Disj,
    FALSE,
    TRUE,
    Var,
    formula_from_justifications,
    render_formula,
    satisfies,
)
from probalc.semantics import (
    RunConfig,
    enumerate_worlds,
    probability_bruteforce,
    probability_query,
)
from probalc.tableau import entails

CRIME_JUSTIFICATIONS = frozenset({frozenset({0, 1, 2}), frozenset({0, 1, 3})})


@pytest.fixture
def criterion(capsys):
    """One visible pass or fail line per criterion, capture or not."""

    @contextmanager
    def tracked(number: int, description: str):
        try:
            yield
        except BaseException:
            _announce(capsys, f"criterion {number} FAIL: {description}")
            raise
        _announce(capsys, f"criterion {number} PASS: {description}")

    return tracked


def _announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def powerset_justifications(kb, query):
    minimal = []
    for size in range(len(kb) + 1):
        for combo in itertools.combinations(range(len(kb)), size):
            subset = frozenset(combo)
            if any(kept <= subset for kept in minimal):
                continue
            if entails(kb.axioms_at(subset), query):
                minimal.append(subset)
    return frozenset(minimal)


def test_criterion_1_crime_kb_probability(criterion, crime_kb, crime_query):
    with criterion(
        1, "crime KB: P = 0.176 and both justifications under every configuration"
    ):
        for method in ("glassbox", "blackbox"):
            for engine in ("bdd", "bruteforce"):
                started = time.monotonic()
                result = probability_query(
                    crime_kb, crime_query, RunConfig(method=method, engine=engine)
                )
                elapsed = time.monotonic() - started
                assert abs(result.probability - 0.176) <= 1e-12
                assert result.covering.justifications == CRIME_JUSTIFICATIONS
                assert elapsed < 1.0


def test_criterion_2_crime_diagram(criterion, crime_kb, crime_query):
    with criterion(
        2, "crime diagram: 3 nodes, P = 0.176, per-node values 0.7 and 0.88"
    ):
        result = probability_query(crime_kb, crime_query)
        assert result.bdd_nodes == 3
        manager = BddManager(3)
        root = manager.build(result.formula)
        memo: dict[int, float] = {}
        p = manager.probability(root, {0: 0.2, 1: 0.6, 2: 0.7}, memo)
        assert abs(p - 0.176) <= 1e-12
        values = sorted(memo.values())
        assert abs(values[1] - 0.7) <= 1e-12
        assert abs(values[2] - 0.88) <= 1e-12


def test_criterion_3_crime_formula(criterion, crime_kb, crime_query):
    with criterion(3, "crime covering formula is x1 & (x2 | x3) up to equivalence"):
        covering = all_justifications(crime_kb, crime_query)
        formula = formula_from_justifications(covering, crime_kb)
        assert render_formula(formula) == "(x1 & x2) | (x1 & x3)"
        manager = BddManager(3)
        factored = Conj((Var(0), Disj((Var(1), Var(2)))))
        assert manager.build(formula) == manager.build(factored)


def test_criterion_4_chain_family(criterion):
    with criterion(
        4, "chain KBs: 2^n justifications, P = 0.504^n, n = 8 within budget"
    ):
        for n in (2, 4, 6):
            covering = all_justifications(generate_synthetic(n), chain_query(n))
            assert len(covering) == 2**n
        for n in (1, 2, 3, 4, 5):
            kb = generate_synthetic(n)
            query = chain_query(n)
            fast = probability_query(kb, query).probability
            slow = probability_bruteforce(kb, query)
            assert abs(fast - 0.504**n) <= 1e-9
            assert abs(slow - 0.504**n) <= 1e-9
        started = time.monotonic()
        result = probability_query(generate_synthetic(8), chain_query(8))
        elapsed = time.monotonic() - started
        assert abs(result.probability - 0.504**8) <= 1e-9
        assert len(result.covering) == 2**8
        assert elapsed < 600.0


def test_criterion_5_random_corpus_agreement(criterion):
    with criterion(
        5,
        "200 random KBs: engines agree to 1e-9, both routes find exactly the"
        " minimal entailing sets",
    ):
        checked = 0
        entailed = 0
        work = {"glassbox": [0, 0, 0], "blackbox": [0, 0, 0]}
        for kb, query in fuzz_corpus(2026, 200):
            glass = all_justifications(kb, query, "glassbox")
            black = all_justifications(kb, query, "blackbox")
            for method, covering in (("glassbox", glass), ("blackbox", black)):
                counts = (covering.tableau_calls, covering.hst_nodes, covering.memo_hits)
                work[method] = [total + count for total, count in zip(work[method], counts)]
            assert glass.justifications == black.justifications
            assert glass.justifications == powerset_justifications(kb, query)
            fast = probability_query(kb, query).probability
            slow = probability_bruteforce(kb, query)
            assert abs(fast - slow) <= 1e-9
            checked += 1
            entailed += bool(glass.justifications)
        assert checked == 200
        # The corpus must exercise both outcomes to mean anything.
        assert 10 <= entailed <= 190
        # Reasoner calls, tree nodes and memo hits over the corpus: a change
        # to the search that alters its work shows here.
        assert work == {"glassbox": [455, 228, 33], "blackbox": [954, 237, 78]}


def test_criterion_6_structural_invariants(criterion):
    with criterion(
        6,
        "invariants: minimal antichains, canonical diagrams, formula tracks"
        " entailment, world weights sum to 1, parser round-trips",
    ):
        # Justifications form antichains of minimal entailing sets.
        for kb, query in fuzz_corpus(31, 25, max_axioms=7):
            covering = all_justifications(kb, query)
            for just in covering:
                assert entails(kb.axioms_at(just), query)
                for index in just:
                    assert not entails(kb.axioms_at(just - {index}), query)
            for a in covering:
                for b in covering:
                    assert not (a < b)

        # Diagram references are canonical: equal exactly on equal tables.
        rng = random.Random(64)
        def random_formula(depth, var_count):
            if depth == 0 or rng.random() < 0.3:
                roll = rng.random()
                if roll < 0.05:
                    return TRUE
                if roll < 0.1:
                    return FALSE
                return Var(rng.randrange(var_count))
            parts = tuple(
                random_formula(depth - 1, var_count)
                for _ in range(rng.randint(1, 3))
            )
            return Conj(parts) if rng.random() < 0.5 else Disj(parts)

        for _ in range(300):
            var_count = rng.randint(1, 6)
            f1 = random_formula(3, var_count)
            f2 = random_formula(3, var_count)
            tables = [
                tuple(
                    satisfies(f, {i for i, bit in enumerate(bits) if bit})
                    for bits in itertools.product((0, 1), repeat=var_count)
                )
                for f in (f1, f2)
            ]
            manager = BddManager(var_count)
            refs = [manager.build(f1), manager.build(f2)]
            assert (refs[0] == refs[1]) == (tables[0] == tables[1])

        # The covering formula is true in exactly the entailing worlds.
        for kb, query in fuzz_corpus(99, 25, max_axioms=6):
            covering = all_justifications(kb, query)
            formula = formula_from_justifications(covering, kb)
            for world, _ in enumerate_worlds(kb):
                valuation = {i for i, bit in enumerate(world.bits) if bit}
                expected = entails(kb.axioms_at(world.axiom_indices(kb)), query)
                assert satisfies(formula, valuation) == expected

        # World weights always sum to 1.
        for kb, _ in fuzz_corpus(7, 30, max_axioms=8):
            total = sum(weight for _, weight in enumerate_worlds(kb))
            assert abs(total - 1.0) <= 1e-9

        # Serialization round-trips structurally.
        for kb, _ in fuzz_corpus(55, 50):
            assert parse_kb(serialize_kb(kb)) == kb
