"""Covering formulas: construction, evaluation, rendering, correctness.

The correctness property ties the whole front half of the pipeline
together: for every choice of annotated axioms, the formula is true
exactly when the chosen axioms plus the certain ones entail the query.
"""

from __future__ import annotations

import itertools

from hypothesis import given, strategies as st

from probalc.generators import chain_query, fuzz_corpus, generate_synthetic
from probalc.justify import all_justifications
from probalc.kb import AnnotatedAxiom, Atomic, KnowledgeBase, SubClassOf
from probalc.pinpoint import (
    FALSE,
    TRUE,
    Conj,
    Disj,
    Formula,
    Var,
    formula_from_justifications,
    render_formula,
    satisfies,
    term_masks,
)
from probalc.tableau import entails

CRIME_FORMULA = Disj((Conj((Var(0), Var(1))), Conj((Var(0), Var(2)))))


class TestConstruction:
    def test_crime_formula_structure(self, crime_kb, crime_query):
        covering = all_justifications(crime_kb, crime_query)
        assert formula_from_justifications(covering, crime_kb) == CRIME_FORMULA

    def test_accepts_plain_iterables(self, crime_kb):
        justs = [frozenset({0, 1, 2}), frozenset({0, 1, 3})]
        assert formula_from_justifications(justs, crime_kb) == CRIME_FORMULA

    def test_certain_axioms_are_dropped(self, crime_kb):
        # Index 1 is certain, so only ordinals of 0 and 3 remain.
        formula = formula_from_justifications([frozenset({0, 1, 3})], crime_kb)
        assert formula == Conj((Var(0), Var(2)))

    def test_single_axiom_justification_collapses_to_var(self, crime_kb):
        assert formula_from_justifications([frozenset({3})], crime_kb) == Var(2)

    def test_certain_only_justification_means_true(self, crime_kb):
        assert formula_from_justifications([frozenset({1})], crime_kb) is TRUE
        assert (
            formula_from_justifications(
                [frozenset({1}), frozenset({0, 2})], crime_kb
            )
            is TRUE
        )

    def test_empty_covering_means_false(self, crime_kb):
        assert formula_from_justifications([], crime_kb) is FALSE

    def test_disjuncts_follow_index_order(self):
        kb = KnowledgeBase(
            tuple(
                AnnotatedAxiom(SubClassOf(Atomic("A"), Atomic(f"B{i}")), 0.5)
                for i in range(3)
            )
        )
        formula = formula_from_justifications(
            [frozenset({2}), frozenset({0}), frozenset({1})], kb
        )
        assert formula == Disj((Var(0), Var(1), Var(2)))


def _reference_formula(covering, kb) -> Formula:
    """The covering formula built as the module once built it: each
    justification's ordinals sorted on their own, apart from its index tuple."""
    ordinal_of = kb.ordinal_of
    var: dict[int, Var] = {}
    terms: list[Formula] = []
    for just in sorted(covering, key=lambda j: tuple(sorted(j))):
        ordinals = sorted(ordinal_of[i] for i in just if i in ordinal_of)
        if not ordinals:
            return TRUE
        for o in ordinals:
            if o not in var:
                var[o] = Var(o)
        if len(ordinals) == 1:
            terms.append(var[ordinals[0]])
        else:
            terms.append(Conj(tuple([var[o] for o in ordinals])))
    if not terms:
        return FALSE
    if len(terms) == 1:
        return terms[0]
    return Disj(tuple(terms))


class TestReferenceConstruction:
    """Terms read off the sorted index tuples give the reference formula."""

    def _agrees(self, kb, query):
        covering = all_justifications(kb, query)
        assert formula_from_justifications(covering, kb) == _reference_formula(covering, kb)

    def test_crime(self, crime_kb, crime_query):
        self._agrees(crime_kb, crime_query)

    def test_chain(self):
        for n in range(1, 9):
            self._agrees(generate_synthetic(n), chain_query(n))

    def test_corpus(self):
        for kb, query in fuzz_corpus(2026, 200):
            self._agrees(kb, query)


class TestEvaluation:
    def test_example_valuation(self):
        formula = Disj((Conj((Var(0), Var(1))), Conj((Var(0), Var(2)))))
        assert satisfies(formula, {0, 2})
        assert not satisfies(formula, {1, 2})
        assert not satisfies(formula, set())
        assert satisfies(formula, {0, 1, 2})

    def test_constants(self):
        assert satisfies(TRUE, set())
        assert not satisfies(FALSE, {0, 1, 2})

    def test_valuation_may_be_any_collection(self):
        assert satisfies(Var(3), [3])
        assert satisfies(Var(3), (3,))
        assert not satisfies(Var(3), frozenset())

    @given(st.sets(st.integers(0, 5)), st.sets(st.integers(0, 5)))
    def test_monotone_in_the_valuation(self, small, extra):
        """Adding ordinals to a valuation never turns the formula false."""
        formula = CRIME_FORMULA
        if satisfies(formula, small):
            assert satisfies(formula, small | extra)


class TestTermMasks:
    def test_crime_terms(self):
        assert term_masks(CRIME_FORMULA, 3) == {0b011, 0b101}

    def test_constants(self):
        assert term_masks(TRUE, 1) == {0}
        assert term_masks(FALSE, 1) == frozenset()

    def test_conjunction_over_disjunctions_is_multiplied_out(self):
        formula = Conj((Disj((Var(0), Var(1))), Disj((Var(2), TRUE)), Var(0)))
        assert term_masks(formula, 3) == {0b101, 0b001, 0b111, 0b011}

    def test_one_shared_var_per_ordinal(self, crime_kb):
        justs = [frozenset({0}), frozenset({0, 2}), frozenset({0, 3})]
        single, first, second = formula_from_justifications(justs, crime_kb).parts
        assert single is first.parts[0] is second.parts[0]


class TestRendering:
    def test_crime_rendering(self):
        assert render_formula(CRIME_FORMULA) == "(x1 & x2) | (x1 & x3)"

    def test_display_indices_are_one_based(self):
        assert render_formula(Var(0)) == "x1"
        assert render_formula(Var(9)) == "x10"

    def test_top_level_terms_are_unparenthesized(self):
        assert render_formula(Conj((Var(0), Var(1)))) == "x1 & x2"
        assert render_formula(Disj((Var(0), Var(1)))) == "x1 | x2"

    def test_constants(self):
        assert render_formula(TRUE) == "true"
        assert render_formula(FALSE) == "false"


class TestPinpointingCorrectness:
    def test_crime_formula_tracks_entailment(self, crime_kb, crime_query):
        covering = all_justifications(crime_kb, crime_query)
        formula = formula_from_justifications(covering, crime_kb)
        prob = crime_kb.prob_indices
        for bits in itertools.product((0, 1), repeat=len(prob)):
            chosen = [index for index, bit in zip(prob, bits) if bit]
            world_axioms = sorted(set(crime_kb.certain_indices) | set(chosen))
            expected = entails(crime_kb.axioms_at(world_axioms), crime_query)
            valuation = {crime_kb.ordinal_of[i] for i in chosen}
            assert satisfies(formula, valuation) == expected

    def test_formula_tracks_entailment_over_fuzz_corpus(self):
        """In every world, formula truth equals entailment of the query by
        that world's axioms."""
        for kb, query in fuzz_corpus(321, 20, max_axioms=6):
            covering = all_justifications(kb, query)
            formula = formula_from_justifications(covering, kb)
            prob = kb.prob_indices
            for bits in itertools.product((0, 1), repeat=len(prob)):
                chosen = [index for index, bit in zip(prob, bits) if bit]
                world_axioms = sorted(set(kb.certain_indices) | set(chosen))
                expected = entails(kb.axioms_at(world_axioms), query)
                valuation = {kb.ordinal_of[i] for i in chosen}
                assert satisfies(formula, valuation) == expected
