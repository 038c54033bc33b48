"""Core model: normal forms, refutations, signatures, indexing."""

from __future__ import annotations

import dataclasses
import gc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from probalc.kb import (
    And,
    AnnotatedAxiom,
    Atomic,
    BOTTOM,
    Bottom,
    Concept,
    ConceptAssertion,
    Exists,
    Forall,
    FRESH_INDIVIDUAL,
    InstanceQuery,
    KnowledgeBase,
    Not,
    Or,
    RoleAssertion,
    SubClassOf,
    SubsumptionQuery,
    TOP,
    Top,
    nnf,
    signature,
    vocabulary,
)
from probalc.generators import random_kb
from probalc.parser import parse_kb, parse_query, serialize_kb
from probalc.semantics import probability_query
from probalc.tableau import _AND, CompiledKB, entails, is_consistent, trace_entailment

SAMPLE_KB = Path(__file__).resolve().parent.parent / "samples" / "crime.kb"

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")


@st.composite
def concepts(draw, max_depth: int = 3) -> Concept:
    """Arbitrary concept expressions over a tiny vocabulary."""
    if max_depth <= 0:
        return draw(st.sampled_from([A, B, C, TOP, BOTTOM]))
    choice = draw(st.integers(0, 7))
    if choice <= 2:
        return draw(st.sampled_from([A, B, C, TOP, BOTTOM]))
    sub = concepts(max_depth=max_depth - 1)
    if choice == 3:
        return Not(draw(sub))
    if choice == 4:
        return And(draw(sub), draw(sub))
    if choice == 5:
        return Or(draw(sub), draw(sub))
    role = draw(st.sampled_from(["r", "s"]))
    if choice == 6:
        return Exists(role, draw(sub))
    return Forall(role, draw(sub))


class TestNnf:
    def test_conjunction_negation_becomes_disjunction(self):
        assert nnf(Not(And(A, B))) == Or(Not(A), Not(B))

    def test_existential_negation_becomes_universal(self):
        assert nnf(Not(Exists("r", C))) == Forall("r", Not(C))

    def test_universal_negation_becomes_existential(self):
        assert nnf(Not(Forall("r", C))) == Exists("r", Not(C))

    def test_top_bottom_duals(self):
        assert nnf(Not(TOP)) == BOTTOM
        assert nnf(Not(BOTTOM)) == TOP

    def test_double_negation_cancels(self):
        assert nnf(Not(Not(A))) == A

    def test_no_simplification_beyond_normal_form(self):
        # Conjunct order, nesting and redundancy survive.
        assert nnf(And(TOP, A)) == And(TOP, A)
        assert nnf(And(A, A)) == And(A, A)

    def test_atoms_are_kept(self):
        assert nnf(And(A, Not(Not(B)))).right is B
        assert nnf(Not(Or(A, B))).left.arg is A

    def test_deep_negated_conjunction(self):
        """``not (A0 and ... and A1499)``: the walk does not recurse per level.

        The chain is checked with a loop, so that each atom is seen to be
        the one it was built from.
        """
        names = [Atomic(f"A{i}") for i in range(1500)]
        conjunction = names[-1]
        for name in reversed(names[:-1]):
            conjunction = And(name, conjunction)
        disjunction = nnf(Not(conjunction))
        for name in names[:-1]:
            assert type(disjunction) is Or
            assert type(disjunction.left) is Not and disjunction.left.arg is name
            disjunction = disjunction.right
        assert type(disjunction) is Not and disjunction.arg is names[-1]

    @given(concepts())
    def test_idempotent(self, c):
        """nnf(nnf(c)) is structurally identical to nnf(c)."""
        once = nnf(c)
        assert nnf(once) == once

    @given(concepts())
    def test_negation_only_on_atomic_names(self, c):
        """In normal form, Not appears only directly above Atomic."""
        def check(x: Concept) -> None:
            t = type(x)
            if t is Not:
                assert type(x.arg) is Atomic
            elif t is And or t is Or:
                check(x.left)
                check(x.right)
            elif t is Exists or t is Forall:
                check(x.filler)

        check(nnf(c))

    @given(st.integers(0, 10_000), concepts(max_depth=2))
    def test_preserves_models(self, seed, c):
        """The tableau cannot tell a concept from its normal form."""
        kb = random_kb(seed, max_axioms=6, depth=1)
        axioms = [a.axiom for a in kb.axioms]
        plain = entails(axioms, InstanceQuery("a", c))
        normalized = entails(axioms, InstanceQuery("a", nnf(c)))
        assert plain == normalized

    @given(concepts(max_depth=5))
    def test_interning_normalises(self, c):
        """The compiler's normal form is ``nnf``'s, negated or not."""
        compiled = CompiledKB([])
        assert compiled.intern(c) == compiled.intern(nnf(c))
        assert compiled.intern(Not(c)) == compiled.intern(nnf(Not(c)))


class TestRefutationAssertions:
    """The counter-assertion the compiled KB asserts for a query."""

    def test_instance_query_negates_the_concept(self):
        compiled = CompiledKB([])
        goal = compiled.refutation(InstanceQuery("a", Not(A)))
        assert goal == (compiled.name("a"), compiled.intern(A))

    def test_subsumption_query_asserts_a_fresh_witness(self):
        compiled = CompiledKB([])
        individual, concept = compiled.refutation(SubsumptionQuery(Atomic("B0"), Atomic("B1")))
        assert individual == compiled.name(FRESH_INDIVIDUAL)
        assert concept == compiled.intern(And(Atomic("B0"), Not(Atomic("B1"))))
        assert compiled.kind[concept] == _AND
        assert compiled.left[concept] == compiled.intern(Atomic("B0"))
        assert compiled.right[concept] == compiled.comp[compiled.intern(Atomic("B1"))]

    @pytest.mark.parametrize(
        "query", [InstanceQuery("a", Not(A)), SubsumptionQuery(Atomic("B0"), Atomic("B1"))]
    )
    def test_built_once_per_query(self, query):
        """Every reasoner call of a query shares one compiled counter-assertion."""
        compiled = CompiledKB([])
        first = compiled.refutation(query)
        sizes = len(compiled.kind), len(compiled._names)
        assert compiled.refutation(query) == first
        assert (len(compiled.kind), len(compiled._names)) == sizes

    def test_fresh_name_cannot_be_parsed_into_a_kb(self):
        assert FRESH_INDIVIDUAL.startswith("@")


class TestSignature:
    def test_subclass_signature(self):
        axiom = SubClassOf(Exists("killed", TOP), Atomic("Nihilist"))
        assert signature(axiom) == {"killed", "Nihilist"}

    def test_role_assertion_signature(self):
        axiom = RoleAssertion("raskolnikov", "alyona", "killed")
        assert signature(axiom) == {"raskolnikov", "alyona", "killed"}

    def test_vocabulary_separates_kinds(self):
        axiom = ConceptAssertion("a", Forall("r", And(A, B)))
        names, roles, individuals = vocabulary(axiom)
        assert names == {"A", "B"}
        assert roles == {"r"}
        assert individuals == {"a"}

    def test_top_and_bottom_contribute_nothing(self):
        assert signature(SubClassOf(TOP, BOTTOM)) == frozenset()

    def test_query_signature(self):
        assert signature(InstanceQuery("a", Exists("r", Not(A)))) == {"a", "r", "A"}
        assert signature(SubsumptionQuery(And(A, TOP), Forall("r", B))) == {"A", "B", "r"}

    def test_deep_concepts(self):
        """The walk keeps its own stack, so depth costs no Python frames."""
        deep = A
        for i in range(5000):
            deep = Exists(f"r{i % 3}", Not(And(Atomic(f"A{i % 7}"), deep)))
        names, roles, _ = vocabulary(ConceptAssertion("a", deep))
        assert names == {"A"} | {f"A{i}" for i in range(7)}
        assert roles == {"r0", "r1", "r2"}


class TestAnnotatedAxiom:
    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValueError):
            AnnotatedAxiom(SubClassOf(A, B), 1.5)
        with pytest.raises(ValueError):
            AnnotatedAxiom(SubClassOf(A, B), -0.1)

    def test_probability_one_stays_in_the_probabilistic_view(self):
        kb = KnowledgeBase((AnnotatedAxiom(SubClassOf(A, B), 1.0),))
        assert kb.prob_indices == (0,)
        assert kb.probabilities == (1.0,)

    def test_certain_axiom_has_no_annotation(self):
        entry = AnnotatedAxiom(SubClassOf(A, B))
        assert entry.certain and entry.probability is None

    def test_empty_individual_names_rejected(self):
        with pytest.raises(ValueError):
            ConceptAssertion("", A)
        with pytest.raises(ValueError):
            RoleAssertion("a", "", "r")


class TestKnowledgeBase:
    def test_indices_follow_list_order(self, crime_kb):
        assert len(crime_kb) == 4
        assert crime_kb.certain_indices == (1,)
        assert crime_kb.prob_indices == (0, 2, 3)
        assert crime_kb.probabilities == (0.2, 0.6, 0.7)
        assert crime_kb.ordinal_of == {0: 0, 2: 1, 3: 2}

    def test_indexed_defaults_to_all_axioms(self, crime_kb):
        pairs = crime_kb.indexed()
        assert [i for i, _ in pairs] == [0, 1, 2, 3]
        assert crime_kb.indexed({3, 0}) == [pairs[0], pairs[3]]

    def test_axioms_at_sorts_ascending(self, crime_kb):
        assert crime_kb.axioms_at({2, 0}) == [crime_kb.axiom(0), crime_kb.axiom(2)]

    def test_vocabulary_merges_all_axioms(self, crime_kb):
        names, roles, individuals = crime_kb.vocabulary
        assert names == {"Nihilist", "GreatMan"}
        assert roles == {"killed"}
        assert individuals == {"raskolnikov", "alyona", "lizaveta"}

    def test_structural_equality_of_concepts(self):
        assert And(A, B) == And(A, B)
        assert And(A, B) != And(B, A)
        assert Top() == TOP and Bottom() == BOTTOM

    def test_released_after_a_query(self):
        """No module-level cache keeps a KB's axioms or concepts alive."""
        kb = parse_kb(SAMPLE_KB.read_text())
        axioms = [a.axiom for a in kb.axioms]
        subs = [axiom.sub for axiom in axioms if isinstance(axiom, SubClassOf)]
        refs = [weakref.ref(obj) for obj in axioms + subs]
        del axioms, subs
        probability_query(kb, parse_query("raskolnikov : GreatMan"))
        del kb
        gc.collect()
        assert [ref() for ref in refs] == [None] * 6


class TestConceptHash:
    """Concepts are frozen dataclasses that compare, hash and print at any depth."""

    def test_deep_concepts_compare_hash_and_print(self):
        text = "a : " + " and ".join(f"A{i}" for i in range(1500)) + "\n"
        kb = parse_kb(text)
        assert parse_kb(text) == kb
        assert hash(kb.axiom(0)) == hash(parse_kb(text).axiom(0))
        assert repr(kb).count("Atomic(name=") == 1500
        assert parse_kb(serialize_kb(kb)) == kb

    def test_repr_and_replace_are_unchanged(self):
        c = And(A, Exists("r", Not(B)))
        expected = "And(left=Atomic(name='A'), right=Exists(role='r', filler=Not(arg=Atomic(name='B'))))"
        assert repr(c) == expected
        hash(c)
        assert repr(c) == expected
        assert repr(A) == "Atomic(name='A')"
        swapped = dataclasses.replace(c, left=C)
        assert swapped == And(C, c.right) and repr(swapped) == repr(And(C, c.right))
        assert dataclasses.replace(c) == c
        assert [f.name for f in dataclasses.fields(c)] == ["left", "right"]

    def test_clash_between_separately_built_atoms(self):
        """``A`` and ``not A`` from different axioms are distinct objects and still clash."""
        positive = ConceptAssertion("a", Atomic("A"))
        negative = ConceptAssertion("a", Not(Atomic("A")))
        assert positive.concept is not negative.concept.arg
        assert not is_consistent([positive, negative])
        assert not is_consistent([negative, positive])
        indexed = [(0, positive), (1, SubClassOf(Atomic("A"), Atomic("B")))]
        assert trace_entailment(indexed, InstanceQuery("a", Atomic("B"))) == frozenset({0, 1})
        unfolded = [SubClassOf(Atomic("A"), Not(Atomic("B"))), ConceptAssertion("a", Atomic("B"))]
        assert entails(unfolded, InstanceQuery("a", Not(Atomic("A"))))
