"""Distribution semantics: worlds and both probability engines."""

from __future__ import annotations

import itertools
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from probalc import semantics
from probalc.generators import (
    chain_query,
    fuzz_corpus,
    generate_synthetic,
    random_kb,
    random_query,
)
from probalc.justify import all_justifications
from probalc.kb import (
    And,
    AnnotatedAxiom,
    Atomic,
    ConceptAssertion,
    InstanceQuery,
    KnowledgeBase,
    Not,
    SubClassOf,
)
from probalc.semantics import (
    WORLD_LIMIT,
    RunConfig,
    World,
    WorldLimitError,
    enumerate_worlds,
    probability_bruteforce,
    probability_query,
)
from probalc.pinpoint import Conj, Disj, Var, formula_from_justifications
from probalc.tableau import _ATOM, _NOT, CompiledKB, ResourceLimitError, entails

from conftest import branching_family


class TestWorlds:
    def test_crime_has_eight_worlds(self, crime_kb):
        worlds = list(enumerate_worlds(crime_kb))
        assert len(worlds) == 8
        assert math.isclose(sum(w for _, w in worlds), 1.0, abs_tol=1e-12)

    def test_world_weights_match_choice_probability(self, crime_kb):
        """A world weighs its chosen annotations times its dropped complements."""
        for world, weight in enumerate_worlds(crime_kb):
            expected = math.prod(
                p if bit else 1 - p for p, bit in zip((0.2, 0.6, 0.7), world.bits)
            )
            assert math.isclose(weight, expected, abs_tol=1e-12)

    def test_axiom_indices_always_include_certain_axioms(self, crime_kb):
        for world, _ in enumerate_worlds(crime_kb):
            indices = world.axiom_indices(crime_kb)
            assert 1 in indices
            assert indices == tuple(sorted(indices))

    def test_all_zero_world_keeps_only_certain_axioms(self, crime_kb):
        world = World((0, 0, 0))
        assert world.axiom_indices(crime_kb) == (1,)

    def test_all_one_world_keeps_everything(self, crime_kb):
        world = World((1, 1, 1))
        assert world.axiom_indices(crime_kb) == (0, 1, 2, 3)

    def test_exactly_three_crime_worlds_entail_the_query(
        self, crime_kb, crime_query
    ):
        entailing = [
            weight
            for world, weight in enumerate_worlds(crime_kb)
            if entails(crime_kb.axioms_at(world.axiom_indices(crime_kb)), crime_query)
        ]
        assert len(entailing) == 3
        assert math.isclose(sum(entailing), 0.176, abs_tol=1e-12)

    @staticmethod
    def annotated_kb(count: int) -> KnowledgeBase:
        return KnowledgeBase(
            tuple(
                AnnotatedAxiom(SubClassOf(Atomic(f"A{i}"), Atomic(f"B{i}")), 0.5)
                for i in range(count)
            )
        )

    def test_world_limit(self, monkeypatch):
        """The cap refuses one axiom too many; a cap equal to the count admits it.

        The admitting side is shown on 3 axioms with the cap patched, since
        enumerating the 2**21 worlds of the real cap plus one takes seconds.
        """
        with pytest.raises(WorldLimitError):
            list(enumerate_worlds(self.annotated_kb(WORLD_LIMIT + 1)))
        small = self.annotated_kb(3)
        monkeypatch.setattr(semantics, "WORLD_LIMIT", 3)
        worlds = list(enumerate_worlds(small))
        assert len(worlds) == 8
        assert math.isclose(sum(w for _, w in worlds), 1.0, abs_tol=1e-12)
        monkeypatch.setattr(semantics, "WORLD_LIMIT", 2)
        with pytest.raises(WorldLimitError):
            list(enumerate_worlds(small))


class TestBruteForce:
    def test_crime_probability(self, crime_kb, crime_query):
        assert math.isclose(
            probability_bruteforce(crime_kb, crime_query), 0.176, abs_tol=1e-12
        )

    def test_unentailed_query_has_probability_zero(self, crime_kb):
        query = InstanceQuery("alyona", Atomic("GreatMan"))
        assert probability_bruteforce(crime_kb, query) == 0.0

    def test_certain_entailment_has_probability_one(self, crime_kb):
        query = InstanceQuery("raskolnikov", Atomic("Nihilist"))
        # Axiom 1 alone (certain) makes raskolnikov a nihilist in no world;
        # killing either victim does, so this is P(axiom 2 or axiom 3).
        expected = 1.0 - 0.4 * 0.3
        assert math.isclose(
            probability_bruteforce(crime_kb, query), expected, abs_tol=1e-12
        )


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.method == "glassbox"
        assert config.engine == "bdd"
        assert config.timeout_s == 600.0

    def test_holds_only_the_three_settings(self):
        assert RunConfig().as_dict() == {
            "method": "glassbox",
            "engine": "bdd",
            "timeout_s": 600.0,
        }

    def test_as_dict_round_trips(self):
        config = RunConfig(method="blackbox", engine="bruteforce")
        assert RunConfig(**config.as_dict()) == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "magic"},
            {"engine": "abacus"},
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
            {"timeout_s": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


class TestProbabilityQuery:
    @pytest.mark.parametrize("method", ["glassbox", "blackbox"])
    @pytest.mark.parametrize("engine", ["bdd", "bruteforce"])
    def test_crime_all_configurations(self, crime_kb, crime_query, method, engine):
        result = probability_query(
            crime_kb, crime_query, RunConfig(method=method, engine=engine)
        )
        assert math.isclose(result.probability, 0.176, abs_tol=1e-12)
        assert result.exact is None
        assert result.covering.justifications == frozenset(
            {frozenset({0, 1, 2}), frozenset({0, 1, 3})}
        )
        assert result.method == method
        assert result.engine == engine
        assert result.time_ms >= 0.0
        if engine == "bdd":
            assert result.bdd_nodes == 3
        else:
            assert result.bdd_nodes == 0

    @pytest.mark.parametrize("engine", ["bdd", "bruteforce"])
    def test_result_carries_the_diagram(self, crime_kb, crime_query, engine):
        result = probability_query(crime_kb, crime_query, RunConfig(engine=engine))
        probs = dict(enumerate(crime_kb.probabilities))
        assert math.isclose(
            result.manager.probability(result.root, probs), 0.176, abs_tol=1e-12
        )
        assert result.manager.node_count(result.root) == 3
        assert result.bdd_nodes == (3 if engine == "bdd" else 0)

    def test_timeout_covers_the_diagram_step(self, crime_kb, crime_query, monkeypatch):
        """A deadline that passes after the search stops the diagram build."""
        import probalc.semantics as semantics

        def slow_formula(covering, kb):
            time.sleep(0.3)
            return formula_from_justifications(covering, kb)

        monkeypatch.setattr(semantics, "formula_from_justifications", slow_formula)
        with pytest.raises(ResourceLimitError, match="deadline"):
            probability_query(crime_kb, crime_query, RunConfig(timeout_s=0.2))

    def test_world_limit_is_checked_before_the_search(self, monkeypatch):
        """A KB over the enumeration cap is refused before any justification
        search, whose work the bruteforce engine would throw away."""
        import probalc.semantics as semantics

        def searched(*args, **kwargs):
            raise AssertionError("the justification search ran")

        monkeypatch.setattr(semantics, "all_justifications", searched)
        with pytest.raises(WorldLimitError) as raised:
            probability_query(
                generate_synthetic(7), chain_query(7), RunConfig(engine="bruteforce")
            )
        assert str(raised.value) == "21 annotated axioms exceed the enumeration cap of 20"

    def test_chain_probability(self):
        result = probability_query(generate_synthetic(1), chain_query(1))
        assert math.isclose(result.probability, 0.504, abs_tol=1e-12)

    @pytest.mark.parametrize("method", ["glassbox", "blackbox"])
    def test_branching_family_closed_form(self, method):
        """Exhaustive branching answers its one justification and p^(3n)."""
        kb, query, justification, probability = branching_family(6)
        result = probability_query(kb, query, RunConfig(method=method))
        assert result.covering.justifications == frozenset({justification})
        assert math.isclose(result.probability, probability, rel_tol=1e-12)

    def test_unentailed_query(self, crime_kb):
        result = probability_query(crime_kb, InstanceQuery("alyona", Atomic("GreatMan")))
        assert result.probability == 0.0
        assert result.exact is None
        assert len(result.covering) == 0
        assert result.bdd_nodes == 0

    def test_an_underflowing_answer_is_kept_exact(self):
        """Two 1e-200 choices multiply to 1e-400, below the smallest float."""
        kb = KnowledgeBase(
            tuple(
                AnnotatedAxiom(ConceptAssertion("a", Atomic(name)), 1e-200) for name in "AB"
            )
        )
        query = InstanceQuery("a", And(Atomic("A"), Atomic("B")))
        result = probability_query(kb, query)
        assert result.probability == 0.0
        assert math.isclose(float(result.exact.scaleb(400)), 1.0, rel_tol=1e-12)

    def test_bruteforce_keeps_an_underflowing_answer_exact(self):
        """The world sum underflows as the diagram's pass does, and is kept the same way."""
        kb = KnowledgeBase(
            tuple(
                AnnotatedAxiom(ConceptAssertion("a", Atomic(name)), 1e-200) for name in "AB"
            )
        )
        query = InstanceQuery("a", And(Atomic("A"), Atomic("B")))
        result = probability_query(kb, query, RunConfig(engine="bruteforce"))
        assert (result.probability, result.bdd_nodes) == (0.0, 0)
        assert math.isclose(float(result.exact.scaleb(400)), 1.0, rel_tol=1e-12)
        assert probability_bruteforce(kb, query) == 0.0

    def test_bruteforce_leaves_a_zero_answer_without_exact(self, crime_kb):
        query = InstanceQuery("alyona", Atomic("GreatMan"))
        result = probability_query(crime_kb, query, RunConfig(engine="bruteforce"))
        assert (result.probability, result.exact) == (0.0, None)

    def test_certain_axioms_do_not_change_the_probability(self):
        base = KnowledgeBase(
            (
                AnnotatedAxiom(SubClassOf(Atomic("A"), Atomic("B")), 0.4),
                AnnotatedAxiom(ConceptAssertion("a", Atomic("A")), None),
            )
        )
        padded = KnowledgeBase(
            base.axioms
            + (AnnotatedAxiom(SubClassOf(Atomic("X"), Atomic("Y")), None),)
        )
        query = InstanceQuery("a", Atomic("B"))
        assert math.isclose(
            probability_query(base, query).probability,
            probability_query(padded, query).probability,
            abs_tol=1e-12,
        )

    def test_engines_agree_over_fuzz_corpus(self):
        """The diagram engine and world enumeration give the same number."""
        for kb, query in fuzz_corpus(555, 15, max_axioms=6):
            fast = probability_query(kb, query, RunConfig(engine="bdd"))
            slow = probability_query(kb, query, RunConfig(engine="bruteforce"))
            assert math.isclose(fast.probability, slow.probability, abs_tol=1e-9)

    def test_corpus_diagrams_are_the_bruteforce_diagrams(self):
        """The minimal entailing worlds build the answer's own diagram, node for node.

        Entailment grows with the chosen axioms, so a world entails the
        query exactly when it contains a minimal entailing world, and the
        disjunction of the minimal worlds is the function the answer's
        diagram encodes.  A manager keeps one node per function, so built
        into the answer's manager it must be the answer's root.  The world
        sum must also agree with the answer within 1e-9.
        """
        corpora = (
            fuzz_corpus(2026, 200),
            fuzz_corpus(1, 150),
            fuzz_corpus(7, 150),
            fuzz_corpus(3, 300),
            fuzz_corpus(11, 300),
        )
        for kb, query in itertools.chain(*corpora):
            result = probability_query(kb, query)
            compiled = CompiledKB(kb.indexed())
            certain = sum(1 << i for i in kb.certain_indices)
            # A world's position in the enumeration has bit i set when it
            # chooses ordinal i.
            entailing = set()
            total = 0.0
            for position, (world, weight) in enumerate(enumerate_worlds(kb)):
                chosen = sum(1 << i for i, bit in zip(kb.prob_indices, world.bits) if bit)
                if entails(compiled, query, mask=certain | chosen):
                    entailing.add(position)
                    total += weight
            terms = []
            for position in sorted(entailing):
                ordinals = [i for i in range(position.bit_length()) if position >> i & 1]
                if not any(position & ~(1 << i) in entailing for i in ordinals):
                    terms.append(Conj(tuple(Var(i) for i in ordinals)))
            assert result.manager.build(Disj(tuple(terms))) == result.root
            assert abs(result.probability - total) <= 1e-9

    @settings(max_examples=30)
    @given(st.integers(0, 10_000))
    def test_probability_stays_in_range(self, seed):
        kb = random_kb(seed, max_axioms=6)
        query = random_query(seed, kb)
        result = probability_query(kb, query)
        assert -1e-12 <= result.probability <= 1.0 + 1e-12


def _spelled_tables(compiled):
    """The ``unfold`` and ``gcis`` tables with every id spelled out by structure.

    Ids depend on the order in which concepts were first met, so two KBs
    that compile to the same tables may number them differently.  A
    concept's parts always have smaller ids than it, so one pass in id
    order spells every id.
    """
    names = {i: name for name, i in compiled._ids.items() if type(name) is str}
    roles = {i: name for name, i in compiled._names.items()}
    spelled = []
    for c, kind in enumerate(compiled.kind):
        left, right = compiled.left[c], compiled.right[c]
        if kind == _ATOM:
            spelled.append(names[c])
        elif compiled.role[c] >= 0:
            spelled.append((kind, roles[compiled.role[c]], spelled[left]))
        else:
            parts = [spelled[part] for part in (left, right) if part >= 0]
            spelled.append((kind, *parts))
    unfold = {
        spelled[c]: [(bit, spelled[sup]) for bit, sup in pairs]
        for c, pairs in enumerate(compiled.unfold)
        if pairs
    }
    return unfold, [(bit, spelled[constraint]) for bit, constraint in compiled.gcis]


def _atom_written(kb):
    """``kb`` with each inclusion whose left side simplifies to an atom
    rewritten to that atom, and the number of inclusions rewritten."""
    probe = CompiledKB([])
    rewritten = []
    count = 0
    for annotated in kb.axioms:
        axiom = annotated.axiom
        if type(axiom) is SubClassOf and type(axiom.sub) is not Atomic:
            negated = probe.intern(Not(axiom.sub))
            if probe.kind[negated] == _NOT:
                atom = probe.left[negated]
                name = next(name for name, i in probe._ids.items() if i == atom)
                axiom = SubClassOf(Atomic(name), axiom.sup)
                annotated = AnnotatedAxiom(axiom, annotated.probability)
                count += 1
        rewritten.append(annotated)
    return KnowledgeBase(tuple(rewritten)), count


def test_inclusions_absorb_on_their_normal_form():
    """An inclusion whose left side simplifies to an atom compiles as if
    that atom were written there: equal tables, covering sets and answers."""
    rewrites = 0
    for seed, count in ((2026, 200), (1, 150), (7, 150)):
        for kb, query in fuzz_corpus(seed, count):
            atomic, changed = _atom_written(kb)
            if not changed:
                continue
            rewrites += changed
            assert _spelled_tables(CompiledKB(kb.indexed())) == _spelled_tables(
                CompiledKB(atomic.indexed())
            )
            for method in ("glassbox", "blackbox"):
                assert (
                    all_justifications(kb, query, method).justifications
                    == all_justifications(atomic, query, method).justifications
                )
            assert probability_query(kb, query).probability == probability_query(
                atomic, query
            ).probability
    assert rewrites >= 100
