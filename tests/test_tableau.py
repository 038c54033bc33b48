"""Tableau: consistency, entailment, tracing, blocking, budgets.

The quantifier-free agreement suite checks the tableau against an
independent truth-table oracle: with no roles in play, an interpretation
is determined by which atom sets it realizes, so entailment reduces to
enumerating atom subsets.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import probalc
from probalc import tableau
from probalc.cli import main
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
    Atomic,
    BOTTOM,
    Concept,
    ConceptAssertion,
    InstanceQuery,
    Not,
    Or,
    RoleAssertion,
    SubClassOf,
    SubsumptionQuery,
    TOP,
    Top,
    Bottom,
    Exists,
    Forall,
)
from probalc.parser import parse_kb, parse_query
from probalc.semantics import probability_bruteforce, probability_query
from probalc.tableau import (
    _AND,
    _ATOM,
    _BOTTOM,
    _EXISTS,
    _FORALL,
    _OR,
    _TOP,
    _Graph,
    CompiledKB,
    Deadline,
    NotEntailedError,
    ResourceLimitError,
    entails,
    is_consistent,
    trace_entailment,
)

from conftest import branching_family

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")


def axioms_of(kb):
    return [a.axiom for a in kb.axioms]


class TestConsistency:
    def test_direct_clash(self):
        assert not is_consistent([ConceptAssertion("a", A), ConceptAssertion("a", Not(A))])

    def test_crime_kb_is_consistent(self, crime_certain_kb):
        assert is_consistent(axioms_of(crime_certain_kb))

    def test_empty_kb_is_consistent(self):
        assert is_consistent([])

    def test_unsatisfiable_tbox_alone_is_inconsistent(self):
        # The domain is never empty, so Top <= Bottom has no model.
        assert not is_consistent([SubClassOf(TOP, BOTTOM)])

    def test_cyclic_existential_terminates_by_blocking(self):
        axioms = [SubClassOf(A, Exists("r", A)), ConceptAssertion("a", A)]
        assert is_consistent(axioms)

    def test_existential_meets_universal_clash(self):
        axioms = [
            ConceptAssertion("a", Exists("r", B)),
            ConceptAssertion("a", Forall("r", Not(B))),
        ]
        assert not is_consistent(axioms)

    def test_role_assertion_feeds_universal(self):
        axioms = [
            RoleAssertion("a", "b", "r"),
            ConceptAssertion("a", Forall("r", B)),
            ConceptAssertion("b", Not(B)),
        ]
        assert not is_consistent(axioms)

    def test_disjunction_explores_both_sides(self):
        axioms = [ConceptAssertion("a", Or(A, B)), ConceptAssertion("a", Not(A))]
        assert is_consistent(axioms)
        axioms.append(ConceptAssertion("a", Not(B)))
        assert not is_consistent(axioms)


class TestEntailment:
    def test_crime_query_is_entailed(self, crime_certain_kb, crime_query):
        assert entails(axioms_of(crime_certain_kb), crime_query)

    def test_dropping_the_inclusion_breaks_it(self, crime_certain_kb, crime_query):
        assert not entails(crime_certain_kb.axioms_at([1, 2, 3]), crime_query)

    def test_tautological_subsumption_from_nothing(self):
        assert entails([], SubsumptionQuery(A, A))

    def test_tbox_only_kb_entailes_no_instances(self):
        assert not entails([SubClassOf(A, B)], InstanceQuery("a", B))

    def test_inconsistent_kb_entails_everything(self):
        axioms = [ConceptAssertion("a", A), ConceptAssertion("a", Not(A))]
        assert entails(axioms, InstanceQuery("unrelated", C))

    def test_chained_subsumption(self):
        axioms = [SubClassOf(A, B), SubClassOf(B, C)]
        assert entails(axioms, SubsumptionQuery(A, C))
        assert not entails(axioms, SubsumptionQuery(C, A))

    @given(st.integers(0, 10_000))
    def test_monotone_under_axiom_addition(self, seed):
        """Entailment by a subset implies entailment by the whole KB."""
        rng = random.Random(seed)
        kb = random_kb(rng, max_axioms=7)
        query = random_query(rng, kb)
        axioms = axioms_of(kb)
        subset_size = rng.randint(0, len(axioms))
        subset = rng.sample(range(len(axioms)), subset_size)
        if entails([axioms[i] for i in sorted(subset)], query):
            assert entails(axioms, query)


class TestTracing:
    def test_crime_trace_names_an_entailing_set(self, crime_kb, crime_query):
        trace = trace_entailment(crime_kb.indexed(), crime_query)
        assert trace == frozenset({0, 1, 2})
        assert entails(crime_kb.axioms_at(trace), crime_query)

    def test_trace_is_deterministic(self, crime_kb, crime_query):
        runs = {trace_entailment(crime_kb.indexed(), crime_query) for _ in range(3)}
        assert len(runs) == 1

    def test_not_entailed_raises(self, crime_kb):
        with pytest.raises(NotEntailedError):
            trace_entailment(crime_kb.indexed(), InstanceQuery("alyona", Atomic("GreatMan")))

    def test_trace_soundness_over_fuzz_corpus(self):
        """The traced axiom set always entails the query on its own."""
        checked = 0
        for kb, query in fuzz_corpus(2024, 60, max_axioms=8):
            if not entails(axioms_of(kb), query):
                continue
            trace = trace_entailment(kb.indexed(), query)
            assert entails(kb.axioms_at(trace), query)
            checked += 1
        assert checked >= 10


class TestRoleEdges:
    """Role assertions are the graph's edges wherever they stand in the KB."""

    @pytest.mark.parametrize("edge_first", [True, False])
    def test_universal_reaches_the_successor_in_either_order(self, edge_first):
        edge = RoleAssertion("a", "b", "r")
        universal = ConceptAssertion("a", Forall("r", B))
        axioms = [edge, universal] if edge_first else [universal, edge]
        query = InstanceQuery("b", B)
        assert entails(axioms, query)
        assert trace_entailment(enumerate(axioms), query) == frozenset({0, 1})

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_repeated_role_assertion_keeps_the_first_trace(self, at):
        axioms = [RoleAssertion("a", "b", "r"), RoleAssertion("a", "b", "r")]
        axioms.insert(at, ConceptAssertion("a", Forall("r", B)))
        first_edge = 1 if at == 0 else 0
        traced = trace_entailment(enumerate(axioms), InstanceQuery("b", B))
        assert traced == frozenset({at, first_edge})


class TestAbsorption:
    """Inclusions with an atomic left side unfold instead of branching."""

    def test_cyclic_unfolding_terminates_by_blocking(self):
        axioms = [SubClassOf(A, Exists("r", A)), ConceptAssertion("a", A)]
        assert entails(axioms, InstanceQuery("a", Exists("r", Exists("r", A))))
        assert not entails(axioms, InstanceQuery("a", B))

    def test_negated_atom_unfolds_nothing(self):
        axioms = [SubClassOf(A, B), ConceptAssertion("b", Not(A))]
        assert not entails(axioms, InstanceQuery("b", B))
        assert not entails(axioms, InstanceQuery("b", Not(B)))

    def test_trace_names_the_unfolded_axioms(self):
        indexed = [(0, SubClassOf(B, C)), (1, ConceptAssertion("a", A)), (2, SubClassOf(A, B))]
        assert trace_entailment(indexed, InstanceQuery("a", C)) == frozenset({0, 1, 2})
        assert trace_entailment(indexed, SubsumptionQuery(A, C)) == frozenset({0, 2})

    def test_non_atomic_left_sides_apply_to_every_node(self):
        top = [SubClassOf(TOP, C), ConceptAssertion("a", Exists("r", A))]
        assert entails(top, InstanceQuery("a", Exists("r", And(A, C))))
        assert entails(top, SubsumptionQuery(B, C))
        negated = [SubClassOf(Not(A), C), ConceptAssertion("a", Exists("r", Not(A)))]
        assert entails(negated, InstanceQuery("a", Exists("r", C)))
        assert entails(negated, SubsumptionQuery(Not(A), C))
        assert not entails(negated, SubsumptionQuery(A, C))

    def test_absorbed_and_internalised_inclusions_agree(self):
        """``A and (A or X) <= C`` is internalised, so it checks ``A <= C``.

        The interner has no absorption law, so that left side stays a
        conjunction, although it is equivalent to ``A``.
        """
        checked = 0
        for kb, query in fuzz_corpus(2025, 80, max_axioms=8):
            axioms = axioms_of(kb)
            internalised = [
                SubClassOf(And(a.sub, Or(a.sub, Atomic("X"))), a.sup)
                if type(a) is SubClassOf and type(a.sub) is Atomic
                else a
                for a in axioms
            ]
            if internalised == axioms:
                continue
            assert entails(axioms, query) == entails(internalised, query)
            checked += 1
        assert checked >= 20

    def test_corpus_tail_kb_within_the_default_budget(self):
        """KB #43 of the seed-2026 corpus exhausted the node budget when
        sibling witnesses were searched before all of their roots were built."""
        kb, query = list(fuzz_corpus(2026, 44, max_axioms=10))[43]
        result = probability_query(kb, query)
        assert result.probability == pytest.approx(probability_bruteforce(kb, query), abs=1e-9)


class TestBudgets:
    def test_node_budget_exhaustion(self, crime_certain_kb, monkeypatch):
        monkeypatch.setattr(tableau, "NODE_BUDGET", 1)
        with pytest.raises(ResourceLimitError):
            is_consistent(axioms_of(crime_certain_kb))

    def test_expired_deadline(self, crime_certain_kb, crime_query):
        with pytest.raises(ResourceLimitError):
            entails(
                axioms_of(crime_certain_kb),
                crime_query,
                deadline=Deadline(at=0.0),
            )

    def test_expired_deadline_before_a_clash_at_build(self):
        """The chain's refutation clashes while its first graph is built."""
        kb = generate_synthetic(3)
        with pytest.raises(ResourceLimitError):
            entails(axioms_of(kb), chain_query(3), deadline=Deadline(at=0.0))

    def test_generous_budget_is_invisible(self, crime_certain_kb, crime_query):
        assert entails(
            axioms_of(crime_certain_kb),
            crime_query,
            deadline=Deadline.after(60.0),
        )


# ---------------------------------------------------------------------------
# The search stack

# Run in a fresh interpreter: every query of the seed-2026 corpus (both
# methods) and chain n=7, first at the default recursion limit, then with
# only 20 frames above the caller's.  Prints both lists of answers.
FIXED_STACK_SCRIPT = """
import json, sys
from probalc.generators import chain_query, fuzz_corpus, generate_synthetic
from probalc.semantics import RunConfig, probability_query

cases = [
    (kb, query, RunConfig(method=method))
    for kb, query in [*fuzz_corpus(2026, 200), (generate_synthetic(7), chain_query(7))]
    for method in ("glassbox", "blackbox")
]

def answer(kb, query, config):
    try:
        return repr(probability_query(kb, query, config).probability)
    except RecursionError:
        return "RecursionError"

default = [answer(*case) for case in cases]
frame, depth = sys._getframe(), 0
while frame is not None:
    frame, depth = frame.f_back, depth + 1
limit = sys.getrecursionlimit()
sys.setrecursionlimit(depth + 20)
# A plain loop, unlike a comprehension on Python 3.11, takes no frame.
fixed = []
for case in cases:
    fixed.append(answer(*case))
sys.setrecursionlimit(limit)
print(json.dumps([default, fixed]))
"""


class TestSearchStack:
    def test_wide_conjunction_query(self):
        """Its negation is a 1,500-way disjunction whose sides propagate in turn."""
        kb = parse_kb("".join(f"a : A{i}\n" for i in range(1500)))
        query = parse_query("a : " + " and ".join(f"A{i}" for i in range(1500)))
        assert entails(axioms_of(kb), query)
        assert trace_entailment(kb.indexed(), query) == frozenset(range(1500))

    def test_deep_branching_in_little_memory(self):
        """1,500 open branch points on one 3,000-entry label.

        Each branch point keeps only a mark of the label's size, so the
        memory peak does not grow with depth times width.
        """
        kb = parse_kb("".join(f"a : A{i} or B{i}\n" for i in range(1500)) + "0.5 :: a : C\n")
        query = parse_query("a : C")
        tracemalloc.start()
        try:
            probability = probability_query(kb, query).probability
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert probability == pytest.approx(0.5)
        assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MiB"

    def test_answers_on_a_fixed_stack(self):
        """No query's answer depends on the depth of the Python stack."""
        package_root = Path(probalc.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", FIXED_STACK_SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(package_root)},
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        default, fixed = json.loads(result.stdout)
        assert len(default) == 402 and "RecursionError" not in default
        assert fixed == default


# ---------------------------------------------------------------------------
# Boolean constraint propagation


@pytest.fixture
def marks(monkeypatch):
    """The number of branch points opened so far."""
    mark = _Graph.mark
    opened = [0]

    def counted(graph):
        opened[0] += 1
        return mark(graph)

    monkeypatch.setattr(_Graph, "mark", counted)
    return opened


class TestPropagation:
    def test_an_internalised_inclusion_propagates(self, marks):
        """``A or B`` with ``not A`` in the label adds ``B`` with both traces."""
        indexed = [(0, ConceptAssertion("a", Not(A))), (1, SubClassOf(Not(A), B))]
        assert CompiledKB(indexed).gcis != []
        assert trace_entailment(indexed, InstanceQuery("a", B)) == frozenset({0, 1})
        assert marks == [0]

    def test_both_complements_clash_at_once(self, marks):
        indexed = [
            (0, ConceptAssertion("a", Or(Not(A), B))),
            (1, ConceptAssertion("a", A)),
            (2, ConceptAssertion("a", Not(B))),
        ]
        assert not is_consistent(axiom for _, axiom in indexed)
        assert trace_entailment(indexed, InstanceQuery("a", C)) == frozenset({0, 1, 2})
        assert marks == [0]

    def test_an_asserted_conjunction_opens_no_branch_point(self, marks):
        kb = parse_kb("".join(f"a : A{i}\n" for i in range(300)))
        query = parse_query("a : " + " and ".join(f"A{i}" for i in range(300)))
        assert entails(axioms_of(kb), query)
        assert marks == [0]


# ---------------------------------------------------------------------------
# Dependency-directed backjumping


@pytest.fixture
def undos(monkeypatch):
    """The number of branch points whose last side has run so far."""
    undo = _Graph.undo
    ran = [0]

    def counted(graph, *mark):
        ran[0] += 1
        return undo(graph, *mark)

    monkeypatch.setattr(_Graph, "undo", counted)
    return ran


def _extension(concept, domain, atoms, roles):
    """The elements of a finite interpretation that are in the concept.

    ``atoms`` maps atom names to their extensions and ``roles`` role names
    to their sets of ``(subject, object)`` pairs.
    """
    t = type(concept)
    if t is Atomic:
        return atoms.get(concept.name, set())
    if t is Top:
        return domain
    if t is Bottom:
        return set()
    if t is Not:
        return domain - _extension(concept.arg, domain, atoms, roles)
    if t is And or t is Or:
        one = _extension(concept.left, domain, atoms, roles)
        two = _extension(concept.right, domain, atoms, roles)
        return one & two if t is And else one | two
    fillers = _extension(concept.filler, domain, atoms, roles)
    pairs = roles.get(concept.role, set())
    successors = {x: {y for s, y in pairs if s == x} for x in domain}
    if t is Exists:
        return {x for x in domain if successors[x] & fillers}
    return {x for x in domain if successors[x] <= fillers}


def _is_countermodel(kb, query, domain, atoms, roles) -> bool:
    """Does the interpretation satisfy every inclusion and concept assertion
    of the KB, and not the instance query?"""
    for axiom in axioms_of(kb):
        if isinstance(axiom, SubClassOf):
            holds = _extension(axiom.sub, domain, atoms, roles) <= _extension(
                axiom.sup, domain, atoms, roles
            )
        else:
            holds = axiom.individual in _extension(axiom.concept, domain, atoms, roles)
        if not holds:
            return False
    return query.individual not in _extension(query.concept, domain, atoms, roles)


# Each KB's first branch point is ``a``'s first disjunction.  Its first side
# clashes by the named route, and its second side is open, as the
# countermodel ``(domain, atoms, roles)`` shows.  A search that lost the
# branch point's bit on that route would jump past it and answer entailed.
JUMP_ROUTES = {
    "unfolding": (
        "a : B1 or B2\nB1 <= not C\na : C\n",
        ({"a"}, {"B2": {"a"}, "C": {"a"}}, {}),
    ),
    "propagated side": (
        "a : B1 or B2\na : not B1 or E\nE <= Bottom\n",
        ({"a"}, {"B2": {"a"}}, {}),
    ),
    "forall filler in a witness root": (
        "a : (forall r. not E) or (B2 and B3)\na : exists r. E\n",
        ({"a", "w"}, {"B2": {"a"}, "B3": {"a"}, "E": {"w"}}, {"r": {("a", "w")}}),
    ),
    "exists witness": (
        "a : (exists r. E) or B2\nE <= Bottom\n",
        ({"a"}, {"B2": {"a"}}, {}),
    ),
}


class TestBackjumping:
    """A clash skips the second side of every branch point it does not depend on."""

    def test_a_clash_below_every_branch_point_jumps_past_all(self, undos):
        """Twelve open disjunctions, then a witness that clashes on its own.

        Without backjumping each of the 4,096 branches builds the witness
        and clashes again, and the search undoes 4,095 times.
        """
        axioms = [ConceptAssertion("a", Or(Atomic(f"A{i}"), Atomic(f"B{i}"))) for i in range(12)]
        axioms += [ConceptAssertion("a", Exists("r", Atomic("D"))), SubClassOf(Atomic("D"), BOTTOM)]
        assert not is_consistent(axioms)
        assert undos == [0]
        assert trace_entailment(enumerate(axioms), InstanceQuery("a", C)) == frozenset({12, 13})
        assert undos == [0]

    @pytest.mark.parametrize("route", JUMP_ROUTES)
    def test_a_first_side_clash_keeps_its_branch_point(self, undos, route):
        text, (domain, atoms, roles) = JUMP_ROUTES[route]
        kb = parse_kb("".join(f"0.5 :: {line}\n" for line in text.splitlines()))
        query = parse_query("a : B")
        assert _is_countermodel(kb, query, domain, atoms, roles)
        assert not entails(axioms_of(kb), query)
        # The first side clashed and the second side ran.
        assert undos == [1]
        assert probability_query(kb, query).probability == 0.0
        assert probability_bruteforce(kb, query) == 0.0


class TestNormalFormAbsorption:
    """Absorption is decided on the simplified normal form of the left side."""

    ATOMIC = {
        "A and Top": And(A, TOP),
        "A or Bottom": Or(A, BOTTOM),
        "A and A": And(A, A),
        "not not A": Not(Not(A)),
        "A or (B and not B)": Or(A, And(B, Not(B))),
    }
    OTHER = {
        "not A": Not(A),
        "A or C": Or(A, C),
        "A and C": And(A, C),
        "exists r. Top": Exists("r", TOP),
        "Top": TOP,
        "Bottom": BOTTOM,
    }

    @pytest.mark.parametrize("sub", ATOMIC.values(), ids=ATOMIC.keys())
    def test_a_left_side_that_simplifies_to_an_atom_unfolds(self, sub):
        compiled = CompiledKB([(0, ConceptAssertion("a", C)), (1, SubClassOf(sub, B))])
        assert compiled.gcis == []
        unfolded = {c: pairs for c, pairs in enumerate(compiled.unfold) if pairs}
        assert unfolded == {compiled.intern(A): [(2, compiled.intern(B))]}

    @pytest.mark.parametrize(
        "axiom",
        [SubClassOf(And(A, TOP), A), SubClassOf(A, Or(B, Not(B)))],
        ids=["A and Top <= A", "A <= B or not B"],
    )
    def test_a_tautology_is_left_out(self, axiom):
        compiled = CompiledKB([(0, axiom)])
        assert compiled.gcis == [] and not any(compiled.unfold)

    @pytest.mark.parametrize("sub", OTHER.values(), ids=OTHER.keys())
    def test_other_left_sides_are_internalised(self, sub):
        compiled = CompiledKB([(0, SubClassOf(sub, B))])
        size = len(compiled.kind)
        constraint = compiled.intern(Or(Not(sub), B))
        assert len(compiled.kind) == size
        assert compiled.gcis == ([] if compiled.kind[constraint] == _TOP else [(1, constraint)])
        assert not any(compiled.unfold)

    def test_an_absorbed_left_side_opens_no_branch_point(self, marks):
        indexed = [(0, ConceptAssertion("a", A)), (1, SubClassOf(And(A, TOP), B))]
        assert trace_entailment(indexed, InstanceQuery("a", B)) == frozenset({0, 1})
        assert marks == [0]


# ---------------------------------------------------------------------------
# Witness subtrees that ended open, reused within one call


@pytest.fixture
def built(monkeypatch):
    """The number of completion graphs built so far."""
    init = _Graph.__init__
    graphs = [0]

    def counted(graph, *args):
        graphs[0] += 1
        init(graph, *args)

    monkeypatch.setattr(_Graph, "__init__", counted)
    return graphs


class TestWitnessCache:
    def test_a_subtree_blocked_outside_itself_is_not_reused(self):
        """``a : exists r. A`` with ``A <= exists r. B``, ``B <= exists r. C``
        and ``C <= Bottom`` has no model: a's r-successor in A needs one in B,
        which needs one in C.  So the KB is inconsistent, and the query
        holds in exactly the worlds that choose ``C <= Bottom``: P = 0.5.

        On the first side of ``X1 or X2``, a holds A, so the root
        ``{A, exists r. B}`` of a's r-witness is blocked by a and ends open,
        before a's witness for ``exists r. B`` fails.  The second side
        builds the same root, which a no longer blocks.  A search that
        reused the first side's subtree there would find a model.
        """
        kb = parse_kb(
            "a : exists r. A\n"
            "a : X1 or X2\n"
            "X1 <= A\n"
            "A <= exists r. B\n"
            "B <= exists r. C\n"
            "0.5 :: C <= Bottom\n"
        )
        query = parse_query("a : D")
        assert not is_consistent(axioms_of(kb))
        result = probability_query(kb, query)
        assert result.covering.justifications == {frozenset({0, 3, 4, 5})}
        assert result.probability == 0.5

    # ``a``'s two witnesses build the same root, and the first root's
    # successor is blocked.  Inside, by the first root: its subtree is
    # reused, and the second root is not searched (5 graphs without the
    # cache).  Outside, by ``a``: the second root is searched again (4
    # graphs if the subtree were reused).
    BLOCKED = {
        "inside": ("a : exists r. A\na : exists s. A\nA <= exists r. A\n", 4),
        "outside": ("a : A\nA <= exists r. D\nD <= exists r. A\na : exists s. D\n", 5),
    }

    @pytest.mark.parametrize("where", BLOCKED)
    def test_a_subtree_is_reused_only_when_blocked_inside_itself(self, built, where):
        text, graphs = self.BLOCKED[where]
        assert is_consistent(axioms_of(parse_kb(text)))
        assert built == [graphs]

    def test_reused_subtrees_are_held_by_reference(self, built):
        """``Ai <= (exists r. A(i-1)) and (exists s. A(i-1))`` for i <= 20
        asks for a tree of 2^20 witnesses with two equal roots at each level.

        Without the cache the search exhausts the node budget.  With it, each
        level searches one root and reuses its subtree for the other, and
        the open graphs the countermodel check reads hold each subtree once,
        not 2^20 graphs.  ``a : C`` is left out, so the check runs.
        """
        levels = "".join(
            f"A{i} <= (exists r. A{i - 1}) and (exists s. A{i - 1})\n" for i in range(1, 21)
        )
        kb = parse_kb("a : A20\n" + levels + "a : C\n")
        compiled = CompiledKB(kb.indexed())
        mask = (1 << 21) - 1
        grown = []
        tracemalloc.start()
        try:
            assert not entails(compiled, parse_query("a : B"), mask=mask, grown=grown)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grown == [mask]
        assert built == [41]
        assert peak < 1 << 20, peak

    def test_corpus_graphs_are_pinned(self, built):
        """The cache's saving as graph counts (36 and 1,339 without it)."""
        corpus = list(fuzz_corpus(2026, 200))
        probability_query(*corpus[32])
        assert built == [22]
        built[0] = 0
        for kb, query in corpus:
            probability_query(kb, query)
        assert built == [1088]


# ---------------------------------------------------------------------------
# The compiled knowledge base


def _indices(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _compiled_agrees(kb, query, mask):
    """One masked call on the compiled KB against the same axioms as a list, traced and untraced."""
    compiled = CompiledKB(kb.indexed())
    chosen = _indices(mask)
    assert entails(compiled, query, mask=mask) == entails(kb.axioms_at(chosen), query)
    try:
        expected = trace_entailment(kb.indexed(chosen), query)
    except NotEntailedError:
        expected = None
    try:
        got = _indices(trace_entailment(compiled, query, mask=mask))
    except NotEntailedError:
        got = None
    assert got == expected
    return expected is not None


class TestCompiledKB:
    def test_every_mask_of_the_crime_kb(self, crime_kb, crime_query):
        entailed = [_compiled_agrees(crime_kb, crime_query, mask) for mask in range(1 << len(crime_kb))]
        assert 0 < sum(entailed) < len(entailed)

    def test_random_masks_of_the_corpus(self):
        rng = random.Random(2026)
        entailed = 0
        for kb, query in fuzz_corpus(2026, 200):
            for _ in range(20):
                entailed += _compiled_agrees(kb, query, rng.getrandbits(len(kb)))
        assert 100 <= entailed <= 3900

    def test_equal_concepts_share_one_id(self):
        compiled = CompiledKB([])
        first = compiled.intern(And(A, Exists("r", Or(B, Not(C)))))
        size = len(compiled.kind)
        again = compiled.intern(And(Atomic("A"), Exists("r", Or(Atomic("B"), Not(Atomic("C"))))))
        assert again == first and len(compiled.kind) == size
        assert compiled.intern(Not(C)) == compiled.comp[compiled.intern(C)]

    def test_complements_of_atoms(self):
        for kb, _ in fuzz_corpus(2026, 200):
            compiled = CompiledKB(kb.indexed())
            atoms = [c for c, kind in enumerate(compiled.kind) if kind == _ATOM]
            assert atoms
            for atom in atoms:
                assert compiled.comp[compiled.comp[atom]] == atom
                assert compiled.comp[atom] != atom

    def test_interning_a_query_twice_adds_no_ids(self, crime_kb, crime_query):
        compiled = CompiledKB(crime_kb.indexed())
        goal = compiled.refutation(crime_query)
        size = len(compiled.kind)
        assert compiled.refutation(crime_query) == goal
        assert compiled.refutation(InstanceQuery("raskolnikov", Atomic("GreatMan"))) == goal
        assert compiled.intern(Not(crime_query.concept)) == goal[1]
        assert len(compiled.kind) == size


# ---------------------------------------------------------------------------
# The axiom set an open call's countermodel satisfies


def _grown(axioms, query, absent):
    """Indices the countermodel satisfies when the axioms at ``absent`` are left out."""
    mask = (1 << len(axioms)) - 1 & ~sum(1 << i for i in absent)
    grown: list[int] = []
    assert not entails(axioms, query, mask=mask, grown=grown)
    (satisfied,) = grown
    assert satisfied & mask == mask
    return _indices(satisfied)


class TestCountermodel:
    """An open call reports its mask plus every absent axiom its model satisfies."""

    QUERY = InstanceQuery("a", B)

    def test_absorbed_inclusion(self):
        axioms = [SubClassOf(A, C), SubClassOf(Atomic("D"), C), ConceptAssertion("a", A)]
        # ``a`` has A without C; no node has D.
        assert _grown(axioms, self.QUERY, {0, 1}) == {1, 2}

    def test_concept_assertion_needs_a_node_holding_the_concept(self):
        axioms = [
            ConceptAssertion("a", C),
            ConceptAssertion("b", C),
            ConceptAssertion("a", A),
            SubClassOf(A, C),
        ]
        # ``b`` has no node, so nothing is known of it.
        assert _grown(axioms, self.QUERY, {0, 1}) == {0, 2, 3}

    def test_role_assertion_is_never_grown(self):
        axioms = [RoleAssertion("a", "b", "r"), ConceptAssertion("a", A), ConceptAssertion("b", A)]
        assert _grown(axioms, self.QUERY, {0}) == {1, 2}

    def test_internalised_inclusion_needs_every_node(self):
        axioms = [
            SubClassOf(Not(A), C),  # internalised as ``A or C``
            SubClassOf(TOP, A),  # internalised as plain ``A``
            RoleAssertion("a", "b", "r"),
            ConceptAssertion("a", A),
            ConceptAssertion("b", A),
        ]
        assert _grown(axioms, self.QUERY, {0, 1}) == {0, 1, 2, 3, 4}
        # ``b`` holds neither A nor C.
        assert _grown(axioms, self.QUERY, {0, 1, 4}) == {2, 3}

    def test_witness_nodes_are_model_elements(self):
        D = Atomic("D")
        axioms = [SubClassOf(TOP, A), ConceptAssertion("a", A), ConceptAssertion("a", Exists("r", D))]
        # The witness for ``exists r. D`` lacks A.
        assert _grown(axioms, self.QUERY, {0}) == {1, 2}
        assert _grown(axioms + [SubClassOf(D, A)], self.QUERY, {0}) == {0, 1, 2, 3}

    def test_graphs_of_an_undone_side_do_not_count(self):
        """The first side opens a witness holding X, then closes deeper down.

        Only the second side's graphs form the model, and none holds X.
        """
        X, Q = Atomic("X"), Atomic("Q")
        D1, D2 = Atomic("D1"), Atomic("D2")
        closes_below = And(Exists("t", Q), Forall("t", Not(Q)))
        axioms = [
            SubClassOf(X, Atomic("Y")),
            ConceptAssertion("a", Or(D1, D2)),
            SubClassOf(D1, Exists("r", X)),
            SubClassOf(D1, Exists("s", closes_below)),
        ]
        assert _grown(axioms, self.QUERY, {0}) == {0, 1, 2, 3}

    def test_only_a_miss_reports(self, crime_kb, crime_query):
        compiled = CompiledKB(crime_kb.indexed())
        grown: list[int] = []
        assert entails(compiled, crime_query, grown=grown)
        trace_entailment(compiled, crime_query, grown=grown)
        assert grown == []
        # A call over the whole KB has nothing to grow: it reports its mask.
        assert not entails(compiled, InstanceQuery("alyona", Atomic("GreatMan")), grown=grown)
        assert grown == [-1]

    def test_a_traced_miss_reports_the_same_set(self, crime_kb, crime_query):
        compiled = CompiledKB(crime_kb.indexed())
        for mask in range(16):
            untraced: list[int] = []
            if entails(compiled, crime_query, mask=mask, grown=untraced):
                continue
            traced: list[int] = []
            with pytest.raises(NotEntailedError):
                trace_entailment(compiled, crime_query, mask=mask, grown=traced)
            assert traced == untraced

    def test_grown_sets_do_not_entail_the_query(self):
        """Soundness oracle: a freshly compiled KB agrees that no grown set entails the query."""
        rng = random.Random(2026)
        corpora = itertools.chain(fuzz_corpus(2026, 200), fuzz_corpus(7, 200, max_axioms=12))
        missed = grew = 0
        for kb, query in corpora:
            compiled = CompiledKB(kb.indexed())
            for _ in range(10):
                mask = rng.getrandbits(len(kb))
                grown: list[int] = []
                if entails(compiled, query, mask=mask, grown=grown):
                    assert grown == []
                    continue
                (satisfied,) = grown
                assert satisfied & mask == mask
                assert satisfied >> len(kb) == 0
                assert not entails(CompiledKB(kb.indexed()), query, mask=satisfied)
                missed += 1
                grew += satisfied != mask
        # Both outcomes must be common for the check to mean anything.
        assert 1000 <= missed and 500 <= grew < missed


# ---------------------------------------------------------------------------
# Simplification while interning

_X = Exists("r", Or(A, B))
_FOLDS = {
    "bottom or X": (Or(BOTTOM, _X), _X),
    "X or bottom": (Or(_X, BOTTOM), _X),
    "top or X": (Or(TOP, _X), TOP),
    "X or top": (Or(_X, TOP), TOP),
    "X or X": (Or(_X, _X), _X),
    "A or not A": (Or(A, Not(A)), TOP),
    "not A or A": (Or(Not(A), A), TOP),
    "top and X": (And(TOP, _X), _X),
    "X and top": (And(_X, TOP), _X),
    "bottom and X": (And(BOTTOM, _X), BOTTOM),
    "X and bottom": (And(_X, BOTTOM), BOTTOM),
    "X and X": (And(_X, _X), _X),
    "A and not A": (And(A, Not(A)), BOTTOM),
    "not A and A": (And(Not(A), A), BOTTOM),
    "exists bottom": (Exists("r", BOTTOM), BOTTOM),
    "forall top": (Forall("r", TOP), TOP),
    "nested": (Exists("r", And(C, BOTTOM)), BOTTOM),
}


class TestSimplification:
    """An id stands for a simplified normal form, so trivial operands never branch."""

    @pytest.mark.parametrize("concept, simpler", _FOLDS.values(), ids=_FOLDS.keys())
    def test_rule(self, concept, simpler):
        compiled = CompiledKB([])
        assert compiled.intern(concept) == compiled.intern(simpler)
        # Under negation the dual rule fires.
        assert compiled.intern(Not(concept)) == compiled.intern(Not(simpler))

    def test_corpus_ids_are_simplified(self):
        """No compiled concept has an operand that one of the rules removes."""
        checked = 0
        for kb, query in fuzz_corpus(2026, 200):
            compiled = CompiledKB(kb.indexed())
            compiled.refutation(query)
            kind, left, right = compiled.kind, compiled.left, compiled.right
            for concept, k in enumerate(kind):
                if k in (_OR, _AND):
                    a, b = left[concept], right[concept]
                    assert a != b and compiled.comp[a] != b
                    assert {kind[a], kind[b]}.isdisjoint((_TOP, _BOTTOM))
                    checked += 1
                elif k in (_EXISTS, _FORALL):
                    assert kind[left[concept]] != (_BOTTOM if k == _EXISTS else _TOP)
        assert checked > 500

    def test_inclusion_of_bottom_is_left_out(self):
        compiled = CompiledKB([(0, SubClassOf(BOTTOM, And(C, C)))])
        assert compiled.gcis == []

    def test_inclusion_of_top_adds_its_right_side_unbranched(self):
        compiled = CompiledKB([(0, SubClassOf(TOP, B))])
        assert compiled.gcis == [(1, compiled.intern(B))]
        assert compiled.kind[compiled.gcis[0][1]] == _ATOM

    def test_contradiction_closes_with_its_own_trace(self):
        indexed = [(0, SubClassOf(A, B)), (1, ConceptAssertion("a", And(A, Not(A))))]
        compiled = CompiledKB(indexed)
        assert [compiled.kind[what] for *_, what in compiled.abox] == [_BOTTOM]
        assert trace_entailment(indexed, InstanceQuery("b", C)) == frozenset({1})

    def test_inconsistent_kb_answers_within_the_budget(self, capsys, tmp_path):
        """``A <= exists r. (C and Bottom)`` makes ``A`` unsatisfiable and the
        KB inconsistent.  A search that branches on the trivial operands
        exhausts the node budget on it."""
        text = (
            "forall s. D <= forall s. Top and D and Top\n"
            "a : exists r. forall r. A\n"
            "B and A <= A or not B\n"
            "0.6762526368146975 :: c : C\n"
            "0.7341479440667513 :: forall r. C <= forall r. exists s. B\n"
            "not A <= exists r. exists s. D\n"
            "A <= exists r. (C and Bottom)\n"
        )
        path = tmp_path / "folded.kb"
        path.write_text(text)
        assert main(["query", str(path), "c : B"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("probability: 1\n")
        kb, query = parse_kb(text), parse_query("c : B")
        assert probability_bruteforce(kb, query) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# The disjunction agenda against the label scan it replaced


def _scan_next_disjunction(graph):
    """Reference: rescan every label for the first propagating disjunction.

    A disjunction propagates when the complement of one side is in its
    label: the other side is added with both traces.  Only when none does
    is the first unsatisfied disjunction branched on, its left side first.
    """
    kb = graph.kb
    branch = None
    for node in range(len(graph.labels)):
        label = graph.labels[node]
        for concept, trace in label.items():
            if kb.kind[concept] != _OR:
                continue
            one, two = kb.left[concept], kb.right[concept]
            if one in label or two in label:
                continue
            for side, other in ((one, two), (two, one)):
                complement = kb.comp[side]
                if complement >= 0 and complement in label:
                    return node, other, trace | label[complement], -1
            if branch is None:
                branch = node, one, trace, two
    return branch


def test_agenda_picks_what_the_full_scan_picks(monkeypatch, crime_kb, crime_query):
    agenda = _Graph.next_disjunction
    picks = {"disjunction": 0, "propagated": 0, "none": 0, "past_satisfied": 0}

    def checked(graph):
        expected = _scan_next_disjunction(graph)
        got = agenda(graph)
        assert got == expected
        if got is None:
            picks["none"] += 1
        else:
            picks["disjunction" if got[3] >= 0 else "propagated"] += 1
            picks["past_satisfied"] += graph.cursors[got[0]] > 0
        return got

    monkeypatch.setattr(_Graph, "next_disjunction", checked)
    # Each of the 300 disjunctions propagates, against a label that grows.
    propagating = (
        parse_kb("".join(f"a : A{i} or B{i}\na : not A{i}\n" for i in range(300))),
        parse_query("a : B0"),
    )
    for kb, query in [*fuzz_corpus(2026, 200), (crime_kb, crime_query), propagating]:
        for method in ("glassbox", "blackbox"):
            all_justifications(kb, query, method)
    # Every outcome, and picks that skip satisfied disjunctions, must occur.
    assert min(picks.values()) > 1000, picks


# ---------------------------------------------------------------------------
# Undoing a branch against a copy of the graph it restores


def _snapshot(graph):
    """A deep copy of what a mark restores, label order included."""
    return (
        [list(label.items()) for label in graph.labels],
        [list(agenda) for agenda in graph.disjunctions],
        list(graph.cursors),
    )


def test_undo_restores_the_marked_graph(monkeypatch, crime_kb, crime_query):
    mark, undo = _Graph.mark, _Graph.undo
    undos = 0

    def marked(graph):
        return (*mark(graph), _snapshot(graph))

    def checked(graph, sizes, counts, cursors, expected):
        nonlocal undos
        undo(graph, sizes, counts, cursors)
        assert _snapshot(graph) == expected
        assert graph.clash is None
        undos += 1

    monkeypatch.setattr(_Graph, "mark", marked)
    monkeypatch.setattr(_Graph, "undo", checked)
    # Backjumping prunes most of the corpus's undos; the branching family
    # undoes every branch point it opens.
    family = branching_family(8)[:2]
    for kb, query in [*fuzz_corpus(2026, 200), (crime_kb, crime_query), family]:
        for method in ("glassbox", "blackbox"):
            all_justifications(kb, query, method)
    assert undos > 1000, undos


# ---------------------------------------------------------------------------
# Blocking against live views of the ancestors' labels


def test_ancestor_labels_hold_while_a_witness_is_searched(monkeypatch, crime_kb, crime_query):
    """A graph's ancestor label views read as they did when it was built."""
    init, agenda = _Graph.__init__, _Graph.next_disjunction
    built = {}
    checks = 0

    def snapshotted(graph, *args):
        init(graph, *args)
        built[id(graph)] = [frozenset(keys) for keys in graph.ancestors]

    def checked(graph):
        nonlocal checks
        if graph.ancestors:
            assert [frozenset(keys) for keys in graph.ancestors] == built[id(graph)]
            checks += 1
        return agenda(graph)

    monkeypatch.setattr(_Graph, "__init__", snapshotted)
    monkeypatch.setattr(_Graph, "next_disjunction", checked)
    for kb, query in [*fuzz_corpus(2026, 200), (crime_kb, crime_query)]:
        for method in ("glassbox", "blackbox"):
            all_justifications(kb, query, method)
    assert checks > 1000, checks


# ---------------------------------------------------------------------------
# Quantifier-free agreement with a truth-table oracle


def _eval(concept: Concept, atoms: frozenset[str]) -> bool:
    t = type(concept)
    if t is Atomic:
        return concept.name in atoms
    if t is Top:
        return True
    if t is Bottom:
        return False
    if t is Not:
        return not _eval(concept.arg, atoms)
    if t is And:
        return _eval(concept.left, atoms) and _eval(concept.right, atoms)
    if t is Or:
        return _eval(concept.left, atoms) or _eval(concept.right, atoms)
    raise TypeError(f"quantifier-free oracle got {concept!r}")


def _oracle(kb, query) -> bool:
    """Truth-table entailment for KBs without roles or quantifiers."""
    names = sorted(set.union(set(), *(set(_names(a.axiom)) for a in kb.axioms), _query_names(query)))
    universe = [
        frozenset(itertools.compress(names, bits))
        for bits in itertools.product((0, 1), repeat=len(names))
    ]
    gcis = [a.axiom for a in kb.axioms if isinstance(a.axiom, SubClassOf)]
    allowed = [
        s for s in universe if all(not _eval(g.sub, s) or _eval(g.sup, s) for g in gcis)
    ]
    by_individual: dict[str, list] = {}
    for a in kb.axioms:
        if isinstance(a.axiom, ConceptAssertion):
            by_individual.setdefault(a.axiom.individual, []).append(a.axiom.concept)
    consistent = bool(allowed) and all(
        any(all(_eval(c, s) for c in constraints) for s in allowed)
        for constraints in by_individual.values()
    )
    if not consistent:
        return True
    if isinstance(query, SubsumptionQuery):
        return all(not _eval(query.sub, s) or _eval(query.sup, s) for s in allowed)
    options = [
        s
        for s in allowed
        if all(_eval(c, s) for c in by_individual.get(query.individual, []))
    ]
    return all(_eval(query.concept, s) for s in options)


def _names(axiom):
    out: set[str] = set()
    if isinstance(axiom, SubClassOf):
        _collect_names(axiom.sub, out)
        _collect_names(axiom.sup, out)
    elif isinstance(axiom, ConceptAssertion):
        _collect_names(axiom.concept, out)
    return out


def _query_names(query) -> set[str]:
    out: set[str] = set()
    if isinstance(query, SubsumptionQuery):
        _collect_names(query.sub, out)
        _collect_names(query.sup, out)
    else:
        _collect_names(query.concept, out)
    return out


def _collect_names(concept, out: set[str]) -> None:
    t = type(concept)
    if t is Atomic:
        out.add(concept.name)
    elif t is Not:
        _collect_names(concept.arg, out)
    elif t is And or t is Or:
        _collect_names(concept.left, out)
        _collect_names(concept.right, out)


class TestTruthTableAgreement:
    @settings(max_examples=150)
    @given(st.integers(0, 100_000))
    def test_quantifier_free_entailment_matches_truth_tables(self, seed):
        """On role-free inputs the tableau answers exactly as the
        propositional truth-table oracle does."""
        rng = random.Random(seed)
        kb = random_kb(rng, max_axioms=6, quantifiers=False, role_assertions=False)
        query = random_query(rng, kb)
        assert entails(axioms_of(kb), query) == _oracle(kb, query)
