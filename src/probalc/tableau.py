"""Tableau decision procedure for ALC with axiom tracing.

Entailment is decided by refutation: the query's counter-assertions are
added and the procedure searches for a clash-free completion graph.  Rule
priority is fixed (clash detection, then conjunction, value restriction
and unfolding, then disjunction, then existential generation) with nodes
visited in creation order, so runs are fully deterministic.  Deferring
branching and node generation this way also keeps traces small.

Disjunctions wait on an agenda (Horrocks & Patel-Schneider, *Optimizing
description logic subsumption*, J. Logic Comput. 1999): each node keeps
its disjunctions in label order with a cursor past the ones already
satisfied.  Labels only grow along a branch, so a satisfied disjunction
stays satisfied, and the next one to branch on is found without
rescanning the labels.

Inclusion axioms are absorbed where they can be (Horrocks & Tobies,
*Reasoning with axioms: theory and practice*, KR 2000).  An inclusion
``A <= C`` with an atomic left side goes into an unfolding table: when
``A`` enters a label, ``C`` is added alongside it, so the axiom never
branches; ``not A`` unfolds nothing.  Every other inclusion is
internalised as ``not sub or sup`` and added to every node, where the
search branches on it.

Every labeled concept carries a trace: the set of axiom indices its
derivation used.  Rule applications take the union of their premises'
traces; applying an inclusion axiom, by unfolding or as an internalised
disjunction, adds that axiom's own index; a clash reports the union of
the traces of the two clashing concepts.  When the refutation closes, the
union of one clash trace per explored branch is an axiom set that still
entails the query (usually a non-minimal one).

Roles have no inverses, so the subtree below a fresh existential witness
never constrains the rest of the graph.  Each witness is therefore solved
in isolation by a recursive call instead of being woven into the global
branch tree, which keeps memory and branching linear in the depth.  It
follows that role assertions are the only edges of a graph: the ABox is
the initial completion graph, its edges are fixed before the search
starts, and a branch copies only the labels.  The
roots of all pending witnesses of a branch are built before any subtree
is searched, and a root that clashes as built closes the branch at once:
searching a satisfiable sibling's subtree first can cost more than the
whole rest of the refutation.  Termination relies on ancestor
subset-blocking: an existential is never expanded on a node whose label
is included in an ancestor's label.  A node budget and an optional
cooperative deadline bound runaway inputs.
"""

from __future__ import annotations

import time
from typing import Iterable

from .kb import (
    And,
    Atomic,
    Axiom,
    Bottom,
    Concept,
    ConceptAssertion,
    Exists,
    Forall,
    Not,
    Or,
    Query,
    RoleAssertion,
    SubClassOf,
    Top,
)

DEFAULT_NODE_BUDGET = 100_000

_EMPTY: frozenset[int] = frozenset()


class ResourceLimitError(Exception):
    """A node budget or a deadline was exhausted before an answer was found."""

    def __init__(self, message: str, partial: dict | None = None):
        super().__init__(message)
        self.partial = partial or {}


class NotEntailedError(Exception):
    """Raised when an operation requires an entailment that does not hold."""


class Deadline:
    """Absolute point in monotonic time checked cooperatively by the loops."""

    __slots__ = ("at",)

    def __init__(self, at: float):
        self.at = at

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        return cls(time.monotonic() + seconds)

    def check(self) -> None:
        if time.monotonic() > self.at:
            raise ResourceLimitError("deadline exceeded")


class _Run:
    """Mutable per-call bookkeeping shared by all branches.

    ``gcis`` holds the internalised inclusions added to every node;
    ``unfold`` maps an atomic concept to the ``(trace, sup)`` pairs its
    absorbed inclusions add wherever it appears.
    """

    __slots__ = ("gcis", "unfold", "node_budget", "deadline", "nodes_created")

    def __init__(self, gcis, unfold, node_budget: int, deadline: Deadline | None):
        self.gcis = gcis
        self.unfold = unfold
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes_created = 0

    def charge_node(self) -> None:
        self.nodes_created += 1
        if self.nodes_created > self.node_budget:
            raise ResourceLimitError(
                f"node budget of {self.node_budget} exhausted",
                {"nodes_created": self.nodes_created},
            )


class _Graph:
    """One branch of the completion graph.

    ``labels[n]`` maps each concept in node n's label to its trace;
    insertion order doubles as the deterministic scan order.  The agenda
    ``disjunctions[n]`` lists the ``Or`` concepts of that label in the
    same order, and every one before ``cursors[n]`` is satisfied.
    ``edges`` maps ``(node, role)`` to the successors and their traces;
    it is fixed before the search and shared by every branch.  Branching
    copies the labels and the agenda, so rule applications never need
    undoing.
    """

    __slots__ = ("run", "labels", "disjunctions", "cursors", "edges", "clash")

    def __init__(self, run: _Run, edges: dict[tuple[int, str], dict[int, frozenset[int]]]):
        self.run = run
        self.labels: list[dict[Concept, frozenset[int]]] = []
        self.disjunctions: list[list[Or]] = []
        self.cursors: list[int] = []
        self.edges = edges
        self.clash: frozenset[int] | None = None

    def copy(self) -> "_Graph":
        g = _Graph.__new__(_Graph)
        g.run = self.run
        g.labels = [dict(d) for d in self.labels]
        g.disjunctions = [list(d) for d in self.disjunctions]
        g.cursors = list(self.cursors)
        g.edges = self.edges
        g.clash = self.clash
        return g

    def new_node(self) -> int:
        self.run.charge_node()
        node = len(self.labels)
        self.labels.append({})
        self.disjunctions.append([])
        self.cursors.append(0)
        for trace, constraint in self.run.gcis:
            self.add(node, constraint, trace)
            if self.clash is not None:
                break
        return node

    def add(self, node: int, concept: Concept, trace: frozenset[int]) -> None:
        if self.clash is not None:
            return
        label = self.labels[node]
        if concept in label:
            return
        label[concept] = trace
        t = type(concept)
        if t is Bottom:
            self.clash = trace
        elif t is Atomic:
            other = label.get(concept.complement)
            if other is not None:
                self.clash = trace | other
                return
            for axiom_trace, sup in self.run.unfold.get(concept, ()):
                self.add(node, sup, trace | axiom_trace)
                if self.clash is not None:
                    return
        elif t is Not:
            other = label.get(concept.arg)
            if other is not None:
                self.clash = trace | other
        elif t is Or:
            self.disjunctions[node].append(concept)
        elif t is And:
            self.add(node, concept.left, trace)
            self.add(node, concept.right, trace)
        elif t is Forall:
            edges = self.edges.get((node, concept.role))
            if edges:
                for succ, edge_trace in edges.items():
                    self.add(succ, concept.filler, trace | edge_trace)
                    if self.clash is not None:
                        return
        # Exists waits for its turn in the search loop; Top is inert.

    def next_disjunction(self) -> tuple[int, Or] | None:
        """The first unsatisfied disjunction, in node order, then label order."""
        for node, pending in enumerate(self.disjunctions):
            label = self.labels[node]
            at = self.cursors[node]
            while at < len(pending):
                concept = pending[at]
                if concept.left not in label and concept.right not in label:
                    self.cursors[node] = at
                    return node, concept
                at += 1
            self.cursors[node] = at
        return None


def _solve(graph: _Graph, ancestors: tuple[frozenset, ...]) -> frozenset[int] | None:
    """Search this branch; None means a clash-free completion exists.

    ``ancestors`` holds the label key sets on the witness chain above this
    graph, for blocking.  A closed search returns the union of one clash
    trace per explored branch, the traced entailment certificate.
    """
    run = graph.run
    if graph.clash is not None:
        return graph.clash
    if run.deadline is not None:
        run.deadline.check()
    pick = graph.next_disjunction()
    if pick is not None:
        node, disjunction = pick
        trace = graph.labels[node][disjunction]
        if disjunction.left == disjunction.right:
            sides: tuple[Concept, ...] = (disjunction.left,)
        else:
            sides = (disjunction.left, disjunction.right)
        closed = _EMPTY
        for side in sides:
            branch = graph.copy()
            branch.add(node, side, trace)
            result = _solve(branch, ancestors)
            if result is None:
                return None
            closed |= result
        return closed
    # No disjunction is pending, so every label is final: generate the
    # witnesses, each existential solved in its own subtree.  All roots are
    # built first, so that one that clashes outright closes the branch
    # before any subtree is searched.
    pending: list[tuple[_Graph, tuple[frozenset, ...]]] = []
    for node in range(len(graph.labels)):
        label = graph.labels[node]
        above: tuple[frozenset, ...] | None = None
        for concept in label:
            if type(concept) is not Exists:
                continue
            edges = graph.edges.get((node, concept.role), ())
            if any(concept.filler in graph.labels[s] for s in edges):
                continue
            if above is None:
                if any(label.keys() <= keys for keys in ancestors):
                    break
                above = ancestors + (frozenset(label.keys()),)
            trace = label[concept]
            witness = _Graph(run, {})
            root = witness.new_node()
            witness.add(root, concept.filler, trace)
            for other, other_trace in label.items():
                if type(other) is Forall and other.role == concept.role:
                    witness.add(root, other.filler, other_trace | trace)
            if witness.clash is not None:
                return witness.clash
            pending.append((witness, above))
    for witness, above in pending:
        result = _solve(witness, above)
        if result is not None:
            return result
    return None


def _refute(
    seeded: list[tuple[frozenset[int], Axiom]],
    node_budget: int,
    deadline: Deadline | None,
) -> frozenset[int] | None:
    """Run the tableau on the given axioms; each axiom carries its trace seed.

    Returns None when a clash-free completion graph exists (the axiom set
    is consistent) and the union of branch clash traces otherwise.
    """
    gcis: list[tuple[frozenset[int], Concept]] = []
    unfold: dict[Concept, list[tuple[frozenset[int], Concept]]] = {}
    # Each individual gets a node at its first mention; a repeated role
    # assertion keeps the first one's trace.
    nodes: dict[str, int] = {}
    edges: dict[tuple[int, str], dict[int, frozenset[int]]] = {}
    asserted: list[tuple[int, Concept, frozenset[int]]] = []
    for trace, axiom in seeded:
        t = type(axiom)
        if t is SubClassOf:
            if type(axiom.sub) is Atomic:
                # The constraint is ``not sub or nnf(sup)``.
                unfold.setdefault(axiom.sub, []).append((trace, axiom.constraint.right))
            else:
                gcis.append((trace, axiom.constraint))
        elif t is ConceptAssertion:
            node = nodes.setdefault(axiom.individual, len(nodes))
            asserted.append((node, axiom.normal, trace))
        elif t is RoleAssertion:
            subject = nodes.setdefault(axiom.subject, len(nodes))
            obj = nodes.setdefault(axiom.object, len(nodes))
            edges.setdefault((subject, axiom.role), {}).setdefault(obj, trace)
    graph = _Graph(_Run(tuple(gcis), unfold, node_budget, deadline), edges)
    # The domain is never empty: without individuals, a single anonymous
    # element must still satisfy every inclusion axiom.
    for _ in range(len(nodes) or 1):
        graph.new_node()
    for node, concept, trace in asserted:
        graph.add(node, concept, trace)
    return _solve(graph, ())


def is_consistent(
    axioms: Iterable[Axiom],
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    deadline: Deadline | None = None,
) -> bool:
    """Does the axiom set have a model?"""
    seeded = [(_EMPTY, axiom) for axiom in axioms]
    return _refute(seeded, node_budget, deadline) is None


def entails(
    axioms: Iterable[Axiom],
    query: Query,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    deadline: Deadline | None = None,
) -> bool:
    """Does the axiom set entail the query?  Inconsistent sets entail everything."""
    seeded = [(_EMPTY, axiom) for axiom in axioms]
    seeded.append((_EMPTY, query.refutation))
    return _refute(seeded, node_budget, deadline) is not None


def trace_entailment(
    indexed_axioms: Iterable[tuple[int, Axiom]],
    query: Query,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    deadline: Deadline | None = None,
) -> frozenset[int]:
    """Axiom indices collected while refuting the negated query.

    The returned set always entails the query; it is not necessarily
    minimal.  Raises NotEntailedError when the query is not entailed.
    """
    seeded: list[tuple[frozenset[int], Axiom]] = [
        (frozenset((index,)), axiom) for index, axiom in indexed_axioms
    ]
    seeded.append((_EMPTY, query.refutation))
    result = _refute(seeded, node_budget, deadline)
    if result is None:
        raise NotEntailedError("query is not entailed by the given axioms")
    return result
