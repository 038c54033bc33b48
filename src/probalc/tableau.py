"""Tableau decision procedure for ALC with axiom tracing.

Entailment is decided by refutation: the query's counter-assertions are
added and the procedure searches for a clash-free completion graph.  Rule
priority is fixed (clash detection, then conjunction, value restriction
and unfolding, then propagating a disjunction, then branching on one,
then existential generation) with nodes visited in creation order, so
runs are fully deterministic.  Deferring branching and node generation
this way also keeps traces small.

The search runs on a compiled knowledge base (Horrocks & Patel-Schneider,
*Optimizing description logic subsumption*, J. Logic Comput. 1999, call
this normalisation, simplification and encoding).  Every distinct
concept of the axioms and of the query's refutation is interned once as
an int, with per-id tables for its kind, children, role and complement,
so a label is a dict from ints to traces and the clash check is one int
lookup.  The walk that interns a concept also puts it in negation normal
form and simplifies it bottom-up, so axioms and queries are compiled as
they were written.  An id stands for a simplified normal form, where no
rule below applies to any part:
- ``Bottom or X = X``, ``Top or X = Top``, ``X or X = X`` and
  ``X or not X = Top``;
- ``Top and X = X``, ``Bottom and X = Bottom``, ``X and X = X`` and
  ``X and not X = Bottom``;
- ``exists r. Bottom = Bottom`` and ``forall r. Top = Top``.
``X`` and ``not X`` are recognised as complementary only where ``X`` is
an atom or a negated atom.  A disjunction that simplifies away is never
a branch point, and an inclusion whose ``not sub or sup`` simplifies to
``Top`` is a tautology, left out of the compiled KB, so it never appears
in a trace.
Axiom ``i`` owns bit ``1 << i``; one call takes the compiled KB and a
bitmask of the axioms it may use, and skips every other axiom where it
would be used.  A justification search compiles its KB once and asks
about thousands of masks; the list-of-axioms API compiles its input on
every call.

Disjunctions wait on an agenda: each node keeps its disjunctions in
label order with a cursor past the ones already satisfied.  Labels only
grow along a branch, so a satisfied disjunction stays satisfied.  Before
the search branches it propagates, as Horrocks & Patel-Schneider's
Boolean constraint propagation does: an unsatisfied disjunction whose
label holds the complement of one side adds its other side, opening no
branch point.  Only atoms and negated atoms have complements, so only
literal sides propagate.  The search branches only when no pending
disjunction propagates, on the first unsatisfied one in node-then-label
order.  One pass over the agendas past their cursors finds either pick,
without rescanning the labels.

Inclusion axioms are absorbed on their normal form where they can be
(Horrocks & Tobies, *Reasoning with axioms: theory and practice*, KR
2000).  ``not sub`` and ``sup`` are interned apart.  An inclusion whose
``not sub`` is a negated atom ``not A`` (its left side simplifies to
``A``, as ``A and Top`` or ``B or Bottom`` do) goes into an unfolding
table: when ``A`` enters a label, ``sup`` is added alongside it, so the
axiom never branches; ``not A`` unfolds nothing.  Every other inclusion
is internalised as ``not sub or sup``, the interner's simplified ``or``
of the two ids, and added to every node, where the search propagates or
branches on it unless it simplified: ``Top <= C`` adds plain ``C``, and
``Bottom <= C`` adds nothing.  Adding a concept
walks what it unfolds to with an explicit stack in the pre-order of a
recursive descent, so an unfolding chain of any length fits in the
Python stack.

Every labeled concept carries a trace: the bitmask of the axioms its
derivation used (none throughout an untraced call) and of the branch
points it depends on.  Rule applications take the union of their
premises' traces; applying an inclusion axiom, by unfolding or as an
internalised disjunction, adds that axiom's own bit; a propagated side
carries the union of its disjunction's trace and the complement's; a
clash reports the union of the traces of the two clashing concepts.
When the refutation closes, the axiom bits of the union of one clash
trace per explored branch are an axiom set that still entails the query
(usually a non-minimal one).  Propagation opens no branch: the side it
adds carries its premises' traces into any clash it takes part in.

A clash backjumps past the branch points it does not depend on
(dependency-directed backtracking: Horrocks & Patel-Schneider; Prosser,
*Hybrid algorithms for the constraint satisfaction problem*, Comput.
Intell. 1993).  The branch point at depth d, counting only the branch
points on the search stack, owns bit ``1 << (base + d)``, where ``base``
is the bit length of the KB's axiom bits, so branch bits sit above every
axiom bit.  Its first side is added with its bit, which then travels
through traces exactly as axiom bits do: into propagated sides,
unfoldings, value-restriction fillers and witness roots, so across graph
boundaries too.  A clash whose trace lacks a branch point's bit would
arise on its other side as well, so that side is never run.  A branch
point whose sides both clash merges their traces and clears its own bit,
and no branch bit leaves the search.

Roles have no inverses, so the subtree below a fresh existential witness
never constrains the rest of the graph.  Each witness is therefore
searched as a graph of its own, after the branch that made it, instead
of being woven into the global branch tree.  It follows that role
assertions are the only edges of a graph and that a graph builds all its
nodes at once: the ABox graph one per individual, its edges fixed before
the search starts, and a witness graph its root.  A branch changes only
the labels.  The roots of all pending witnesses of a branch are built
before any subtree is searched, and a root that clashes as built closes
the branch at once: searching a satisfiable sibling's subtree first can
cost more than the whole rest of the refutation.  Termination relies on
ancestor subset-blocking: an existential is never expanded on a node
whose label is included in an ancestor's label, and each graph holds
views of its ancestors' labels.  A node budget, counted as graphs are
built, and a cooperative deadline bound runaway inputs.

One loop runs the whole search over one explicit stack, as Horrocks &
Patel-Schneider keep their branch points, so no input depth reaches the
Python stack.  Both sides of a disjunction run on one graph, and the
type of a stack entry says what it is:
- a graph is a pending witness;
- a ``(graph, node, side, trace, mark, opened, bit)`` tuple is a branch
  point with a side left, ``mark`` being the graph's size before the
  first side, ``opened`` the number of open graphs then (below) and
  ``bit`` its own bit;
- an int stands for a branch point whose last side is running: the
  union of its first side's clash traces, its own bit cleared;
- a ``_Subtree`` record sits below the subtree of a witness being
  searched (below).  It is not a branch point.
An open branch goes on with the next pending witness, and a branch point
reached first is satisfied and dropped.  A clash pops back to the last
tuple whose bit it holds, dropping the witnesses, the records and the
tuples without it above that one, cuts its graph back to the mark, puts
the clash in its place and runs the last side; an int reached instead
closes its branch point with the union of both sides.  No entry is
changed once pushed, except a record's ``cacheable`` flag.

Within one call, a witness whose root label was already shown to have a
model is not searched again (satisfiability caching, as in Goré &
Nguyen, TABLEAUX 2007, and Horrocks & Patel-Schneider).  A root's key is
its label as built: the filler, the universal fillers, the internalised
inclusions and what they unfold to.  The call's mask is fixed, so roots
with equal keys ask the same question.  A witness popped to be searched
gets a record holding its key and the number of open graphs then.  When
the open path pops the record, the whole subtree ended open, and its
open graphs are kept under the key for the rest of the call, as one
nested list that also stands for them in the list of open graphs; a
clash drops the record, and nothing is kept for it.  A popped witness
whose key has graphs kept is not searched: their list joins the open
graphs instead, so the countermodel check still sees a model for it.
Nested by reference, a chain or a tree of reused subtrees costs one
entry per subtree, not a copy of every graph below it.  Roles have no
inverses, so a subtree is a model of its root wherever that root
appears, unless a node in it was blocked by an ancestor outside it.
Such a node leans on that ancestor, whose other witnesses may still
fail, and the same root elsewhere need not have that ancestor.  So when
a node is blocked, every record on the stack whose root has the
innermost blocker among its ancestors is no longer cacheable.

A call that ends open has found a model: a complete, clash-free graph
gives one in which every node is an element satisfying every concept in
its label (the tableau's soundness lemma), blocked nodes included.  The
search lists the graphs that reached the open state, and a backtrack cuts
that list back to the branch point's count, as ``undo`` cuts the labels
back, so at the end it holds exactly the ABox graph and the live witness
graphs, those of reused subtrees included.  When the caller asks for
it, an open call reports the axiom set that model satisfies: the mask
plus each axiom outside it that a check shows satisfied, conservatively:
- an absorbed ``A <= C`` when no node has ``A`` in its label without ``C``;
- an internalised inclusion when every node's label holds its constraint,
  or one side of it if the constraint is an ``or``;
- a concept assertion ``a : C`` when ``a`` has a node with ``C`` in its
  label;
- a tautology, left out of the compiled KB, always; a role assertion
  never.
That set plus the goal assertion is satisfiable, so it does not entail
the query either.
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
    FRESH_INDIVIDUAL,
    Forall,
    InstanceQuery,
    Not,
    Or,
    Query,
    RoleAssertion,
    SubClassOf,
    SubsumptionQuery,
    Top,
)

# The most completion-graph nodes one call may build.
NODE_BUDGET = 100_000

# Kinds of interned concepts.  Atoms and negations come first: they are
# the two kinds whose addition checks for a clash.
_ATOM, _NOT, _OR, _AND, _FORALL, _EXISTS, _TOP, _BOTTOM = range(8)


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


# The default of every ``deadline`` keyword: a check that never fires.
NO_DEADLINE = Deadline(float("inf"))


class CompiledKB:
    """Axioms with every concept interned as an int, for many tableau calls.

    Concept id ``c`` has kind ``kind[c]``; ``left[c]`` is the argument of
    a negation, the left side of a binary concept or the filler of a
    quantifier, ``right[c]`` the right side of a binary concept, and
    ``role[c]`` a quantifier's role id.  ``comp[c]`` is the id of the
    complement of an atom or the argument of a negation (-1 for the other
    kinds).  An id stands for a concept in simplified negation normal
    form, one that none of the module docstring's rules can shrink, and
    concepts whose simplified normal forms are structurally equal get one
    id.  So no disjunction or conjunction has ``Top`` or ``Bottom``, two
    equal sides or an atom and its negation as its sides, and no
    existential has the filler ``Bottom`` or universal the filler ``Top``.

    Axiom ``i`` owns bit ``1 << i``, and ``axioms`` is the union of the
    bits of every axiom given.  In ascending index order, ``gcis``
    holds the internalised inclusions as ``(bit, not sub or sup)``,
    ``unfold[c]`` the ``(bit, sup)`` pairs of the absorbed inclusions
    whose left side simplifies to atom ``c``, tautologies left out of
    both, and ``abox`` the assertions as
    ``(bit, subject, object, what)``: for a concept assertion the object
    is -1 and ``what`` the concept, for a role assertion ``what`` is the
    role.  Individuals and roles are ids of their names.
    """

    __slots__ = (
        "kind", "left", "right", "role", "comp", "unfold", "gcis", "abox", "axioms",
        "_ids", "_names", "_query", "_goal",
    )

    def __init__(self, indexed_axioms: Iterable[tuple[int, Axiom]]):
        self.kind: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.role: list[int] = []
        self.comp: list[int] = []
        self.unfold: list[list[tuple[int, int]]] = []
        self.gcis: list[tuple[int, int]] = []
        self.abox: list[tuple[int, int, int, int]] = []
        self.axioms = 0
        self._ids: dict[object, int] = {}
        self._names: dict[str, int] = {}
        self._query: Query | None = None
        self._goal = (-1, -1)
        for index, axiom in indexed_axioms:
            bit = 1 << index
            t = type(axiom)
            if t is SubClassOf:
                not_sub = self.intern(axiom.sub, negated=True)
                sup = self.intern(axiom.sup)
                # A tautology constrains nothing, so it is left out.
                if self.kind[not_sub] == _NOT:
                    # The left side simplified to an atom: absorb the axiom.
                    atom = self.left[not_sub]
                    if sup != atom and self.kind[sup] != _TOP:
                        self.unfold[atom].append((bit, sup))
                else:
                    constraint = self._binary(_OR, not_sub, sup)
                    if self.kind[constraint] != _TOP:
                        self.gcis.append((bit, constraint))
            elif t is ConceptAssertion:
                self.abox.append((bit, self.name(axiom.individual), -1, self.intern(axiom.concept)))
            elif t is RoleAssertion:
                self.abox.append(
                    (bit, self.name(axiom.subject), self.name(axiom.object), self.name(axiom.role))
                )
            else:
                raise TypeError(f"not an axiom: {axiom!r}")
            self.axioms |= bit

    def name(self, text: str) -> int:
        """The id of an individual or role name."""
        return self._names.setdefault(text, len(self._names))

    def intern(self, concept: Concept, negated: bool = False) -> int:
        """The id of simplified ``nnf(concept)``, allocating ids for its parts if new.

        With ``negated``, the id of simplified ``nnf(not concept)``.  The
        concept is normalised while it is walked, with an explicit
        stack whose entries carry a polarity: ``Not`` flips it, and under
        negation And and Or, Exists and Forall, and Top and Bottom swap,
        and an atom stands for its complement.  A binary concept or a
        quantifier waits on the stack as ``(kind, role)`` until its
        children's ids are done; then it is simplified, to one of its
        children or to ``Top`` or ``Bottom`` where a rule applies, and
        otherwise hash-consed on ``(kind, left, right, role)``.  Ids are
        made bottom-up (an atom's on its name), so no concept tree is
        hashed.  An atom and its negation are interned together, each the
        other's complement.
        """
        kind = self.kind
        done: list[int] = []
        stack: list = [(concept, not negated)]
        while stack:
            item, arg = stack.pop()
            t = type(item)
            if t is int:
                # Build a kind whose children are done; ``arg`` is its role.
                # A concept that simplifies to one of its children is that id.
                if arg < 0:
                    right = done.pop()
                    done[-1] = self._binary(item, done[-1], right)
                    continue
                filler = done.pop()
                if kind[filler] == (_BOTTOM if item == _EXISTS else _TOP):
                    done.append(filler)
                    continue
                key = (item, filler, -1, arg)
            elif t is Atomic:
                atom = self._ids.get(item.name)
                if atom is None:
                    atom = self._new(item.name, _ATOM, -1, -1, -1)
                    self.comp[atom] = self._new((_NOT, atom, -1, -1), _NOT, atom, -1, -1)
                done.append(atom if arg else self.comp[atom])
                continue
            elif t is Not:
                stack.append((item.arg, not arg))
                continue
            elif t is And or t is Or:
                stack.append((_AND if (t is And) == arg else _OR, -1))
                stack.append((item.right, arg))
                stack.append((item.left, arg))
                continue
            elif t is Exists or t is Forall:
                stack.append((_EXISTS if (t is Exists) == arg else _FORALL, self.name(item.role)))
                stack.append((item.filler, arg))
                continue
            elif t is Top or t is Bottom:
                key = (_TOP if (t is Top) == arg else _BOTTOM, -1, -1, -1)
            else:
                raise TypeError(f"not a concept: {item!r}")
            found = self._ids.get(key)
            done.append(found if found is not None else self._new(key, *key))
        return done[0]

    def _binary(self, kind: int, left: int, right: int) -> int:
        """The id of the ``_OR`` or ``_AND`` of two ids, simplified as ``intern`` does."""
        kinds = self.kind
        # The identity and the absorbing element of the kind.
        unit, zero = (_BOTTOM, _TOP) if kind == _OR else (_TOP, _BOTTOM)
        if kinds[left] == zero or kinds[right] == unit or left == right:
            return left
        if kinds[right] == zero or kinds[left] == unit:
            return right
        key = (zero, -1, -1, -1) if self.comp[left] == right else (kind, left, right, -1)
        found = self._ids.get(key)
        return found if found is not None else self._new(key, *key)

    def _new(self, key, kind: int, left: int, right: int, role: int) -> int:
        concept_id = len(self.kind)
        self._ids[key] = concept_id
        self.kind.append(kind)
        self.left.append(left)
        self.right.append(right)
        self.role.append(role)
        self.comp.append(left if kind == _NOT else -1)
        self.unfold.append([])
        return concept_id

    def refutation(self, query: Query) -> tuple[int, int]:
        """The query's counter-assertion as (individual id, concept id).

        An instance query asserts the complement of its concept; a
        subsumption query asserts ``sub and not sup`` of a fresh individual.
        """
        if query is not self._query:
            if isinstance(query, InstanceQuery):
                goal = (self.name(query.individual), self.intern(query.concept, negated=True))
            elif isinstance(query, SubsumptionQuery):
                individual = self.name(FRESH_INDIVIDUAL)
                sub, sup = self.intern(query.sub), self.intern(query.sup, negated=True)
                goal = (individual, self._binary(_AND, sub, sup))
            else:
                raise TypeError(f"not a query: {query!r}")
            self._goal = goal
            self._query = query
        return self._goal


class _Graph:
    """The completion graph of the branch being searched, undone on backtrack.

    Only the axioms of ``kb`` in ``mask`` take part; ``seen`` is ``mask``
    in a traced call and 0 otherwise, so ``bit & seen`` is an axiom's
    trace.  ``labels[n]`` maps each concept id in node n's label to its
    trace; insertion order doubles as the deterministic scan order.  The
    agenda ``disjunctions[n]`` lists the disjunctions of that label in the
    same order, and every one before ``cursors[n]`` is satisfied.
    ``edges`` maps ``(node, role)`` to the successors and their traces; it
    is fixed before the search.  All nodes are built, each with the
    internalised inclusions, when the graph is: the ABox graph has one per
    individual and a witness graph one, its root.  A witness graph's
    ``key`` is its root's label as built, the key of the module
    docstring's cache.

    ``ancestors`` holds the label key views of the nodes whose witness
    chain led to this graph, outermost first (empty for the ABox graph),
    for blocking.  They are live views, not copies.  That is safe because
    an ancestor's label changes only when one of its branch points resumes,
    and those branch points sit below all of its witnesses on the search
    stack, so the witnesses are dropped first.

    Every side of a branch runs on the same graph: ``mark`` records its
    size when the branch point is pushed, and ``undo`` cuts it back to
    that size before the next side runs.  Cutting back restores the graph
    exactly because
    - a label key is never overwritten, so labels and agendas only grow,
      newest entry last, and dropping what came after the mark (a dict
      pops newest first) leaves them as they were;
    - no node is added after the graph is built;
    - a branch point's witnesses sit above it on the search stack, so they
      are dropped before it is undone.
    """

    __slots__ = (
        "kb", "mask", "seen", "labels", "disjunctions", "cursors", "edges", "ancestors", "clash",
        "key",
    )

    def __init__(
        self, kb: CompiledKB, mask: int, seen: int, edges: dict, size: int, ancestors: tuple
    ):
        self.kb = kb
        self.mask = mask
        self.seen = seen
        self.labels: list[dict[int, int]] = [{} for _ in range(size)]
        self.disjunctions: list[list[int]] = [[] for _ in range(size)]
        self.cursors = [0] * size
        self.edges = edges
        self.ancestors = ancestors
        self.clash: int | None = None
        for node in range(size):
            for bit, constraint in kb.gcis:
                if bit & mask:
                    self.add(node, constraint, bit & seen)

    def mark(self) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
        """Each node's label and agenda lengths, and a copy of the cursors."""
        return tuple(map(len, self.labels)), tuple(map(len, self.disjunctions)), self.cursors[:]

    def undo(self, sizes: tuple[int, ...], counts: tuple[int, ...], cursors: list[int]) -> None:
        """Cut the graph back to what ``mark`` returned, taken while it had no clash."""
        for label, agenda, size, count in zip(self.labels, self.disjunctions, sizes, counts):
            # An agenda grows only with its label.
            if len(label) > size:
                while len(label) > size:
                    label.popitem()
                del agenda[count:]
        self.cursors[:] = cursors
        self.clash = None

    def add(self, node: int, concept: int, trace: int) -> None:
        """Add a concept to a label, then everything it unfolds to.

        Children wait on a LIFO stack, pushed in reverse, so labels fill in
        the pre-order of a recursive descent.  A child whose pop would come
        next, the left side of a conjunction or the sole enabled unfolding
        of an atom with one, is added at once without a push; a concept
        with nothing to unfold allocates no stack.
        """
        if self.clash is not None:
            return
        kb = self.kb
        kind = kb.kind
        stack = None
        while True:
            label = self.labels[node]
            if concept not in label:
                label[concept] = trace
                k = kind[concept]
                if k <= _NOT:
                    other = label.get(kb.comp[concept])
                    if other is not None:
                        self.clash = trace | other
                        return
                    unfold = kb.unfold[concept]
                    if unfold:
                        if len(unfold) == 1:
                            # Its pop would come next, so go on with it here.
                            bit, sup = unfold[0]
                            if bit & self.mask:
                                concept, trace = sup, trace | (bit & self.seen)
                                continue
                        else:
                            mask, seen = self.mask, self.seen
                            if stack is None:
                                stack = []
                            # Indexed: reversed() would allocate an iterator.
                            at = len(unfold)
                            while at:
                                at -= 1
                                bit, sup = unfold[at]
                                if bit & mask:
                                    stack.append((node, sup, trace | (bit & seen)))
                elif k == _OR:
                    self.disjunctions[node].append(concept)
                elif k == _AND:
                    # The left side goes next, as its pop would give it.
                    if stack is None:
                        stack = []
                    stack.append((node, kb.right[concept], trace))
                    concept = kb.left[concept]
                    continue
                elif k == _FORALL:
                    edges = self.edges.get((node, kb.role[concept]))
                    if edges:
                        filler = kb.left[concept]
                        if stack is None:
                            stack = []
                        for succ, edge_trace in reversed(edges.items()):
                            stack.append((succ, filler, trace | edge_trace))
                elif k == _BOTTOM:
                    self.clash = trace
                    return
                # Exists waits for its turn in the search loop; Top is inert.
            if not stack:
                return
            node, concept, trace = stack.pop()

    def next_disjunction(self) -> tuple[int, int, int, int] | None:
        """The next disjunction rule to apply, as ``(node, side, trace, other)``.

        The first unsatisfied disjunction, in node order, then label
        order, whose label holds the complement of one side propagates:
        ``side`` is its other side, ``trace`` the union of the
        disjunction's trace and the complement's, and ``other`` is -1.
        Only when none propagates is the first unsatisfied disjunction
        branched on: ``side`` is its left side, ``other`` its right and
        ``trace`` its own.  One pass past the cursors finds either.
        """
        kb = self.kb
        left, right, comp = kb.left, kb.right, kb.comp
        branch = None
        for node, pending in enumerate(self.disjunctions):
            label = self.labels[node]
            at = self.cursors[node]
            first = -1
            while at < len(pending):
                concept = pending[at]
                one, two = left[concept], right[concept]
                if one not in label and two not in label:
                    if first < 0:
                        first = at
                    # Only literals have complements; -1 is in no label.
                    other = label.get(comp[one])
                    if other is not None:
                        self.cursors[node] = first
                        return node, two, label[concept] | other, -1
                    other = label.get(comp[two])
                    if other is not None:
                        self.cursors[node] = first
                        return node, one, label[concept] | other, -1
                    if branch is None:
                        branch = node, one, label[concept], two
                at += 1
            self.cursors[node] = at if first < 0 else first
        return branch


class _Subtree:
    """A witness being searched, on the search stack below its subtree.

    ``key`` is the label of the witness's root as built and ``start`` the
    number of open graphs when its search began.  ``cacheable`` is cleared
    when a node of the subtree is blocked by one of the root's ancestors.
    """

    __slots__ = ("key", "start", "cacheable")

    def __init__(self, key: frozenset[int], start: int):
        self.key = key
        self.start = start
        self.cacheable = True


def _budget_exhausted() -> ResourceLimitError:
    return ResourceLimitError(
        f"node budget of {NODE_BUDGET} exhausted", {"nodes_created": NODE_BUDGET + 1}
    )


def _refute(
    kb: CompiledKB,
    mask: int,
    traced: bool,
    goal: tuple[int, int] | None,
    deadline: Deadline,
    grown: list[int] | None = None,
) -> int | None:
    """Run the tableau on the axioms of ``kb`` in ``mask`` plus the goal assertion.

    Returns None when a clash-free completion graph exists (the axiom set
    is consistent) and otherwise the axiom bits of the union of one clash
    trace per explored branch, a bitmask that is 0 when not ``traced``.
    When the graph exists and ``grown`` is a list, the axiom set its model
    satisfies is appended to it (``_satisfied``).
    """
    # A refutation can clash while its first graph is built, before the
    # loop's check, so an expired deadline is caught here first.
    deadline.check()
    seen = mask if traced else 0
    # Each individual gets a node at its first mention; a repeated role
    # assertion keeps the first one's trace.
    nodes: dict[int, int] = {}
    edges: dict[tuple[int, int], dict[int, int]] = {}
    asserted: list[tuple[int, int, int]] = []
    for bit, subject, obj, what in kb.abox:
        if bit & mask:
            node = nodes.setdefault(subject, len(nodes))
            if obj < 0:
                asserted.append((node, what, bit & seen))
            else:
                successor = nodes.setdefault(obj, len(nodes))
                edges.setdefault((node, what), {}).setdefault(successor, bit & seen)
    if goal is not None:
        individual, concept = goal
        asserted.append((nodes.setdefault(individual, len(nodes)), concept, 0))
    # Nodes are made only here and for each witness root, and counted
    # before the graph that holds them is built.
    created = len(nodes) or 1
    if created > NODE_BUDGET:
        raise _budget_exhausted()
    # The domain is never empty: without individuals, a single anonymous
    # element must still satisfy every inclusion axiom.
    graph = _Graph(kb, mask, seen, edges, created, ())
    for node, concept, trace in asserted:
        graph.add(node, concept, trace)
    kind, left, role_of = kb.kind, kb.left, kb.role
    # ``graph`` is the branch being searched; the module docstring gives
    # the four kinds of stack entry.  ``opened`` lists the graphs of the
    # live branch that reached the open state, each kept subtree as one
    # nested list of its own (below).  ``depth`` counts the
    # branch points on the stack; the next one owns bit ``1 << (base +
    # depth)``, above every axiom bit.  ``active`` lists the subtree
    # records on the stack, outermost first: those of the witness chain
    # that led to the graph being searched, so ``active[i]`` is the record
    # of the witness with ``i + 1`` ancestors.  ``models`` maps the root
    # label of each witness whose subtree ended open, leaning on no
    # blocker outside itself, to the open graphs of that subtree.
    stack: list = []
    opened: list = []
    active: list[_Subtree] = []
    models: dict[frozenset[int], list] = {}
    base = kb.axioms.bit_length()
    depth = 0
    while True:
        closed = graph.clash
        if closed is None:
            deadline.check()
            pick = graph.next_disjunction()
            if pick is not None:
                node, side, trace, other = pick
                if other >= 0:
                    bit = 1 << (base + depth)
                    depth += 1
                    stack.append((graph, node, other, trace, graph.mark(), len(opened), bit))
                    trace |= bit
                graph.add(node, side, trace)
                continue
            # No disjunction is pending, so every label is final: build the
            # roots of all witnesses first, so that one that clashes outright
            # closes the branch before any subtree is searched.
            pending = []
            for node in range(len(graph.labels)):
                label = graph.labels[node]
                above: tuple | None = None
                for concept in label:
                    if kind[concept] != _EXISTS:
                        continue
                    role, filler = role_of[concept], left[concept]
                    edges = graph.edges.get((node, role), ())
                    if any(filler in graph.labels[s] for s in edges):
                        continue
                    if above is None:
                        ancestors = graph.ancestors
                        at = len(ancestors) - 1
                        while at >= 0 and not label.keys() <= ancestors[at]:
                            at -= 1
                        if at >= 0:
                            # Blocked: the subtrees that do not hold the
                            # innermost blocker lean on a label outside them.
                            for record in active[at:]:
                                record.cacheable = False
                            break
                        above = ancestors + (label.keys(),)
                    created += 1
                    if created > NODE_BUDGET:
                        raise _budget_exhausted()
                    trace = label[concept]
                    witness = _Graph(kb, mask, seen, {}, 1, above)
                    witness.add(0, filler, trace)
                    for other, other_trace in label.items():
                        if kind[other] == _FORALL and role_of[other] == role:
                            witness.add(0, left[other], other_trace | trace)
                    closed = witness.clash
                    if closed is not None:
                        break
                    witness.key = frozenset(witness.labels[0])
                    pending.append(witness)
                if closed is not None:
                    break
            else:
                # The branch is open: go on with the next pending witness
                # whose root has no model yet.  A branch point reached
                # first is satisfied by this branch, and a subtree record
                # reached first ended open.
                opened.append(graph)
                stack.extend(reversed(pending))
                while stack:
                    entry = stack.pop()
                    t = type(entry)
                    if t is _Graph:
                        model = models.get(entry.key)
                        if model is None:
                            break
                        opened.append(model)
                    elif t is _Subtree:
                        active.pop()
                        if entry.cacheable:
                            # One entry, so enclosing subtrees and reuses
                            # hold it by reference, not by copy.
                            model = opened[entry.start:]
                            del opened[entry.start:]
                            opened.append(model)
                            models[entry.key] = model
                    else:
                        depth -= 1
                else:
                    if grown is not None:
                        grown.append(_satisfied(kb, mask, nodes, opened))
                    return None
                graph = entry
                record = _Subtree(graph.key, len(opened))
                stack.append(record)
                active.append(record)
                continue
        # A clash closes the branch: pop back to the last branch point with a
        # side left whose bit the clash holds, dropping the witnesses, the
        # subtree records and the branch points it does not depend on above
        # it, cut its graph back to the mark and run that side.  A branch point whose last side ran
        # closes with the union of both sides.
        while stack:
            entry = stack.pop()
            t = type(entry)
            if t is tuple:
                graph, node, side, trace, mark, count, bit = entry
                if closed & bit:
                    # Its bit is cleared here: the last side's clash cannot
                    # hold it, since the undo drops every concept that does.
                    stack.append(closed ^ bit)
                    graph.undo(*mark)
                    del opened[count:]
                    graph.add(node, side, trace)
                    break
                depth -= 1
            elif t is int:
                depth -= 1
                closed |= entry
            elif t is _Subtree:
                active.pop()
        else:
            return closed & kb.axioms


def _satisfied(kb: CompiledKB, mask: int, nodes: dict[int, int], graphs: list) -> int:
    """``mask`` plus each axiom outside it that the open graphs' model satisfies.

    ``graphs`` holds the ABox graph first, then the live witness graphs,
    and ``nodes`` maps individual ids to ABox nodes.  The graphs of a kept
    subtree sit in a nested list, which may recur at any depth: each list
    is read once.  The module docstring gives the checks; each leaves out
    what it cannot show.
    """
    absent = kb.axioms & ~mask
    if not absent:
        return mask
    labels = []
    lists = [graphs]
    read = set()
    while lists:
        for item in lists.pop():
            if type(item) is not list:
                labels += item.labels
            elif id(item) not in read:
                read.add(id(item))
                lists.append(item)
    for sub, pairs in enumerate(kb.unfold):
        for bit, sup in pairs:
            if bit & absent and any(sub in label and sup not in label for label in labels):
                absent &= ~bit
    for bit, constraint in kb.gcis:
        if bit & absent:
            # A disjunction in a complete label has one of its sides there.
            if kb.kind[constraint] == _OR:
                one, other = kb.left[constraint], kb.right[constraint]
            else:
                one = other = constraint
            if not all(one in label or other in label for label in labels):
                absent &= ~bit
    abox = graphs[0].labels
    for bit, subject, obj, what in kb.abox:
        if bit & absent:
            node = nodes.get(subject)
            if obj >= 0 or node is None or what not in abox[node]:
                absent &= ~bit
    return mask | absent


def is_consistent(axioms: Iterable[Axiom], *, deadline: Deadline = NO_DEADLINE) -> bool:
    """Does the axiom set have a model?"""
    return _refute(CompiledKB(enumerate(axioms)), -1, False, None, deadline) is None


def entails(
    axioms: Iterable[Axiom] | CompiledKB,
    query: Query,
    *,
    mask: int = -1,
    deadline: Deadline = NO_DEADLINE,
    grown: list[int] | None = None,
) -> bool:
    """Does the axiom set entail the query?  Inconsistent sets entail everything.

    ``axioms`` is a list, whose i-th axiom owns bit ``1 << i``, or a
    compiled KB; either way only the axioms whose bits are in ``mask``
    (default: all) take part.  When the answer is no and ``grown`` is a
    list, the bitmask of the axioms the countermodel satisfies, ``mask``
    included, is appended to it; no superset of ``mask`` within it
    entails the query either.
    """
    kb = axioms if type(axioms) is CompiledKB else CompiledKB(enumerate(axioms))
    return _refute(kb, mask, False, kb.refutation(query), deadline, grown) is not None


def trace_entailment(
    indexed_axioms: Iterable[tuple[int, Axiom]] | CompiledKB,
    query: Query,
    *,
    mask: int = -1,
    deadline: Deadline = NO_DEADLINE,
    grown: list[int] | None = None,
) -> frozenset[int] | int:
    """Axiom indices collected while refuting the negated query.

    The returned set always entails the query; it is not necessarily
    minimal.  Given ``(index, axiom)`` pairs it is a set of indices; given
    a compiled KB it is a bitmask within ``mask``.  Raises
    NotEntailedError when the query is not entailed, after appending the
    countermodel's axiom set to ``grown`` as ``entails`` does.
    """
    compiled = type(indexed_axioms) is CompiledKB
    kb = indexed_axioms if compiled else CompiledKB(indexed_axioms)
    result = _refute(kb, mask, True, kb.refutation(query), deadline, grown)
    if result is None:
        raise NotEntailedError("query is not entailed by the given axioms")
    if compiled:
        return result
    return frozenset(i for i in range(result.bit_length()) if result >> i & 1)
