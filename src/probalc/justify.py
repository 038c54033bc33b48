"""Finding all justifications of an entailment.

A justification is a subset-minimal set of axiom indices that entails the
query.  Inside the search every axiom set (tree paths, node labels, the
justifications found, the sweep's working set) is an int bitmask with
bit ``i`` for axiom ``i``: the tree and the sweep need only set
difference and subset tests.  The reasoner takes the same masks: each
query's knowledge base is compiled once (``tableau.CompiledKB``), and a
call passes the compiled KB with a mask and gets a traced answer back as
a mask.  Index collections become masks where they arrive (public
arguments) and frozensets only in returned values.

Each question "does this axiom set entail the query?" is one
memo-then-reasoner step, ``_Session.ask``.  Entailment is monotone in the
axiom set, so every set known not to entail the query answers all of its
subsets; the session keeps the maximal such sets and answers a question
about a subset of one of them without a reasoner call.  Otherwise it
makes exactly one call, which traces; ``traced`` only picks whether a
"yes" returns the trace or the question's set.  A "no" comes with a
countermodel, the tableau's open completion, recorded as the axiom set
that model satisfies: the question's set plus every other axiom the
tableau shows it satisfies, none of which can restore the entailment.
Growing each "no" this way, as MUS/MCS enumeration grows a satisfiable
subset with the solver's model (Marques-Silva et al., *On computing
minimal correction subsets*, IJCAI 2013), lets one call answer every
later question inside that set; on the chain family the glass-box route
makes one call per justification plus one per maximal non-entailing set.

Most such questions are settled without being asked.  One pass over the
known sets (``_Session.necessary``) names every axiom of a set whose
removal leaves a subset of a known set, the check MUS extraction makes
when it reads necessary clauses off models (Belov & Marques-Silva,
*Accelerating MUS extraction with recursive model rotation*, FMCAD
2011).  The deletion sweep takes it once per justification and keeps
those axioms without asking; the tree takes it once per node and closes
each child whose removed axiom it names.  Each answer read this way
counts as one memo hit, the one asking would have scored, so the
counters and the tree are those of asking every question.

Two routes produce a single justification, both shaped ask, expand
(black box only), sweep.  The glass-box route asks for the tableau's
axiom trace, which is also the entailment test.  The black-box route
asks once, then grows a working set by signature connectivity until it
entails the query.  Both minimize with the same single-pass deletion
sweep in ascending index order, so each route is deterministic.

The complete set of justifications comes from a hitting set tree: every
tree edge removes one axiom of its parent's justification, and each child
recomputes a justification over the reduced knowledge base; when that
step finds no entailment, the child is a closed leaf.  Paths that repeat
an already-visited removal set are pruned, and a node whose removal path
misses some known justification reuses the first such one in discovery
order without calling the reasoner.  A queued node is its path and its
label.  When it is taken from the queue, the justifications its path
meets are the OR of one bitmask per path axiom (bit k set when the k-th
justification found contains the axiom), so the work follows the path's
length, not the number found; a child adds the ones containing its
removed axiom, and the reuse test is a few integer operations.  The
known non-entailing sets close a path that contains a closed leaf's path
(Reiter's pruning, since the leaf's reduced knowledge base does not
entail the query) and settle most deletion-sweep checks.  The traversal
terminates with exactly the set of all justifications.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .kb import KnowledgeBase, Query, signature
from .tableau import (
    NO_DEADLINE,
    CompiledKB,
    Deadline,
    NotEntailedError,
    ResourceLimitError,
    entails,
    trace_entailment,
)

# The most nodes one hitting set tree may count.
HST_BUDGET = 100_000
METHODS = ("glassbox", "blackbox")

Justification = frozenset[int]


@dataclass(frozen=True)
class CoveringSet:
    """All justifications of a query plus search statistics.

    ``tableau_calls`` counts the reasoner calls that were made,
    ``memo_hits`` the questions answered from known non-entailing sets
    instead.
    """

    justifications: frozenset[Justification]
    tableau_calls: int
    hst_nodes: int
    memo_hits: int

    def __len__(self) -> int:
        return len(self.justifications)

    def __iter__(self) -> Iterator[Justification]:
        return iter(self.ordered())

    def __contains__(self, item) -> bool:
        return frozenset(item) in self.justifications

    def ordered(self) -> list[Justification]:
        """Justifications sorted by their ascending index tuples."""
        return sorted(self.justifications, key=lambda j: tuple(sorted(j)))


class _Session:
    """Per-query reasoning context: compiled KB, deadline, call counting, memo.

    The knowledge base is compiled once, and every reasoner call passes
    the compiled KB with the question's bitmask.  ``_negative`` holds, as
    bitmasks of axiom indices, the maximal sets known not to entail the
    query; none of them is a subset of another.  A "no" is recorded as
    the set its countermodel satisfies, which contains the question's
    set and often more.  A question about a subset of one of them is
    answered without a reasoner call.  An exhausted budget raises, so
    only real answers are recorded.
    """

    __slots__ = ("kb", "query", "compiled", "deadline", "tableau_calls", "memo_hits", "_negative")

    def __init__(self, kb, query, deadline):
        self.kb = kb
        self.query = query
        self.compiled = CompiledKB(kb.indexed())
        self.deadline = deadline
        self.tableau_calls = 0
        self.memo_hits = 0
        self._negative: list[int] = []

    def ask(self, mask: int, traced: bool) -> int | None:
        """An entailing subset of ``mask``, or None when ``mask`` does not entail the query.

        Answers from the memo or makes exactly one reasoner call, which
        traces; ``traced`` only picks whether a yes returns the trace or ``mask``.
        """
        for known in self._negative:
            if not mask & ~known:
                self.memo_hits += 1
                return None
        self.tableau_calls += 1
        # A "no" appends the axiom set its countermodel satisfies.
        grown: list[int] = []
        options = {"deadline": self.deadline, "grown": grown}
        if traced:
            try:
                return trace_entailment(self.compiled, self.query, mask=mask, **options)
            except NotEntailedError:
                pass
        elif entails(self.compiled, self.query, mask=mask, **options):
            return mask
        satisfied = grown[0]
        self._negative = [known for known in self._negative if known & ~satisfied]
        self._negative.append(satisfied)
        return None

    def necessary(self, mask: int) -> int:
        """The axioms of ``mask`` whose removal leaves a subset of a known non-entailing set.

        One pass over the known sets: axiom ``i`` counts when ``mask``
        minus ``i`` lies inside one of them, so ``mask`` without ``i``
        does not entail the query and asking would be a memo hit.  Every
        axiom counts when ``mask`` itself lies inside one.
        """
        needed = 0
        for known in self._negative:
            outside = mask & ~known
            if not outside:
                return mask
            if not outside & (outside - 1):
                needed |= outside
        return needed


def _mask(indices: Iterable[int], size: int) -> int:
    """The bitmask of axiom indices arriving from outside the search."""
    mask = 0
    for index in indices:
        if not 0 <= index < size:
            raise ValueError(f"axiom index {index} is outside a knowledge base of {size} axioms")
        mask |= 1 << index
    return mask


def _bits(mask: int) -> list[int]:
    """The axiom indices in ``mask``, ascending."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


def minimize(
    candidate: Iterable[int],
    kb: KnowledgeBase,
    query: Query,
    *,
    deadline: Deadline = NO_DEADLINE,
) -> Justification:
    """Shrink an entailing axiom set to a subset-minimal one.

    One linear sweep in ascending index order: drop each axiom whose
    removal preserves the entailment.  Raises NotEntailedError when the
    candidate does not entail the query in the first place, and
    ValueError for an index outside the knowledge base.
    """
    session = _Session(kb, query, deadline)
    mask = _mask(candidate, len(kb))
    if session.ask(mask, False) is None:
        raise NotEntailedError("candidate does not entail the query")
    return frozenset(_bits(_minimize(session, mask)))


def _minimize(session: _Session, mask: int) -> int:
    """The deletion sweep over a set already known to entail the query.

    The axioms the memo already shows necessary are kept, one memo hit
    each, and the sweep asks about the rest in ascending order.  Known
    non-entailing sets only grow, so each skipped question would have
    been a memo hit at its turn.
    """
    needed = session.necessary(mask)
    session.memo_hits += needed.bit_count()
    rest = mask & ~needed
    while rest:
        low = rest & -rest
        rest ^= low
        if session.ask(mask ^ low, False) is not None:
            mask ^= low
    return mask


def single_justification(
    kb: KnowledgeBase,
    query: Query,
    method: str = "glassbox",
    *,
    subset: Iterable[int] | None = None,
    deadline: Deadline = NO_DEADLINE,
) -> Justification:
    """One justification drawn from ``subset`` (default: the whole KB).

    Raises NotEntailedError when the selected axioms do not entail the
    query, and ValueError for an unknown method name or an index outside
    the knowledge base.
    """
    _check_method(method)
    session = _Session(kb, query, deadline)
    mask = (1 << len(kb)) - 1 if subset is None else _mask(subset, len(kb))
    just = _single(session, mask, method)
    if just is None:
        raise NotEntailedError("axioms do not entail the query")
    return frozenset(_bits(just))


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown justification method {method!r}")


def _single(session: _Session, mask: int, method: str) -> int | None:
    """One justification within ``mask``, or None when it does not entail the query."""
    entailing = session.ask(mask, method == "glassbox")
    if entailing is not None and method == "blackbox":
        entailing = _expand(session, entailing)
    return None if entailing is None else _minimize(session, entailing)


def _expand(session: _Session, mask: int) -> int:
    """Black-box expansion: pull in axioms wave by wave along shared names.

    Starts from the query's signature and stops at the first wave whose
    working set entails the query.  When the waves stall without reaching
    entailment (the entailment may rest on an inconsistency sharing no
    names with the query), one final wave adds everything left.  The
    caller has already checked that ``mask`` entails the query.
    """
    reached = set(signature(session.query))
    remaining = {i: signature(session.kb.axiom(i)) for i in _bits(mask)}
    working = 0
    while True:
        wave = [i for i, names in remaining.items() if names & reached] or list(remaining)
        for i in wave:
            working |= 1 << i
            reached |= remaining.pop(i)
        if not remaining or session.ask(working, False) is not None:
            return working


def all_justifications(
    kb: KnowledgeBase,
    query: Query,
    method: str = "glassbox",
    *,
    deadline: Deadline = NO_DEADLINE,
) -> CoveringSet:
    """Every justification of the query, via a hitting set tree.

    Returns an empty covering set when the query is not entailed at all.
    Raises ResourceLimitError when the tree has counted more than
    ``HST_BUDGET`` nodes or the deadline runs out, and ValueError for an
    unknown method name.
    """
    _check_method(method)
    session = _Session(kb, query, deadline)
    everything = (1 << len(kb)) - 1
    root = _single(session, everything, method)
    if root is None:
        return CoveringSet(frozenset(), session.tableau_calls, 0, session.memo_hits)
    # Discovery order makes node reuse deterministic.  containing[i] has
    # bit k set when the k-th justification found contains axiom i.
    found: list[int] = []
    found_sets: list[Justification] = []
    containing = [0] * len(kb)

    def discovered(just: int) -> None:
        ordinal_bit = 1 << len(found)
        indices = _bits(just)
        for i in indices:
            containing[i] |= ordinal_bit
        found.append(just)
        found_sets.append(frozenset(indices))

    discovered(root)
    visited_paths = {0}
    hst_nodes = 1
    queue: deque[tuple[int, int]] = deque([(0, root)])
    while queue:
        deadline.check()
        path, label = queue.popleft()
        # Bit k of hit: the path meets the k-th justification found so far.
        hit = 0
        rest = path
        while rest:
            low = rest & -rest
            rest ^= low
            hit |= containing[low.bit_length() - 1]
        # ``closing`` holds the removals whose reduced knowledge base the
        # memo already shows non-entailing: each such child is a closed
        # leaf.  Justifications found from here on avoid this path, since
        # each is found below a child of this node, so each child's hit
        # only adds the ones that contain its removed axiom.  A child that
        # a sibling's reasoner call has closed since ``closing`` was read
        # meets every found justification, so the reuse rule passes it to
        # ``_single``, whose ask is the memo hit.
        closing = session.necessary(everything & ~path)
        rest = label
        while rest:
            low = rest & -rest
            rest ^= low
            new_path = path | low
            if new_path in visited_paths:
                continue
            visited_paths.add(new_path)
            hst_nodes += 1
            if hst_nodes > HST_BUDGET:
                raise ResourceLimitError(
                    f"hitting set tree budget of {HST_BUDGET} exhausted",
                    {
                        "justifications": frozenset(found_sets),
                        "hst_nodes": hst_nodes,
                        "tableau_calls": session.tableau_calls,
                        "memo_hits": session.memo_hits,
                    },
                )
            if low & closing:
                # The memo hit that asking would have scored.
                session.memo_hits += 1
                continue
            new_hit = hit | containing[low.bit_length() - 1]
            disjoint = ~new_hit & ((1 << len(found)) - 1)
            if disjoint:
                reused = found[(disjoint & -disjoint).bit_length() - 1]
                queue.append((new_path, reused))
                continue
            label_for_child = _single(session, everything & ~new_path, method)
            if label_for_child is not None:
                discovered(label_for_child)
                queue.append((new_path, label_for_child))
            # Otherwise the path hits every justification: a closed leaf.
    return CoveringSet(frozenset(found_sets), session.tableau_calls, hst_nodes, session.memo_hits)
