"""Finding all justifications of an entailment.

A justification is a subset-minimal set of axiom indices that entails the
query.  Two routes produce a single justification: the glass-box route
minimizes the axiom trace reported by the tableau, the black-box route
grows a candidate set by signature connectivity and then minimizes it.
Both minimize with the same single-pass deletion sweep in ascending index
order, so each route is deterministic.  A glass-box trace is also the
entailment test: the tableau either closes and reports the trace, or
finds a model and the route returns None.  The black-box route makes one
entailment check before it expands.  Either way one reasoner call tells
whether the axioms entail the query, and the sweep does not ask again.

The complete set of justifications comes from a hitting set tree: every
tree edge removes one axiom of its parent's justification, and each child
recomputes a justification over the reduced knowledge base; when that
step finds no entailment, the child is a closed leaf.  Paths that repeat
an already-visited removal set are pruned, and a node whose removal path
misses some known justification reuses the first such one in discovery
order without calling the reasoner.  A bitmask per axiom over the
ordinals of the justifications that contain it finds that one with a few
integer operations.  The traversal terminates with exactly the set of
all justifications.

Entailment is monotone in the axiom set, so every axiom set the reasoner
has found not to entail the query answers all of its subsets.  Each
search keeps the maximal such sets as integer bitmasks and answers a
question about a subset of one of them without a reasoner call.  That
closes a path that contains a closed leaf's path (Reiter's pruning,
since the leaf's reduced knowledge base does not entail the query) and
answers most deletion-sweep checks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator

from .kb import KnowledgeBase, Query, signature, refutation_assertions
from .tableau import (
    DEFAULT_NODE_BUDGET,
    Deadline,
    NotEntailedError,
    ResourceLimitError,
    entails,
    trace_entailment,
)

DEFAULT_HST_BUDGET = 100_000

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
    """Per-query reasoning context: budgets, deadline, call counting, memo.

    ``_negative`` holds, as bitmasks of axiom indices, the maximal sets
    known not to entail the query; none of them is a subset of another.
    A question about a subset of one of them is answered without a
    reasoner call.  An exhausted budget raises, so only real answers are
    recorded.
    """

    __slots__ = (
        "kb", "query", "node_budget", "deadline", "tableau_calls", "memo_hits", "_negative"
    )

    def __init__(self, kb, query, node_budget, deadline):
        self.kb = kb
        self.query = query
        self.node_budget = node_budget
        self.deadline = deadline
        self.tableau_calls = 0
        self.memo_hits = 0
        self._negative: list[int] = []

    def _known_negative(self, mask: int) -> bool:
        for known in self._negative:
            if not mask & ~known:
                self.memo_hits += 1
                return True
        return False

    def _record_negative(self, mask: int) -> None:
        self._negative = [known for known in self._negative if known & ~mask]
        self._negative.append(mask)

    def entails(self, indices: Collection[int]) -> bool:
        mask = _mask(indices)
        if self._known_negative(mask):
            return False
        self.tableau_calls += 1
        answer = entails(
            self.kb.axioms_at(indices),
            self.query,
            node_budget=self.node_budget,
            deadline=self.deadline,
        )
        if not answer:
            self._record_negative(mask)
        return answer

    def trace(self, indices: Collection[int]) -> frozenset[int] | None:
        """The tableau's axiom trace, or None when the query is not entailed."""
        mask = _mask(indices)
        if self._known_negative(mask):
            return None
        self.tableau_calls += 1
        try:
            return trace_entailment(
                self.kb.indexed(indices),
                self.query,
                node_budget=self.node_budget,
                deadline=self.deadline,
            )
        except NotEntailedError:
            self._record_negative(mask)
            return None


def _mask(indices: Iterable[int]) -> int:
    mask = 0
    for index in indices:
        mask |= 1 << index
    return mask


def minimize(
    candidate: Iterable[int],
    kb: KnowledgeBase,
    query: Query,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    deadline: Deadline | None = None,
) -> Justification:
    """Shrink an entailing axiom set to a subset-minimal one.

    One linear sweep in ascending index order: drop each axiom whose
    removal preserves the entailment.  Raises NotEntailedError when the
    candidate does not entail the query in the first place.
    """
    session = _Session(kb, query, node_budget, deadline)
    current = set(candidate)
    if not session.entails(current):
        raise NotEntailedError("candidate does not entail the query")
    return _minimize(session, current)


def _minimize(session: _Session, candidate: Iterable[int]) -> Justification:
    """The deletion sweep over a candidate already known to entail the query."""
    current = set(candidate)
    for index in sorted(current):
        reduced = current - {index}
        if session.entails(reduced):
            current = reduced
    return frozenset(current)


def single_justification(
    kb: KnowledgeBase,
    query: Query,
    method: str = "glassbox",
    *,
    subset: Iterable[int] | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    deadline: Deadline | None = None,
) -> Justification:
    """One justification drawn from ``subset`` (default: the whole KB).

    Raises NotEntailedError when the selected axioms do not entail the
    query, and ValueError for an unknown method name.
    """
    session = _Session(kb, query, node_budget, deadline)
    indices = sorted(subset) if subset is not None else list(range(len(kb)))
    just = _single(session, indices, method)
    if just is None:
        raise NotEntailedError("axioms do not entail the query")
    return just


def _single(session: _Session, indices: list[int], method: str) -> Justification | None:
    """One justification within ``indices``, or None when they do not entail the query."""
    if method == "glassbox":
        trace = session.trace(indices)
        return None if trace is None else _minimize(session, trace)
    if method == "blackbox":
        if not session.entails(indices):
            return None
        return _minimize(session, _expand(session, indices))
    raise ValueError(f"unknown justification method {method!r}")


def _expand(session: _Session, indices: list[int]) -> list[int]:
    """Black-box expansion: pull in axioms wave by wave along shared names.

    Starts from the query's signature and stops at the first wave whose
    working set entails the query.  When the waves stall without reaching
    entailment (the entailment may rest on an inconsistency sharing no
    names with the query), one final wave adds everything left.  The
    caller has already checked that ``indices`` entail the query.
    """
    assertions, _ = refutation_assertions(session.query)
    reached: set[str] = set()
    for axiom in assertions:
        reached |= signature(axiom)
    signatures = {i: signature(session.kb.axiom(i)) for i in indices}
    working: list[int] = []
    remaining = list(indices)
    while True:
        wave = [i for i in remaining if signatures[i] & reached]
        if not wave:
            wave = remaining
        working.extend(wave)
        in_wave = set(wave)
        remaining = [i for i in remaining if i not in in_wave]
        for i in wave:
            reached |= signatures[i]
        if not remaining or session.entails(working):
            return working


def all_justifications(
    kb: KnowledgeBase,
    query: Query,
    method: str = "glassbox",
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    hst_node_budget: int = DEFAULT_HST_BUDGET,
    deadline: Deadline | None = None,
) -> CoveringSet:
    """Every justification of the query, via a hitting set tree.

    Returns an empty covering set when the query is not entailed at all.
    Raises ResourceLimitError when the tree budget or deadline runs out.
    """
    session = _Session(kb, query, node_budget, deadline)
    all_indices = list(range(len(kb)))
    root = _single(session, all_indices, method)
    if root is None:
        return CoveringSet(frozenset(), session.tableau_calls, 0, session.memo_hits)
    # Discovery order makes node reuse deterministic.  containing[i] has
    # bit k set when the k-th justification found contains axiom i.
    found: list[Justification] = []
    containing = [0] * len(kb)

    def discovered(just: Justification) -> None:
        for i in just:
            containing[i] |= 1 << len(found)
        found.append(just)

    discovered(root)
    visited_paths: set[frozenset[int]] = {frozenset()}
    hst_nodes = 1
    queue: deque[tuple[frozenset[int], Justification]] = deque([(frozenset(), root)])
    while queue:
        if deadline is not None:
            deadline.check()
        path, label = queue.popleft()
        for removed in sorted(label):
            new_path = path | {removed}
            if new_path in visited_paths:
                continue
            visited_paths.add(new_path)
            hst_nodes += 1
            if hst_nodes > hst_node_budget:
                raise ResourceLimitError(
                    f"hitting set tree budget of {hst_node_budget} exhausted",
                    {
                        "justifications": frozenset(found),
                        "hst_nodes": hst_nodes,
                        "tableau_calls": session.tableau_calls,
                        "memo_hits": session.memo_hits,
                    },
                )
            hit = 0
            for i in new_path:
                hit |= containing[i]
            disjoint = ~hit & ((1 << len(found)) - 1)
            if disjoint:
                queue.append((new_path, found[(disjoint & -disjoint).bit_length() - 1]))
                continue
            reduced = [i for i in all_indices if i not in new_path]
            label_for_child = _single(session, reduced, method)
            if label_for_child is not None:
                discovered(label_for_child)
                queue.append((new_path, label_for_child))
            # Otherwise the path hits every justification: a closed leaf.
    return CoveringSet(frozenset(found), session.tableau_calls, hst_nodes, session.memo_hits)
