"""Reduced ordered binary decision diagrams with hash-consing.

One manager owns all nodes of a diagram family.  References are plain
ints: 0 and 1 are the terminals, higher values index into the node table.
The unique table guarantees that structurally equal subdiagrams share one
reference and that no node has equal branches, so two diagrams of one
manager are the same function exactly when their references are equal.
There are no complement edges.

Variables are the ordinals of a knowledge base's probabilistic view and
the variable order is fixed to ordinal order.  ``build`` compiles a
covering formula by Shannon expansion over its terms (Bryant 1986): the
term set is split on its lowest variable into the high cofactor (that
variable cleared in every term) and the low cofactor (only the terms
without it), and each distinct cofactor set becomes one node.  A node's
children are built before the node itself, so they are already
canonical and the unique table alone merges equal subfunctions: no apply
operation and no apply cache is needed.

The probability of the function is computed by one bottom-up pass: at a
node for variable i with annotation p_i, the value is p_i times the high
branch's value plus (1 - p_i) times the low branch's value.  Sharing
makes the pass linear in the diagram size.  It runs in floats; a caller
whose float answer underflows to 0 can run it again in ``decimal``
(``exact_probability``).  The probability pass,
``node_count`` and ``complement`` each loop over one list of the
reachable nodes, children first.  That list, ``build`` and ``to_dot`` use
explicit stacks, so a diagram's depth is not bounded by Python's
recursion limit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

from .pinpoint import Formula, term_masks
from .tableau import NO_DEADLINE, Deadline

if TYPE_CHECKING:
    from decimal import Decimal

FALSE_REF = 0
TRUE_REF = 1

# Term sets of the constant functions: no term, and the one empty term.
_NO_TERMS: frozenset[int] = frozenset()
_EMPTY_TERM: frozenset[int] = frozenset([0])


class MissingProbabilityError(KeyError):
    """A reachable variable has no annotation value."""


class BddManager:
    def __init__(self, var_count: int):
        if var_count < 0:
            raise ValueError("var_count must be >= 0")
        self.var_count = var_count
        # Terminals carry a sentinel level below every real variable.
        self._entries: list[tuple[int, int, int]] = [
            (var_count, FALSE_REF, FALSE_REF),
            (var_count, TRUE_REF, TRUE_REF),
        ]
        self._unique: dict[tuple[int, int, int], int] = {}

    # -- structure ---------------------------------------------------------

    def level(self, ref: int) -> int:
        return self._entries[ref][0]

    def low(self, ref: int) -> int:
        return self._entries[ref][1]

    def high(self, ref: int) -> int:
        return self._entries[ref][2]

    def _node(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        ref = self._unique.get(key)
        if ref is None:
            ref = len(self._entries)
            self._entries.append(key)
            self._unique[key] = ref
        return ref

    def var(self, ordinal: int) -> int:
        """The diagram of the bare variable: (ordinal, low=0, high=1)."""
        if not 0 <= ordinal < self.var_count:
            raise ValueError(f"variable ordinal {ordinal} outside 0..{self.var_count - 1}")
        return self._node(ordinal, FALSE_REF, TRUE_REF)

    def build(self, formula: Formula, *, deadline: Deadline = NO_DEADLINE) -> int:
        """Compile a monotone formula into its canonical diagram.

        The formula is first flattened into its set of terms, one bitmask
        of ordinals per conjunction (``term_masks``).  The diagram is then
        compiled by Shannon expansion on the lowest variable x occurring in
        a term set: the high cofactor clears x in every term (a term that
        becomes empty makes it true), the low cofactor keeps only the terms
        without x.  Every distinct cofactor set becomes one node, memoised
        by the set, and an explicit stack replaces recursion.  Each node is
        made from children that are already canonical, so no apply
        operation runs and no apply cache fills.

        Raises ValueError for an ordinal outside ``0..var_count - 1``, and
        ResourceLimitError once ``deadline`` has passed; it is checked once
        per cofactor set.
        """
        terms = term_masks(formula, self.var_count)
        if not terms:
            return FALSE_REF
        if 0 in terms:
            return TRUE_REF
        # A set holding the empty term is true; no cofactor set other than
        # this one ever holds it.
        refs: dict[frozenset[int], int] = {_NO_TERMS: FALSE_REF, _EMPTY_TERM: TRUE_REF}
        splits: dict[frozenset[int], tuple[int, frozenset[int], frozenset[int]]] = {}
        stack = [terms]
        while stack:
            current = stack[-1]
            if current in refs:
                stack.pop()
                continue
            split = splits.get(current)
            if split is None:
                deadline.check()
                used = 0
                for term in current:
                    used |= term
                bit = used & -used
                if bit in current:
                    high = _EMPTY_TERM
                else:
                    high = frozenset([term & ~bit for term in current])
                low = frozenset([term for term in current if not term & bit])
                split = splits[current] = (bit, low, high)
            bit, low, high = split
            low_ref = refs.get(low)
            high_ref = refs.get(high)
            if low_ref is None:
                stack.append(low)
            if high_ref is None:
                stack.append(high)
            if low_ref is not None and high_ref is not None:
                refs[current] = self._node(bit.bit_length() - 1, low_ref, high_ref)
                stack.pop()
        return refs[terms]

    # -- analysis ----------------------------------------------------------

    def probability(
        self,
        ref: int,
        probs: Mapping[int, float],
        memo: dict[int, float] | None = None,
    ) -> float:
        """Probability that the function is true under independent variables.

        ``probs`` maps each reachable variable ordinal to its annotation.
        Pass a dict as ``memo`` to observe the per-node values of the
        traversal afterwards.
        """
        return self._weigh(ref, probs, {} if memo is None else memo, float)

    def exact_probability(self, ref: int, probs: Mapping[int, float]) -> Decimal:
        """``probability`` computed in ``decimal``, whose exponent range no product leaves.

        The float pass rounds a small but nonzero answer to 0; this one
        keeps 28 significant digits at any magnitude.
        """
        # Imported here, since only an answer that underflows needs it.
        from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

        with localcontext(Context(Emin=MIN_EMIN, Emax=MAX_EMAX)):
            return self._weigh(ref, probs, {}, Decimal)

    def _weigh(
        self, ref: int, probs: Mapping[int, float], memo: dict, number: Callable
    ) -> float | Decimal:
        """The probability pass, children first, in ``number`` arithmetic."""
        if ref <= TRUE_REF:
            return number(ref)
        entries = self._entries
        for r in self._postorder(ref):
            if r in memo:
                continue
            level, low, high = entries[r]
            try:
                p = probs[level]
            except KeyError:
                raise MissingProbabilityError(
                    f"no probability for variable ordinal {level}"
                ) from None
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p!r} outside [0, 1]")
            p = number(p)
            high_value = memo[high] if high > TRUE_REF else number(high)
            low_value = memo[low] if low > TRUE_REF else number(low)
            memo[r] = p * high_value + (1 - p) * low_value
        return memo[ref]

    def node_count(self, ref: int) -> int:
        """Number of distinct internal nodes reachable from ``ref``."""
        return len(self._postorder(ref))

    def complement(self, ref: int) -> int:
        """The diagram of the negated function (terminals swapped)."""
        memo: dict[int, int] = {FALSE_REF: TRUE_REF, TRUE_REF: FALSE_REF}
        for r in self._postorder(ref):
            level, low, high = self._entries[r]
            memo[r] = self._node(level, memo[low], memo[high])
        return memo[ref]

    def _postorder(self, ref: int) -> list[int]:
        """The internal nodes reachable from ``ref``, children first, low branch first.

        That is the order of a recursive post-order walk, kept with an
        explicit stack.
        """
        order: list[int] = []
        done = {FALSE_REF, TRUE_REF}
        entries = self._entries
        stack = [ref]
        while stack:
            r = stack[-1]
            if r in done:
                stack.pop()
                continue
            _, low, high = entries[r]
            if low not in done:
                stack.append(low)
            elif high not in done:
                stack.append(high)
            else:
                done.add(r)
                order.append(r)
                stack.pop()
        return order

    def to_dot(self, ref: int) -> str:
        """GraphViz text; the 0-branch is drawn dashed.

        Nodes are listed in depth-first pre-order, low branch first.
        """
        lines = [
            "digraph bdd {",
            '  f [shape=box, label="0"];',
            '  t [shape=box, label="1"];',
        ]
        name = {FALSE_REF: "f", TRUE_REF: "t"}
        order: list[int] = []
        seen: set[int] = set()
        stack = [ref]
        while stack:
            r = stack.pop()
            if r <= TRUE_REF or r in seen:
                continue
            seen.add(r)
            order.append(r)
            stack.append(self.high(r))
            stack.append(self.low(r))
        for r in order:
            name[r] = f"n{r}"
            lines.append(f'  n{r} [label="x{self.level(r) + 1}"];')
        for r in order:
            lines.append(f"  n{r} -> {name[self.high(r)]};")
            lines.append(f"  n{r} -> {name[self.low(r)]} [style=dashed];")
        lines.append("}")
        return "\n".join(lines) + "\n"
