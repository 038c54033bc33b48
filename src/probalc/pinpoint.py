"""Monotone covering formulas over the probabilistic axiom variables.

The covering set of a query compiles into a negation-free DNF: one
disjunct per justification, one variable per annotated axiom appearing in
it.  Variables are the ordinals of the knowledge base's probabilistic
view, so variable i always talks about the i-th annotated axiom, and a
formula holds one shared ``Var`` object per ordinal.  Certain
axioms hold in every world and are dropped; a justification made of
certain axioms only therefore makes the whole formula True.  No other
simplification is performed, the diagram construction downstream handles
sharing and redundancy.  ``term_masks`` gives the diagram compiler a
formula's terms as bitmasks of ordinals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from .kb import KnowledgeBase


class Formula:
    """Base class for monotone Boolean formulas."""

    __slots__ = ()


@dataclass(frozen=True)
class Var(Formula):
    ordinal: int


@dataclass(frozen=True)
class Conj(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class Disj(Formula):
    parts: tuple[Formula, ...]


@dataclass(frozen=True)
class TrueFormula(Formula):
    pass


@dataclass(frozen=True)
class FalseFormula(Formula):
    pass


TRUE = TrueFormula()
FALSE = FalseFormula()

# A valuation picks the ordinals whose axioms are included in a world.
Valuation = Collection[int]


def formula_from_justifications(
    covering, kb: KnowledgeBase
) -> Formula:
    """DNF with one disjunct per justification, certain axioms dropped.

    ``covering`` may be a CoveringSet or any iterable of index sets.
    Disjuncts are emitted in ascending index-tuple order and conjuncts in
    ascending ordinal order, so equal inputs give the identical formula.
    Ordinals follow index order, so a term is read off its index tuple.
    """
    justifications = getattr(covering, "justifications", covering)
    ordinal_of = kb.ordinal_of
    var: dict[int, Var] = {}
    terms: list[Formula] = []
    for indices in sorted([tuple(sorted(just)) for just in justifications]):
        parts = []
        for i in indices:
            o = ordinal_of.get(i)
            if o is not None:
                v = var.get(o)
                if v is None:
                    v = var[o] = Var(o)
                parts.append(v)
        if not parts:
            # Certain axioms alone entail the query: true in every world.
            return TRUE
        terms.append(parts[0] if len(parts) == 1 else Conj(tuple(parts)))
    if not terms:
        return FALSE
    if len(terms) == 1:
        return terms[0]
    return Disj(tuple(terms))


class _Combine:
    """Marks where the parts of a Conj or Disj are joined in ``term_masks``."""

    __slots__ = ("kind", "count")

    def __init__(self, kind: type, count: int):
        self.kind = kind
        self.count = count


def term_masks(formula: Formula, var_count: int) -> frozenset[int]:
    """The formula as a DNF: one bitmask of variable ordinals per term.

    True is ``{0}`` (the empty term) and False the empty set.  A
    conjunction over disjunctions is multiplied out, which can grow
    exponentially; the covering formulas this module builds are DNFs
    already, for which this is linear.  Walked with an explicit stack.
    Raises ValueError for an ordinal outside ``0..var_count - 1``.
    """
    done: list[list[int]] = []
    todo: list = [formula]
    while todo:
        item = todo.pop()
        t = type(item)
        if t is Var:
            ordinal = item.ordinal
            if not 0 <= ordinal < var_count:
                raise _out_of_range(ordinal, var_count)
            done.append([1 << ordinal])
        elif t is Conj or t is Disj:
            if t is Conj:
                # The common case, a conjunction of variables, is one term.
                mask = 0
                for part in item.parts:
                    if type(part) is not Var:
                        break
                    ordinal = part.ordinal
                    if not 0 <= ordinal < var_count:
                        raise _out_of_range(ordinal, var_count)
                    mask |= 1 << ordinal
                else:
                    done.append([mask])
                    continue
            # Combine the parts' term lists once all of them are done.
            todo.append(_Combine(t, len(item.parts)))
            todo.extend(item.parts)
        elif t is _Combine:
            parts = done[len(done) - item.count:]
            del done[len(done) - item.count:]
            if item.kind is Disj:
                done.append([term for part in parts for term in part])
            else:
                product = [0]
                for part in parts:
                    product = [a | b for a in product for b in part]
                done.append(product)
        elif t is TrueFormula:
            done.append([0])
        elif t is FalseFormula:
            done.append([])
        else:
            raise TypeError(f"not a formula: {item!r}")
    return frozenset(done[0])


def _out_of_range(ordinal: int, var_count: int) -> ValueError:
    return ValueError(f"variable ordinal {ordinal} outside 0..{var_count - 1}")


def satisfies(formula: Formula, valuation: Valuation) -> bool:
    """Evaluate under the valuation that makes exactly these ordinals true."""
    chosen = valuation if isinstance(valuation, (set, frozenset)) else frozenset(valuation)
    return _eval(formula, chosen)


def _eval(formula: Formula, chosen) -> bool:
    t = type(formula)
    if t is Var:
        return formula.ordinal in chosen
    if t is Conj:
        return all(_eval(p, chosen) for p in formula.parts)
    if t is Disj:
        return any(_eval(p, chosen) for p in formula.parts)
    if t is TrueFormula:
        return True
    if t is FalseFormula:
        return False
    raise TypeError(f"not a formula: {formula!r}")


def render_formula(formula: Formula) -> str:
    """Text form like ``(x1 & x2) | (x1 & x3)``; variables print 1-based."""
    t = type(formula)
    if t is TrueFormula:
        return "true"
    if t is FalseFormula:
        return "false"
    return _render(formula, top=True)


def _render(formula: Formula, top: bool = False) -> str:
    t = type(formula)
    if t is Var:
        return f"x{formula.ordinal + 1}"
    if t is Conj:
        text = " & ".join(_render(p) for p in formula.parts)
        return text if top else f"({text})"
    if t is Disj:
        text = " | ".join(_render(p) for p in formula.parts)
        return text if top else f"({text})"
    if t is TrueFormula:
        return "true"
    if t is FalseFormula:
        return "false"
    raise TypeError(f"not a formula: {formula!r}")
