"""Core model for annotated ALC knowledge bases.

Concept expressions, axioms, probability annotations and queries are
immutable tagged unions built from frozen dataclasses; concepts compare,
hash and print without recursing, at any depth.  A knowledge base is an
ordered list of annotated axioms; the 0-based list position of an axiom
is its identity everywhere downstream (justifications, formula
variables, diagram levels), so the order is never shuffled.  The
probabilistic view preserves list order as well: the i-th annotated axiom
in list order is "ordinal" i, which doubles as the diagram variable order.

Everything here is immutable after construction and safe to share across
concurrent readers.  The model is plain data: what the reasoner makes of
an axiom or a query (negation normal form included) is decided where it
compiles them, in ``tableau.CompiledKB``.  ``nnf`` stays here as the
reference normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union


# ---------------------------------------------------------------------------
# Concept expressions


class Concept:
    """Base class for ALC concept expressions.

    Concepts compare, hash and print by walking an explicit stack, so a
    concept of any depth does all three.  Two concepts are equal when
    their flat keys are: the class names and the names or roles of the
    concept in pre-order.  The classes' fixed arities make that order
    decode to one tree, and class names rather than classes keep a hash
    reproducible under a fixed ``PYTHONHASHSEED``.  ``repr`` prints what
    a dataclass ``repr`` would.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        key = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, Concept):
                key.append(type(item).__name__)
                for field in reversed(item.__match_args__):
                    stack.append(getattr(item, field))
            else:
                key.append(item)
        return tuple(key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Concept):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        parts: list[str] = []
        # Text to print waits on the stack as str, a field's concept as itself.
        stack: list = [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                parts.append(item)
                continue
            fields = item.__match_args__
            parts.append(f"{type(item).__qualname__}(")
            stack.append(")")
            for at in range(len(fields) - 1, -1, -1):
                value = getattr(item, fields[at])
                stack.append(value if isinstance(value, Concept) else repr(value))
                stack.append(f"{', ' if at else ''}{fields[at]}=")
        return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False)
class Atomic(Concept):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Top(Concept):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Bottom(Concept):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Not(Concept):
    arg: Concept


@dataclass(frozen=True, eq=False, repr=False)
class And(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True, eq=False, repr=False)
class Or(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True, eq=False, repr=False)
class Exists(Concept):
    role: str
    filler: Concept


@dataclass(frozen=True, eq=False, repr=False)
class Forall(Concept):
    role: str
    filler: Concept


TOP = Top()
BOTTOM = Bottom()


# ---------------------------------------------------------------------------
# Axioms


class Axiom:
    """Base class for axioms: concept inclusions and ABox assertions."""

    __slots__ = ()


@dataclass(frozen=True)
class SubClassOf(Axiom):
    sub: Concept
    sup: Concept


@dataclass(frozen=True)
class ConceptAssertion(Axiom):
    individual: str
    concept: Concept

    def __post_init__(self) -> None:
        if not self.individual:
            raise ValueError("individual name must be non-empty")


@dataclass(frozen=True)
class RoleAssertion(Axiom):
    subject: str
    object: str
    role: str

    def __post_init__(self) -> None:
        if not (self.subject and self.object and self.role):
            raise ValueError("individual and role names must be non-empty")


@dataclass(frozen=True)
class AnnotatedAxiom:
    """An axiom plus an optional probability annotation.

    ``probability is None`` means the axiom is certain (present in every
    world).  A probability of exactly 1.0 is kept as an annotation: the
    axiom still owns a Boolean variable, so variable indexing stays stable
    no matter the annotated value.
    """

    axiom: Axiom
    probability: float | None = None

    def __post_init__(self) -> None:
        p = self.probability
        if p is not None and not (0.0 <= p <= 1.0):
            raise ValueError(f"probability {p!r} outside [0, 1]")

    @property
    def certain(self) -> bool:
        return self.probability is None


# ---------------------------------------------------------------------------
# Queries


@dataclass(frozen=True)
class InstanceQuery:
    """Is the individual a member of the concept?"""

    individual: str
    concept: Concept


@dataclass(frozen=True)
class SubsumptionQuery:
    """Is every member of ``sub`` a member of ``sup``?"""

    sub: Concept
    sup: Concept


Query = Union[InstanceQuery, SubsumptionQuery]

# Reserved individual used to reduce subsumption to unsatisfiability.  The
# leading "@" cannot appear in a name produced by the textual format, so it
# can never collide with an individual of a parsed knowledge base.
FRESH_INDIVIDUAL = "@query"


# ---------------------------------------------------------------------------
# Knowledge base


@dataclass(frozen=True)
class KnowledgeBase:
    axioms: tuple[AnnotatedAxiom, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "axioms", tuple(self.axioms))

    def __len__(self) -> int:
        return len(self.axioms)

    def __iter__(self):
        return iter(self.axioms)

    @cached_property
    def certain_indices(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.axioms) if a.certain)

    @cached_property
    def prob_indices(self) -> tuple[int, ...]:
        """Axiom indices of the annotated axioms, in list order (= ordinal order)."""
        return tuple(i for i, a in enumerate(self.axioms) if not a.certain)

    @cached_property
    def probabilities(self) -> tuple[float, ...]:
        """Annotation values by ordinal."""
        return tuple(self.axioms[i].probability for i in self.prob_indices)

    @cached_property
    def ordinal_of(self) -> dict[int, int]:
        """Map from axiom index to ordinal in the probabilistic view."""
        return {idx: ordinal for ordinal, idx in enumerate(self.prob_indices)}

    def axiom(self, index: int) -> Axiom:
        return self.axioms[index].axiom

    def axioms_at(self, indices: Iterable[int]) -> list[Axiom]:
        return [self.axioms[i].axiom for i in sorted(indices)]

    def indexed(self, indices: Iterable[int] | None = None) -> list[tuple[int, Axiom]]:
        """(index, axiom) pairs in ascending index order."""
        if indices is None:
            return [(i, a.axiom) for i, a in enumerate(self.axioms)]
        return [(i, self.axioms[i].axiom) for i in sorted(indices)]

    @cached_property
    def vocabulary(self) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        """(concept names, role names, individuals) over the whole KB."""
        concepts: set[str] = set()
        roles: set[str] = set()
        individuals: set[str] = set()
        for a in self.axioms:
            c, r, i = vocabulary(a.axiom)
            concepts |= c
            roles |= r
            individuals |= i
        return frozenset(concepts), frozenset(roles), frozenset(individuals)


# ---------------------------------------------------------------------------
# Negation normal form


def nnf(c: Concept) -> Concept:
    """Equivalent concept with negation only directly above atomic names.

    Duals of Top and Bottom are resolved; no other normalization happens
    (conjunct order, nesting and duplicates are preserved), so structural
    equality of normal forms stays meaningful for clash detection.

    The concept is walked with an explicit stack whose entries carry a
    polarity: ``Not`` flips it, and under negation And and Or, Exists and
    Forall, and Top and Bottom swap, and an atom becomes its negation.  A
    binary concept or a quantifier waits on the stack as its class, with
    its role, until its children are done.
    """
    done: list[Concept] = []
    stack: list = [(c, True)]
    while stack:
        item, arg = stack.pop()
        t = type(item)
        if t is type:
            # A class whose children are done; ``arg`` is its role, or None.
            if arg is None:
                right = done.pop()
                done.append(item(done.pop(), right))
            else:
                done.append(item(arg, done.pop()))
        elif t is Atomic:
            done.append(item if arg else Not(item))
        elif t is Top or t is Bottom:
            done.append(item if arg else (BOTTOM if t is Top else TOP))
        elif t is Not:
            stack.append((item.arg, not arg))
        elif t is And or t is Or:
            stack.append((t if arg else (And if t is Or else Or), None))
            stack.append((item.right, arg))
            stack.append((item.left, arg))
        elif t is Exists or t is Forall:
            stack.append((t if arg else (Exists if t is Forall else Forall), item.role))
            stack.append((item.filler, arg))
        else:
            raise TypeError(f"not a concept: {item!r}")
    return done[0]


# ---------------------------------------------------------------------------
# Syntactic signatures


def vocabulary(axiom: Axiom) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(concept names, role names, individuals) occurring in the axiom."""
    concepts: set[str] = set()
    roles: set[str] = set()
    individuals: set[str] = set()
    if isinstance(axiom, SubClassOf):
        _collect(axiom.sub, concepts, roles)
        _collect(axiom.sup, concepts, roles)
    elif isinstance(axiom, ConceptAssertion):
        individuals.add(axiom.individual)
        _collect(axiom.concept, concepts, roles)
    elif isinstance(axiom, RoleAssertion):
        individuals.update((axiom.subject, axiom.object))
        roles.add(axiom.role)
    else:
        raise TypeError(f"not an axiom: {axiom!r}")
    return frozenset(concepts), frozenset(roles), frozenset(individuals)


def signature(item: Axiom | Query) -> frozenset[str]:
    """All names syntactically occurring in an axiom or a query, kinds merged."""
    if isinstance(item, InstanceQuery):
        item = ConceptAssertion(item.individual, item.concept)
    elif isinstance(item, SubsumptionQuery):
        item = SubClassOf(item.sub, item.sup)
    concepts, roles, individuals = vocabulary(item)
    return concepts | roles | individuals


def _collect(c: Concept, concepts: set[str], roles: set[str]) -> None:
    """Add the names under ``c``, walking an explicit stack."""
    stack = [c]
    while stack:
        c = stack.pop()
        t = type(c)
        if t is Atomic:
            concepts.add(c.name)
        elif t is Not:
            stack.append(c.arg)
        elif t is And or t is Or:
            stack.append(c.right)
            stack.append(c.left)
        elif t is Exists or t is Forall:
            roles.add(c.role)
            stack.append(c.filler)
        # Top and Bottom contribute nothing
