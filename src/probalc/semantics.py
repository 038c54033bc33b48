"""Distribution semantics over annotated knowledge bases.

Each annotated axiom is an independent Boolean choice.  A world fixes
every choice; its axiom set is the certain axioms plus the chosen ones,
and its probability is the product of the chosen annotations and the
complements of the dropped ones.  The probability of a query is the total
weight of the worlds entailing it.

Two engines compute that number.  The reference engine enumerates every
world and asks the tableau; it is exponential in the number of annotated
axioms and refuses more than ``WORLD_LIMIT`` of them.  The pipeline
engine compiles the covering set of justifications into a monotone DNF,
builds its decision diagram and reads the probability off the diagram in
one pass.  Both compute in floats, and again in ``decimal`` when the floats
underflow to 0.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterator

from .bdd import FALSE_REF, BddManager
from .justify import METHODS, CoveringSet, all_justifications
from .kb import KnowledgeBase, Query
from .pinpoint import Formula, formula_from_justifications
from .tableau import NO_DEADLINE, CompiledKB, Deadline, ResourceLimitError, entails

if TYPE_CHECKING:
    from decimal import Decimal

# The most annotated axioms whose worlds the reference engine enumerates.
WORLD_LIMIT = 20
ENGINES = ("bdd", "bruteforce")


class WorldLimitError(ResourceLimitError):
    """Too many annotated axioms for exhaustive world enumeration."""


@dataclass(frozen=True)
class World:
    """A total choice; bits[i] tells whether ordinal i's axiom is included."""

    bits: tuple[int, ...]

    def axiom_indices(self, kb: KnowledgeBase) -> tuple[int, ...]:
        chosen = {
            idx for idx, bit in zip(kb.prob_indices, self.bits) if bit
        }
        return tuple(
            i for i in range(len(kb)) if i in chosen or kb.axioms[i].certain
        )


def _check_world_limit(kb: KnowledgeBase) -> None:
    """Raise WorldLimitError when the KB has more than ``WORLD_LIMIT`` annotated axioms."""
    m = len(kb.prob_indices)
    if m > WORLD_LIMIT:
        raise WorldLimitError(f"{m} annotated axioms exceed the enumeration cap of {WORLD_LIMIT}")


def enumerate_worlds(kb: KnowledgeBase) -> Iterator[tuple[World, float]]:
    """All 2**m worlds with their probabilities; weights sum to 1.

    The world at position k, counting from 0, includes ordinal i's axiom
    when bit i of k is set.

    Raises WorldLimitError when the KB has more than ``WORLD_LIMIT``
    annotated axioms.
    """
    _check_world_limit(kb)
    probs = kb.probabilities
    m = len(probs)
    for mask in range(1 << m):
        bits = tuple((mask >> i) & 1 for i in range(m))
        weight = math.prod(
            probs[i] if bit else 1.0 - probs[i] for i, bit in enumerate(bits)
        )
        yield World(bits), weight


def probability_bruteforce(
    kb: KnowledgeBase, query: Query, *, deadline: Deadline = NO_DEADLINE
) -> float:
    """Reference answer: sum the weights of the worlds entailing the query."""
    return _bruteforce(kb, query, deadline)[0]


def _bruteforce(
    kb: KnowledgeBase, query: Query, deadline: Deadline
) -> tuple[float, Decimal | None]:
    """The float sum of the entailing worlds' weights, and its ``decimal`` value when it underflows.

    A sum of weights is 0 only when every entailing world's float weight
    is, so only those worlds are kept, as their positions in the
    enumeration (whose bit i is ordinal i's choice), and only while the
    sum stays 0.  The second value is None unless they weigh more than 0 in
    ``decimal``.  The KB is compiled once, and each world is asked about
    as the mask of its certain and chosen axioms.
    """
    compiled = CompiledKB(kb.indexed())
    certain = sum(1 << i for i in kb.certain_indices)
    total = 0.0
    underflowed: list[int] = []
    for position, (world, weight) in enumerate(enumerate_worlds(kb)):
        deadline.check()
        chosen = sum(1 << i for i, bit in zip(kb.prob_indices, world.bits) if bit)
        if entails(compiled, query, mask=certain | chosen, deadline=deadline):
            total += weight
            if not total:
                underflowed.append(position)
    if total or not underflowed:
        return total, None
    # Imported here, since only an answer that underflows needs it.
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext

    probs = [Decimal(p) for p in kb.probabilities]
    with localcontext(Context(Emin=MIN_EMIN, Emax=MAX_EMAX)):
        exact = sum(
            math.prod(p if position >> i & 1 else 1 - p for i, p in enumerate(probs))
            for position in underflowed
        )
    return total, exact or None


@dataclass(frozen=True)
class RunConfig:
    """Settings of one query run; each layer keeps its own default budget."""

    method: str = "glassbox"
    engine: str = "bdd"
    timeout_s: float = 600.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        # Written so that NaN, which compares false with everything, fails too.
        if not self.timeout_s > 0:
            raise ValueError("timeout_s must be positive")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class QueryResult:
    """The answer with what it was computed from; ``root`` lives in ``manager``.

    ``exact`` is the probability in ``decimal`` when the float answer
    rounded a nonzero one to 0, and None otherwise; the diagram's pass or
    the world sum gives it, as the engine does the float answer.
    """

    probability: float
    covering: CoveringSet
    formula: Formula
    manager: BddManager
    root: int
    bdd_nodes: int
    time_ms: float
    method: str
    engine: str
    exact: Decimal | None = None


def probability_query(
    kb: KnowledgeBase, query: Query, config: RunConfig | None = None
) -> QueryResult:
    """Full pipeline: justifications, covering formula, diagram, probability.

    The diagram is built once, with either engine, and returned on the
    result.  With ``engine="bruteforce"`` the probability comes from world
    enumeration instead of the diagram, and ``bdd_nodes`` stays 0.  A
    query entailed in no world yields probability 0 with an empty covering
    set.  The bruteforce engine refuses a KB over the enumeration cap
    before anything else runs.  ``config.timeout_s`` bounds the
    justification search, the diagram compilation and the enumeration.
    """
    if config is None:
        config = RunConfig()
    if config.engine == "bruteforce":
        # Refuse before the search, whose work enumeration would not use.
        _check_world_limit(kb)
    started = time.monotonic()
    deadline = Deadline.after(config.timeout_s)
    covering = all_justifications(kb, query, config.method, deadline=deadline)
    formula = formula_from_justifications(covering, kb)
    manager = BddManager(len(kb.prob_indices))
    root = manager.build(formula, deadline=deadline)
    exact = None
    if config.engine == "bdd":
        probs = dict(enumerate(kb.probabilities))
        probability = manager.probability(root, probs)
        if probability == 0.0 and root != FALSE_REF:
            exact = manager.exact_probability(root, probs) or None
        bdd_nodes = manager.node_count(root)
    else:
        probability, exact = _bruteforce(kb, query, deadline=deadline)
        bdd_nodes = 0
    elapsed_ms = (time.monotonic() - started) * 1000.0
    return QueryResult(
        probability=probability,
        covering=covering,
        formula=formula,
        manager=manager,
        root=root,
        bdd_nodes=bdd_nodes,
        time_ms=elapsed_ms,
        method=config.method,
        engine=config.engine,
        exact=exact,
    )
