"""Probabilistic ALC reasoning over annotated knowledge bases.

Annotated axioms are independent Boolean choices; the probability of a
query is the total weight of the axiom subsets entailing it.  The package
decides entailment with a tracing tableau, enumerates all justifications
with a hitting set tree, compiles them into a monotone covering formula
and reads the exact probability off a reduced ordered binary decision
diagram.  A brute-force world enumeration engine serves as the
cross-checking reference.
"""

from .kb import (
    And,
    AnnotatedAxiom,
    Atomic,
    Axiom,
    BOTTOM,
    Bottom,
    Concept,
    ConceptAssertion,
    Exists,
    Forall,
    InstanceQuery,
    KnowledgeBase,
    Not,
    Or,
    Query,
    RoleAssertion,
    SubClassOf,
    SubsumptionQuery,
    TOP,
    Top,
    nnf,
    signature,
)
from .parser import ParseError, parse_kb, parse_query, serialize_kb
from .tableau import (
    Deadline,
    NotEntailedError,
    ResourceLimitError,
    entails,
    is_consistent,
    trace_entailment,
)
from .justify import CoveringSet, all_justifications, minimize, single_justification
from .pinpoint import formula_from_justifications, render_formula, satisfies
from .bdd import BddManager
from .semantics import (
    QueryResult,
    RunConfig,
    World,
    WorldLimitError,
    enumerate_worlds,
    probability_bruteforce,
    probability_query,
)
from .generators import chain_query, generate_synthetic, random_kb

__version__ = "0.1.0"

__all__ = [
    "And",
    "AnnotatedAxiom",
    "Atomic",
    "Axiom",
    "BOTTOM",
    "BddManager",
    "Bottom",
    "Concept",
    "ConceptAssertion",
    "CoveringSet",
    "Deadline",
    "Exists",
    "Forall",
    "InstanceQuery",
    "KnowledgeBase",
    "Not",
    "NotEntailedError",
    "Or",
    "ParseError",
    "Query",
    "QueryResult",
    "ResourceLimitError",
    "RoleAssertion",
    "RunConfig",
    "SubClassOf",
    "SubsumptionQuery",
    "TOP",
    "Top",
    "World",
    "WorldLimitError",
    "all_justifications",
    "chain_query",
    "entails",
    "enumerate_worlds",
    "formula_from_justifications",
    "generate_synthetic",
    "is_consistent",
    "minimize",
    "nnf",
    "parse_kb",
    "parse_query",
    "probability_bruteforce",
    "probability_query",
    "random_kb",
    "render_formula",
    "satisfies",
    "serialize_kb",
    "signature",
    "single_justification",
    "trace_entailment",
]
