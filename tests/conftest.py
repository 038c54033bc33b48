"""Shared fixtures: the storyline example KBs and hypothesis settings."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from probalc.parser import parse_kb, parse_query

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

# Four axioms about a literary crime.  Axiom indices in file order; the
# annotated view sees ordinals 0 (0.2), 1 (0.6) and 2 (0.7).
CRIME_TEXT = """\
0.2 :: Nihilist <= GreatMan
exists killed. Top <= Nihilist
0.6 :: (raskolnikov, alyona) : killed
0.7 :: (raskolnikov, lizaveta) : killed
"""

# Same axioms without annotations, for plain entailment work.
CRIME_CERTAIN_TEXT = """\
Nihilist <= GreatMan
exists killed. Top <= Nihilist
(raskolnikov, alyona) : killed
(raskolnikov, lizaveta) : killed
"""

CRIME_QUERY_TEXT = "raskolnikov : GreatMan"


@pytest.fixture(scope="session")
def crime_kb():
    return parse_kb(CRIME_TEXT)


@pytest.fixture(scope="session")
def crime_certain_kb():
    return parse_kb(CRIME_CERTAIN_TEXT)


@pytest.fixture(scope="session")
def crime_query():
    return parse_query(CRIME_QUERY_TEXT)


def branching_family(n: int, p: float = 0.9):
    """The branching family of size n, with its closed-form answer.

    ``p :: Ai <= Bi or Ci``, ``p :: Bi <= A(i+1)`` and ``p :: Ci <= A(i+1)``
    for each i < n, queried with ``A0 <= An``.  Refuting it branches once
    per i and closes all 2^n branches, and every clash derives ``An``
    through every branch point above it, so backjumping prunes none.  The
    query's one justification is all 3n axioms, so P = p^(3n).

    Returns ``(kb, query, justification, probability)``.
    """
    lines = []
    for i in range(n):
        lines += [
            f"{p} :: A{i} <= B{i} or C{i}",
            f"{p} :: B{i} <= A{i + 1}",
            f"{p} :: C{i} <= A{i + 1}",
        ]
    kb = parse_kb("\n".join(lines) + "\n")
    return kb, parse_query(f"A0 <= A{n}"), frozenset(range(3 * n)), p ** (3 * n)


def witness_depth_family(n: int, p: float = 0.9):
    """The witness-depth family of size n, with its closed-form answer.

    ``p :: Ai <= exists r. A(i+1)`` for each i < n and ``p :: An <= Bottom``,
    queried with ``A0 <= Bottom``.  An element of A0 needs an r-successor
    in A1, which needs one in A2, and so on down to one in An, which no
    element can be: so A0 is empty when all n+1 axioms hold.  Without
    ``Ai <= exists r. A(i+1)`` a chain of i+1 elements stopping at Ai is a
    model with A0 nonempty, and without ``An <= Bottom`` the whole chain of
    n+1 elements is one.  So the query's one justification is all n+1
    axioms, P = p^(n+1), and refuting it builds the query's graph and one
    witness graph per level, n in all, whose traces it carries through.

    Returns ``(kb, query, justification, probability)``.
    """
    lines = [f"{p} :: A{i} <= exists r. A{i + 1}" for i in range(n)]
    lines.append(f"{p} :: A{n} <= Bottom")
    kb = parse_kb("\n".join(lines) + "\n")
    return kb, parse_query("A0 <= Bottom"), frozenset(range(n + 1)), p ** (n + 1)


def ex_falso_family(k: int):
    """The ex falso family of size k, with its closed-form answer.

    For each j < k, axiom 2j is ``p_j :: cj : Dj`` with p_j = (j+1)/(k+1)
    and axiom 2j+1 is the certain ``cj : not Dj``, queried with ``q : Q``.
    No axiom names q or Q, so the query holds only in the worlds that are
    inconsistent, and a world is inconsistent exactly when it chooses some
    ``cj : Dj``, each clashing with its own certain complement and nothing
    else.  So the justifications are the k pairs {2j, 2j+1}, the same as
    those of ``Top <= Bottom``, and P = 1 - prod_j (1 - p_j).  The hitting
    set tree removes one axiom of one pair per level, so it is a full
    binary tree of depth k with 2^(k+1) - 1 nodes.

    Returns ``(kb, query, justifications, probability)``.
    """
    lines = []
    consistent = 1.0
    for j in range(k):
        p = (j + 1) / (k + 1)
        lines += [f"{p!r} :: c{j} : D{j}", f"c{j} : not D{j}"]
        consistent *= 1 - p
    kb = parse_kb("\n".join(lines) + "\n")
    justifications = frozenset(frozenset({2 * j, 2 * j + 1}) for j in range(k))
    return kb, parse_query("q : Q"), justifications, 1 - consistent
