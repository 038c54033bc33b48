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
