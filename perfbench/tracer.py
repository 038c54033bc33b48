"""Spans around the public entry points of each probalc layer.

The tracer wraps the functions one layer calls in the next, at the names
the calling module looks up, so no file of the library changes:

- ``parser``: ``probalc.parse_kb`` and ``probalc.parse_query``, as the
  benchmark calls them;
- ``semantics``: ``probalc.probability_query``;
- ``justify``: ``all_justifications``, as ``semantics`` calls it;
- ``tableau``: ``entails`` and ``trace_entailment``, as ``justify`` calls
  them;
- ``pinpoint``: ``formula_from_justifications``, as ``semantics`` calls it;
- ``bdd``: ``BddManager.build``, ``.probability`` and ``.node_count``.

Spans are kept in memory; ``write`` saves them at the end of a run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


class TracerError(RuntimeError):
    """The spans disagree with what the library reports about itself."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    query: int
    error: str | None  # exception type name when the call raised
    value: object  # what the span's measure extracted from the result

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _terms(formula) -> int:
    from probalc.pinpoint import Disj, FalseFormula

    if isinstance(formula, Disj):
        return len(formula.parts)
    return 0 if isinstance(formula, FalseFormula) else 1


def _covering(covering) -> tuple[int, int]:
    return covering.hst_nodes, len(covering)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        # Number of the query being sent; the caller advances it.
        self.query = -1
        self._open: list[int] = []

    def _wrap(self, name: str, func, measure=None, outermost=False):
        def traced(*args, **kwargs):
            if outermost and self._open and self.spans[self._open[-1]].name == name:
                return func(*args, **kwargs)
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.query, None, None)
            self.spans.append(span)
            self._open.append(index)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if measure is not None:
                span.value = measure(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced entry point; restore the originals on exit."""
        import probalc
        from probalc import bdd, justify, semantics

        targets = [
            (probalc, "parse_kb", "parser.parse_kb", None, False),
            (probalc, "parse_query", "parser.parse_query", None, False),
            (probalc, "probability_query", "semantics.probability_query", None, False),
            (semantics, "all_justifications", "justify.all_justifications", _covering, False),
            (justify, "entails", "tableau.entails", None, False),
            (justify, "trace_entailment", "tableau.trace_entailment", None, False),
            (semantics, "formula_from_justifications", "pinpoint.formula_from_justifications", _terms, False),
            # build recurses through itself: only the outermost call is a span.
            (bdd.BddManager, "build", "bdd.build", None, True),
            (bdd.BddManager, "probability", "bdd.probability", None, False),
            (bdd.BddManager, "node_count", "bdd.node_count", int, False),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in targets]
        try:
            for owner, attr, name, measure, outermost in targets:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), measure, outermost))
            yield self
        finally:
            for owner, attr, func in originals:
                setattr(owner, attr, func)

    def self_check(self, answers: dict[int, object]) -> None:
        """Compare the spans of each answered query with what it returned.

        ``answers`` maps query numbers to records with the ``tableau_calls``
        of the covering set and the result's ``bdd_nodes``.  A call path
        the tracer misses shows up as a count that disagrees with them.
        """
        calls: dict[int, int] = {}
        nodes: dict[int, int] = {}
        for span in self.spans:
            if span.layer == "tableau":
                calls[span.query] = calls.get(span.query, 0) + 1
            elif span.name == "bdd.node_count":
                nodes[span.query] = nodes.get(span.query, 0) + span.value
        for query, answer in answers.items():
            if calls.get(query, 0) != answer.tableau_calls:
                raise TracerError(
                    f"query {query}: {calls.get(query, 0)} tableau spans, "
                    f"but the covering set counts {answer.tableau_calls} calls"
                )
            if nodes.get(query) != answer.bdd_nodes:
                raise TracerError(
                    f"query {query}: bdd.node_count span gave {nodes.get(query)}, "
                    f"but the result has {answer.bdd_nodes} nodes"
                )

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent, query, error."""
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start, s.end, s.parent, s.query, s.error]) + "\n")


# Per-layer metrics that are counts; they must repeat exactly from pass to
# pass and from run to run with the same seed.
COUNTS = (
    "tableau.calls",
    "tableau.entails_calls",
    "tableau.trace_calls",
    "tableau.budget_exhausted",
    "justify.hst_nodes",
    "justify.justifications",
    "pinpoint.terms",
    "bdd.nodes",
)


def _counts(spans: list[Span]) -> dict[str, int]:
    counts = dict.fromkeys(COUNTS, 0)
    for s in spans:
        if s.layer == "tableau":
            counts["tableau.calls"] += 1
            counts["tableau.entails_calls" if s.name == "tableau.entails" else "tableau.trace_calls"] += 1
            counts["tableau.budget_exhausted"] += s.error == "ResourceLimitError"
        elif s.name == "justify.all_justifications" and s.value is not None:
            counts["justify.hst_nodes"] += s.value[0]
            counts["justify.justifications"] += s.value[1]
        elif s.name == "pinpoint.formula_from_justifications" and s.value is not None:
            counts["pinpoint.terms"] += s.value
        elif s.name == "bdd.node_count" and s.value is not None:
            counts["bdd.nodes"] += s.value
    return counts


def per_layer(spans: list[Span], passes: int, queries_per_pass: int, overhead_ratio: float) -> dict:
    """Per-layer metrics of one pass over the workload: name -> (value, unit).

    Counts come from the first pass, after checking that every pass made
    the same ones; times are means over the passes.
    """
    by_pass: list[list[Span]] = [[] for _ in range(passes)]
    for s in spans:
        by_pass[s.query // queries_per_pass].append(s)
    counts = [_counts(group) for group in by_pass]
    for number, other in enumerate(counts[1:], 2):
        if other != counts[0]:
            raise TracerError(f"pass {number} counted {other}, pass 1 counted {counts[0]}")
    first = counts[0]

    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.duration
    for i, s in enumerate(spans):
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        busy[s.layer] = busy.get(s.layer, 0.0) + s.duration
        own[s.layer] = own.get(s.layer, 0.0) + s.duration - children[i]

    def per_pass(seconds: float) -> float:
        return seconds / passes

    metrics = {name: (value, "count") for name, value in first.items()}
    calls = first["tableau.calls"]
    metrics.update({
        "tableau.busy_s": (per_pass(busy.get("tableau", 0.0)), "s"),
        "tableau.call_mean_ms": (busy.get("tableau", 0.0) / max(1, calls * passes) * 1000.0, "ms"),
        "justify.calls_per_justification": (calls / max(1, first["justify.justifications"]), "ratio"),
        "justify.busy_s": (per_pass(busy.get("justify", 0.0)), "s"),
        "justify.self_s": (per_pass(own.get("justify", 0.0)), "s"),
        "parser.busy_s": (per_pass(busy.get("parser", 0.0)), "s"),
        "semantics.self_s": (per_pass(own.get("semantics", 0.0)), "s"),
        "pinpoint.busy_s": (per_pass(busy.get("pinpoint", 0.0)), "s"),
        "bdd.build_s": (per_pass(busy.get("bdd.build", 0.0)), "s"),
        "bdd.probability_s": (per_pass(busy.get("bdd.probability", 0.0)), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    })
    return metrics
