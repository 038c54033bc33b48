"""Textual format for annotated knowledge bases and queries.

One axiom per line, optionally prefixed with a probability::

    0.2 :: Nihilist <= GreatMan
    exists killed. Top <= Nihilist
    0.6 :: (raskolnikov, alyona) : killed
    # comments run to end of line

Concepts use the keywords ``Top``, ``Bottom``, ``not``, ``and``, ``or``,
``exists`` and ``forall``; ``not`` binds tighter than ``and``, which binds
tighter than ``or``, and a quantifier's filler extends only to the next
binary operator.  Chains of one operator parse right-nested.  Serialized
output round-trips to a structurally identical knowledge base, including
the axiom order and therefore the axiom indices.
"""

from __future__ import annotations

import re
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
)


class ParseError(ValueError):
    """Syntax error with a 1-based line and column pointing into the input."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


_KEYWORDS = frozenset({"not", "and", "or", "exists", "forall", "Top", "Bottom"})

# Every character starts a match, the last alternative catching the ones
# no token starts with, so one ``finditer`` covers the whole text.
_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<dcolon>::)
    | (?P<subsume><=)
    | (?P<colon>:)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<comma>,)
    | (?P<dot>\.)
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str, line_no: int) -> list[tuple[str, str, int]]:
    """``(kind, text, column)`` tuples, a keyword's kind being the keyword.

    Three ``end`` tokens close the list, at the column after the last
    non-blank character: lookahead reaches two tokens past a position
    that is at most the first of them.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        value = m.group()
        if kind == "name":
            if value in _KEYWORDS:
                kind = value
        elif kind == "bad":
            raise ParseError(line_no, m.start() + 1, f"unexpected character {value!r}")
        tokens.append((kind, value, m.start() + 1))
    tokens.extend([("end", "", len(text.rstrip()) + 1)] * 3)
    return tokens


_QUANTIFIERS = {"exists": Exists, "forall": Forall}
_CONSTANTS = {"Top": TOP, "Bottom": BOTTOM}


class _LineParser:
    def __init__(self, text: str, line_no: int):
        self.tokens = _tokenize(text, line_no)
        self.line = line_no
        self.pos = 0

    def peek(self, ahead: int = 0) -> str:
        """The kind of the token ``ahead`` places past the position."""
        return self.tokens[self.pos + ahead][0]

    def take(self) -> str:
        """The text of the current token, moving past it."""
        self.pos += 1
        return self.tokens[self.pos - 1][1]

    def error(self, message: str, ahead: int = 0) -> ParseError:
        return ParseError(self.line, self.tokens[self.pos + ahead][2], message)

    def expect(self, kind: str, what: str) -> str:
        if self.peek() != kind:
            raise self.error(f"expected {what}")
        return self.take()

    # -- concepts ----------------------------------------------------------

    def concept(self) -> Concept:
        """``or`` over ``and`` over prefixed primaries, with explicit stacks.

        Each open parenthesis pushes a frame with the disjuncts and
        conjuncts parsed so far at its level and the prefixes (``not``,
        quantifiers) waiting for the primary it opens.
        """
        frames: list[tuple[list, list, list]] = []
        disjuncts: list[Concept] = []
        conjuncts: list[Concept] = []
        prefixes: list[tuple[type, str | None]] = []
        while True:
            kind = self.peek()
            if kind == "not":
                self.take()
                prefixes.append((Not, None))
                continue
            if kind in _QUANTIFIERS:
                self.take()
                role = self.expect("name", "role name")
                self.expect("dot", "'.' after role name")
                prefixes.append((_QUANTIFIERS[kind], role))
                continue
            if kind == "lparen":
                self.take()
                frames.append((disjuncts, conjuncts, prefixes))
                disjuncts, conjuncts, prefixes = [], [], []
                continue
            if kind == "name":
                concept = Atomic(self.take())
            elif kind in _CONSTANTS:
                self.take()
                concept = _CONSTANTS[kind]
            else:
                raise self.error("expected a concept")
            # A primary is done: wrap it in its prefixes, then close every
            # level that the next token ends.
            while True:
                for ctor, role in reversed(prefixes):
                    concept = ctor(concept) if role is None else ctor(role, concept)
                conjuncts.append(concept)
                kind = self.peek()
                if kind == "and":
                    break
                disjuncts.append(_fold_right(And, conjuncts))
                if kind == "or":
                    conjuncts = []
                    break
                concept = _fold_right(Or, disjuncts)
                if not frames:
                    return concept
                self.expect("rparen", "')'")
                disjuncts, conjuncts, prefixes = frames.pop()
            self.take()
            prefixes = []

    # -- axioms ------------------------------------------------------------

    def axiom(self) -> Axiom:
        if self.peek() == "lparen" and self.peek(1) == "name" and self.peek(2) == "comma":
            self.take()
            subject = self.take()
            self.take()
            obj = self.expect("name", "individual name")
            self.expect("rparen", "')'")
            self.expect("colon", "':'")
            role = self.expect("name", "role name")
            return RoleAssertion(subject, obj, role)
        if self.peek() == "name" and self.peek(1) == "colon":
            individual = self.take()
            self.take()
            return ConceptAssertion(individual, self.concept())
        left = self.concept()
        self.expect("subsume", "'<='")
        right = self.concept()
        return SubClassOf(left, right)

    def end(self) -> None:
        if self.peek() != "end":
            raise self.error("unexpected trailing input")


def _fold_right(ctor, parts: list[Concept]) -> Concept:
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = ctor(part, result)
    return result


def _line_body(raw: str) -> str:
    return raw.split("#", 1)[0]


def parse_kb(text: str) -> KnowledgeBase:
    """Parse a knowledge base; axiom indices follow file order.

    Duplicate axiom lines are kept as distinct indices.
    """
    entries: list[AnnotatedAxiom] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        body = _line_body(raw)
        if not body.strip():
            continue
        parser = _LineParser(body, line_no)
        probability = None
        if parser.peek(1) == "dcolon":
            if parser.peek() != "number":
                raise parser.error("probability must be a number")
            number = parser.take()
            parser.take()
            probability = float(number)
            # Errors point at the number, two tokens back.
            if not (0.0 <= probability <= 1.0):
                raise parser.error(f"probability {number} outside [0, 1]", -2)
            # A nonzero mantissa that float rounds to 0.0 would not round-trip.
            if probability == 0.0 and number.upper().split("E")[0].strip("0."):
                raise parser.error(f"probability {number} underflows to 0", -2)
        elif parser.peek() == "number":
            raise parser.error("expected '::' after probability", 1)
        axiom = parser.axiom()
        parser.end()
        entries.append(AnnotatedAxiom(axiom, probability))
    return KnowledgeBase(tuple(entries))


def parse_query(text: str) -> Query:
    """Parse ``individual : Concept`` or ``Concept <= Concept``."""
    stripped = _line_body(text)
    if not stripped.strip():
        raise ParseError(1, 1, "empty query")
    parser = _LineParser(stripped, 1)
    if parser.peek() == "name" and parser.peek(1) == "colon":
        individual = parser.take()
        parser.take()
        concept = parser.concept()
        parser.end()
        return InstanceQuery(individual, concept)
    left = parser.concept()
    parser.expect("subsume", "'<='")
    right = parser.concept()
    parser.end()
    return SubsumptionQuery(left, right)


# ---------------------------------------------------------------------------
# Serialization

# Precedence levels used to decide parenthesization: a child is wrapped
# whenever its level is below what its context requires.  Right operands of
# a binary operator accept the operator's own level (chains re-parse
# right-nested), left operands require one level more.
_UNARY = 3


def _prec(c: Concept) -> int:
    t = type(c)
    if t is Or:
        return 1
    if t is And:
        return 2
    if t is Not or t is Exists or t is Forall:
        return _UNARY
    return 4


def render_concept(c: Concept, require: int = 0) -> str:
    """Concept text that parses back to ``c``, walking an explicit stack.

    The stack holds ``(concept, required level)`` pairs still to render
    and the literal text between them, pushed in reverse.
    """
    out: list[str] = []
    stack: list = [(c, require)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        c, require = item
        t = type(c)
        if _prec(c) < require:
            out.append("(")
            stack.append(")")
        if t is Atomic:
            out.append(c.name)
        elif t is Top:
            out.append("Top")
        elif t is Bottom:
            out.append("Bottom")
        elif t is Not:
            out.append("not ")
            stack.append((c.arg, _UNARY))
        elif t is And:
            stack += [(c.right, 2), " and ", (c.left, _UNARY)]
        elif t is Or:
            stack += [(c.right, 1), " or ", (c.left, 2)]
        elif t is Exists:
            out.append(f"exists {c.role}. ")
            stack.append((c.filler, _UNARY))
        elif t is Forall:
            out.append(f"forall {c.role}. ")
            stack.append((c.filler, _UNARY))
        else:
            raise TypeError(f"not a concept: {c!r}")
    return "".join(out)


def render_axiom(axiom: Axiom) -> str:
    if isinstance(axiom, SubClassOf):
        return f"{render_concept(axiom.sub)} <= {render_concept(axiom.sup)}"
    if isinstance(axiom, ConceptAssertion):
        return f"{axiom.individual} : {render_concept(axiom.concept)}"
    if isinstance(axiom, RoleAssertion):
        return f"({axiom.subject}, {axiom.object}) : {axiom.role}"
    raise TypeError(f"not an axiom: {axiom!r}")


def render_annotated(entry: AnnotatedAxiom) -> str:
    body = render_axiom(entry.axiom)
    if entry.certain:
        return body
    # repr() of a float is the shortest decimal that round-trips.
    return f"{entry.probability!r} :: {body}"


def render_query(q: Query) -> str:
    if isinstance(q, InstanceQuery):
        return f"{q.individual} : {render_concept(q.concept)}"
    if isinstance(q, SubsumptionQuery):
        return f"{render_concept(q.sub)} <= {render_concept(q.sup)}"
    raise TypeError(f"not a query: {q!r}")


def serialize_kb(kb: KnowledgeBase) -> str:
    """Render one axiom per line; parse_kb(serialize_kb(kb)) == kb."""
    if not kb.axioms:
        return ""
    return "\n".join(render_annotated(a) for a in kb.axioms) + "\n"
