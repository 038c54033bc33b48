"""Textual format for annotated knowledge bases and queries.

One axiom per line, optionally prefixed with a probability::

    0.2 :: Nihilist <= GreatMan
    exists killed. Top <= Nihilist
    0.6 :: (raskolnikov, alyona) : killed
    # comments run to end of line

Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only.  The other characters
``str.splitlines`` breaks at (``\\v``, ``\\f``, ``\\x1c``-``\\x1e``,
``\\x85``, ``\\u2028``, ``\\u2029``) are whitespace inside a line, so they
shift no later line number or axiom index.

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
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_PUNCTUATION = frozenset({"::", "<=", ":", "(", ")", ",", "."})

# Whitespace matches nothing and ``\S`` takes any other character alone,
# so ``findall`` yields every token of a line in order.  A token's kind is
# its first character's: a digit starts a number, a letter or ``_`` a name
# or keyword, and any other single character is punctuation or a
# character no token may contain.
_TOKEN_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z0-9_]*|::|<=|\S")

# A comment runs from ``#`` to the end of its line.
_COMMENT_RE = re.compile(r"#[^\r\n]*")

# Three close every token list: lookahead reaches two tokens past a
# position that is at most the first of them.
_END = ("", "", "")

_QUANTIFIERS = {"exists": Exists, "forall": Forall}
_CONSTANTS = {"Top": TOP, "Bottom": BOTTOM}


class _Syntax(Exception):
    """A syntax error at a token index, which only the line's text turns into a column."""


def _lines(text: str) -> list[str]:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _syntax_error(lines: list[str], first: int, index: int, message: str) -> ParseError:
    """The ParseError for ``message`` at token ``index`` of a statement.

    ``lines`` are the statement's lines with their comments removed, the
    first of them numbered ``first``.  A character no token may contain
    is reported first, wherever it is: no statement holding one parses,
    since every token the grammar takes is checked, so only a failed one
    looks for it.  Past the last token is the end of that token's line.
    """
    matches = [(no, m) for no, body in enumerate(lines, first) for m in _TOKEN_RE.finditer(body)]
    for line_no, m in matches:
        t = m.group()
        if t not in _PUNCTUATION and t[0] not in _NAME_START and not t[0].isdecimal():
            return ParseError(line_no, m.start() + 1, f"unexpected character {t!r}")
    if index < len(matches):
        line_no, m = matches[index]
        return ParseError(line_no, m.start() + 1, message)
    line_no = matches[-1][0]
    return ParseError(line_no, len(lines[line_no - first].rstrip()) + 1, message)


def _is_name(t: str) -> bool:
    return t[:1] in _NAME_START and t not in _KEYWORDS


def _name(toks: list[str], i: int, what: str) -> str:
    if not _is_name(toks[i]):
        raise _Syntax(i, f"expected {what}")
    return toks[i]


def _concept(toks: list[str], i: int, atoms: dict) -> tuple[Concept, int]:
    """The concept starting at token ``i``, and the index of the token after it.

    ``or`` over ``and`` over prefixed primaries, with explicit stacks.  Each
    open parenthesis pushes a frame with the disjuncts and conjuncts parsed
    so far at its level and the prefixes (``not``, quantifiers) waiting for
    the primary it opens.  ``atoms`` maps ``Top``, ``Bottom`` and every name
    read so far in this parse to its concept, which is immutable and so
    shared.
    """
    frames: list[tuple[list, list, list]] = []
    # The operands before the current one at this level: the closed
    # disjuncts, and the conjuncts of the open disjunct.
    disjuncts: list[Concept] = []
    conjuncts: list[Concept] = []
    prefixes: list[tuple[type, str | None]] = []
    while True:
        t = toks[i]
        i += 1
        concept = atoms.get(t)
        if concept is None:
            if t == "not":
                prefixes.append((Not, None))
                continue
            if t in _QUANTIFIERS:
                role = _name(toks, i, "role name")
                if toks[i + 1] != ".":
                    raise _Syntax(i + 1, "expected '.' after role name")
                prefixes.append((_QUANTIFIERS[t], role))
                i += 2
                continue
            if t == "(":
                frames.append((disjuncts, conjuncts, prefixes))
                disjuncts, conjuncts, prefixes = [], [], []
                continue
            concept = atoms[t] = Atomic(_name(toks, i - 1, "a concept"))
        # A primary is done: wrap it in its prefixes, then close every
        # level that the next token ends.
        while True:
            if prefixes:
                for ctor, role in reversed(prefixes):
                    concept = ctor(concept) if role is None else ctor(role, concept)
                prefixes = []
            t = toks[i]
            if t == "and":
                conjuncts.append(concept)
                break
            if conjuncts:
                concept = _fold_right(And, conjuncts, concept)
                conjuncts = []
            if t == "or":
                disjuncts.append(concept)
                break
            if disjuncts:
                concept = _fold_right(Or, disjuncts, concept)
            if not frames:
                return concept, i
            if t != ")":
                raise _Syntax(i, "expected ')'")
            i += 1
            disjuncts, conjuncts, prefixes = frames.pop()
        i += 1


def _fold_right(ctor, parts: list[Concept], last: Concept) -> Concept:
    for part in reversed(parts):
        last = ctor(part, last)
    return last


def _statement(toks: list[str], i: int, atoms: dict, assertion, inclusion):
    """``name : C`` as ``assertion(name, C)`` or ``C <= D`` as ``inclusion(C, D)``,
    with the index of the token after it."""
    t = toks[i]
    if toks[i + 1] == ":" and _is_name(t):
        concept, i = _concept(toks, i + 2, atoms)
        return assertion(t, concept), i
    left, i = _concept(toks, i, atoms)
    if toks[i] != "<=":
        raise _Syntax(i, "expected '<='")
    right, i = _concept(toks, i + 1, atoms)
    return inclusion(left, right), i


def _annotated(toks: list[str], atoms: dict) -> AnnotatedAxiom:
    """The axiom on one line, with its probability if it has one."""
    probability = None
    i = 0
    if toks[1] == "::":
        number = toks[0]
        if not number[0].isdecimal():
            raise _Syntax(0, "probability must be a number")
        probability = float(number)
        if not (0.0 <= probability <= 1.0):
            raise _Syntax(0, f"probability {number} outside [0, 1]")
        # A nonzero mantissa that float rounds to 0.0 would not round-trip.
        if probability == 0.0 and number.upper().split("E")[0].strip("0."):
            raise _Syntax(0, f"probability {number} underflows to 0")
        i = 2
    elif toks[0][0].isdecimal():
        raise _Syntax(1, "expected '::' after probability")
    if toks[i] == "(" and toks[i + 2] == "," and _is_name(toks[i + 1]):
        obj = _name(toks, i + 3, "individual name")
        if toks[i + 4] != ")":
            raise _Syntax(i + 4, "expected ')'")
        if toks[i + 5] != ":":
            raise _Syntax(i + 5, "expected ':'")
        axiom: Axiom = RoleAssertion(toks[i + 1], obj, _name(toks, i + 6, "role name"))
        i += 7
    else:
        axiom, i = _statement(toks, i, atoms, ConceptAssertion, SubClassOf)
    if toks[i]:
        raise _Syntax(i, "unexpected trailing input")
    return AnnotatedAxiom(axiom, probability)


def parse_kb(text: str) -> KnowledgeBase:
    """Parse a knowledge base; axiom indices follow file order.

    Duplicate axiom lines are kept as distinct indices.
    """
    entries: list[AnnotatedAxiom] = []
    atoms = dict(_CONSTANTS)
    for line_no, raw in enumerate(_lines(text), 1):
        body = raw.split("#", 1)[0]
        toks = _TOKEN_RE.findall(body)
        if not toks:
            continue
        toks += _END
        try:
            entries.append(_annotated(toks, atoms))
        except _Syntax as exc:
            raise _syntax_error([body], line_no, *exc.args) from None
    return KnowledgeBase(tuple(entries))


def parse_query(text: str) -> Query:
    """Parse ``individual : Concept`` or ``Concept <= Concept``.

    The query may span lines, which end and take comments as in ``parse_kb``.
    """
    body = _COMMENT_RE.sub("", text) if "#" in text else text
    toks = _TOKEN_RE.findall(body)
    if not toks:
        raise ParseError(1, 1, "empty query")
    toks += _END
    try:
        query, i = _statement(toks, 0, dict(_CONSTANTS), InstanceQuery, SubsumptionQuery)
        if toks[i]:
            raise _Syntax(i, "unexpected trailing input")
    except _Syntax as exc:
        raise _syntax_error(_lines(body), 1, *exc.args) from None
    return query


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
