"""Textual format: grammar, precedence, errors, round-tripping."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from probalc.kb import (
    And,
    Atomic,
    BOTTOM,
    ConceptAssertion,
    Exists,
    Forall,
    InstanceQuery,
    Not,
    Or,
    RoleAssertion,
    SubClassOf,
    SubsumptionQuery,
    TOP,
)
from probalc.generators import chain_query, fuzz_corpus, generate_synthetic, random_kb
from probalc.parser import (
    ParseError,
    parse_kb,
    parse_query,
    render_concept,
    render_query,
    serialize_kb,
)
from conftest import CRIME_TEXT

SAMPLE_KB = Path(__file__).resolve().parent.parent / "samples" / "crime.kb"

A, B, C = Atomic("A"), Atomic("B"), Atomic("C")


def parse_concept(text: str):
    axiom = parse_kb(f"a : {text}\n").axiom(0)
    return axiom.concept


class TestAxioms:
    def test_crime_kb_axioms_and_annotations(self):
        kb = parse_kb(CRIME_TEXT)
        assert kb.axiom(0) == SubClassOf(Atomic("Nihilist"), Atomic("GreatMan"))
        assert kb.axiom(1) == SubClassOf(Exists("killed", TOP), Atomic("Nihilist"))
        assert kb.axiom(2) == RoleAssertion("raskolnikov", "alyona", "killed")
        assert kb.axiom(3) == RoleAssertion("raskolnikov", "lizaveta", "killed")
        assert [a.probability for a in kb.axioms] == [0.2, None, 0.6, 0.7]

    def test_concept_assertion(self):
        kb = parse_kb("a : A and not B\n")
        assert kb.axiom(0) == ConceptAssertion("a", And(A, Not(B)))

    def test_parenthesized_subclass_left_side(self):
        kb = parse_kb("(A and B) <= C\n")
        assert kb.axiom(0) == SubClassOf(And(A, B), C)

    def test_comments_and_blank_lines_are_skipped(self):
        kb = parse_kb("# header\n\nA <= B  # trailing\n\n# footer\n")
        assert len(kb) == 1

    def test_duplicate_lines_keep_distinct_indices(self):
        kb = parse_kb("A <= B\nA <= B\n")
        assert len(kb) == 2
        assert kb.axiom(0) == kb.axiom(1)

    def test_empty_input_is_the_empty_kb(self):
        assert len(parse_kb("")) == 0
        assert serialize_kb(parse_kb("")) == ""

    def test_lines_end_at_lf_crlf_and_cr(self):
        kb = parse_kb("A <= B\r\nB <= C\rC <= D\n\r\nD <= E\r")
        assert [entry.axiom for entry in kb.axioms] == [
            SubClassOf(A, B),
            SubClassOf(B, C),
            SubClassOf(C, Atomic("D")),
            SubClassOf(Atomic("D"), Atomic("E")),
        ]
        with pytest.raises(ParseError) as err:
            parse_kb("A <= B\r\n\rC <=")
        assert (err.value.line, err.value.column) == (3, 5)

    # str.splitlines breaks at these too; here they are whitespace.
    @pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_other_line_separators_are_whitespace(self, sep):
        with pytest.raises(ParseError) as err:
            parse_kb(f"A <= B{sep}C <= D")
        assert (err.value.line, err.value.column, err.value.message) == (
            1,
            8,
            "unexpected trailing input",
        )
        assert parse_kb(f"A <={sep}B\nB <= C").axiom(1) == SubClassOf(B, C)


class TestPrecedence:
    def test_not_binds_tighter_than_and(self):
        assert parse_concept("not A and B") == And(Not(A), B)

    def test_and_binds_tighter_than_or(self):
        assert parse_concept("A and B or C") == Or(And(A, B), C)

    def test_quantifier_binds_tighter_than_and(self):
        assert parse_concept("exists r. A and B") == And(Exists("r", A), B)

    def test_quantifier_filler_takes_a_chain_of_unaries(self):
        assert parse_concept("forall r. not A") == Forall("r", Not(A))
        assert parse_concept("exists r. exists s. A") == Exists("r", Exists("s", A))

    def test_chains_parse_right_nested(self):
        assert parse_concept("A and B and C") == And(A, And(B, C))
        assert parse_concept("A or B or C") == Or(A, Or(B, C))

    def test_parentheses_override(self):
        assert parse_concept("(A or B) and C") == And(Or(A, B), C)
        assert parse_concept("(A and B) and C") == And(And(A, B), C)

    def test_top_and_bottom_keywords(self):
        assert parse_concept("Top") == TOP
        assert parse_concept("not Bottom") == Not(BOTTOM)


class TestErrors:
    def test_unexpected_character_position(self):
        with pytest.raises(ParseError) as err:
            parse_kb("A <= B\na : A ^ B\n")
        assert (err.value.line, err.value.column) == (2, 7)

    def test_truncated_assertion(self):
        with pytest.raises(ParseError) as err:
            parse_kb("a :\n")
        assert err.value.line == 1
        assert "concept" in err.value.message

    def test_probability_out_of_range(self):
        with pytest.raises(ParseError) as err:
            parse_kb("1.5 :: A <= B\n")
        assert (err.value.line, err.value.column) == (1, 1)
        assert "outside" in err.value.message

    @pytest.mark.parametrize("number", ["1e-400", "10E-400", "0.0001e-330"])
    def test_probability_that_underflows(self, number):
        with pytest.raises(ParseError) as err:
            parse_kb(f"C <= D\n{number} :: a : A\n")
        assert (err.value.line, err.value.column) == (2, 1)
        assert err.value.message == f"probability {number} underflows to 0"

    @pytest.mark.parametrize(
        "number, value", [("0.0", 0.0), ("0e-999", 0.0), ("5e-324", 5e-324)]
    )
    def test_zero_and_subnormal_probabilities_parse(self, number, value):
        assert parse_kb(f"{number} :: a : A\n").probabilities == (value,)

    def test_non_numeric_probability(self):
        with pytest.raises(ParseError) as err:
            parse_kb("p :: A <= B\n")
        assert "number" in err.value.message

    def test_number_without_annotation_separator(self):
        with pytest.raises(ParseError) as err:
            parse_kb("0.5 A <= B\n")
        assert "'::'" in err.value.message

    def test_trailing_input(self):
        with pytest.raises(ParseError) as err:
            parse_kb("A <= B C\n")
        assert "trailing" in err.value.message

    def test_line_numbers_count_comments_and_blanks(self):
        with pytest.raises(ParseError) as err:
            parse_kb("# one\n\nA <= \n")
        assert err.value.line == 3

    def test_missing_closing_paren(self):
        with pytest.raises(ParseError):
            parse_kb("a : (A and B\n")

    def test_str_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_kb("a :\n")
        assert str(err.value).startswith("1:")

    # (text, line, column, message), pinned so that a change to the parser
    # keeps every position and message.
    KB_ERRORS = [
        ("0.5 :: 0.5 :: A <= B", 1, 8, "expected a concept"),
        ("(a, b)", 1, 7, "expected ':'"),
        ("(a, b) : ", 1, 9, "expected role name"),
        ("(a, b) : and", 1, 10, "expected role name"),
        ("(a, 1) : r", 1, 5, "expected individual name"),
        ("(a, b : r", 1, 7, "expected ')'"),
        ("(Top, b) : r", 1, 5, "expected ')'"),
        ("(a, b) : r\tx", 1, 12, "unexpected trailing input"),
        ("0.5 :: (a, b) : r :", 1, 19, "unexpected trailing input"),
        ("A <= B)", 1, 7, "unexpected trailing input"),
        ("A <=", 1, 5, "expected a concept"),
        ("A", 1, 2, "expected '<='"),
        ("Top : A", 1, 5, "expected '<='"),
        ("a : A and or B", 1, 11, "expected a concept"),
        ("a : forall r. and", 1, 15, "expected a concept"),
        ("exists 1. A <= B", 1, 8, "expected role name"),
        ("exists r A <= B", 1, 10, "expected '.' after role name"),
        ("exists r.", 1, 10, "expected a concept"),
        ("((((A", 1, 6, "expected ')'"),
        ("a : A)", 1, 6, "unexpected trailing input"),
        ("0x1 :: A <= B", 1, 2, "expected '::' after probability"),
        ("5", 1, 2, "expected '::' after probability"),
        (".5 :: A <= B", 1, 1, "expected a concept"),
        ("A :: B", 1, 1, "probability must be a number"),
        ("1e-400 :: A <= B", 1, 1, "probability 1e-400 underflows to 0"),
        ("1e999 :: A <= B", 1, 1, "probability 1e999 outside [0, 1]"),
        ("٣ :: A <= B", 1, 1, "probability ٣ outside [0, 1]"),
        ("é <= B", 1, 1, "unexpected character 'é'"),
        ("A < B", 1, 3, "unexpected character '<'"),
        ("A <== B", 1, 5, "unexpected character '='"),
        # A character no token starts with is reported before any other error.
        ("A <= <= é", 1, 9, "unexpected character 'é'"),
        ("1.5 :: A é", 1, 10, "unexpected character 'é'"),
    ]

    @pytest.mark.parametrize("text, line, column, message", KB_ERRORS)
    def test_kb_error_positions(self, text, line, column, message):
        with pytest.raises(ParseError) as err:
            parse_kb(text)
        assert (err.value.line, err.value.column, err.value.message) == (line, column, message)

    @pytest.mark.parametrize(
        "text, line, column, message",
        [
            ("(a,b) : r", 1, 3, "expected ')'"),
            ("A <= B <= C", 1, 8, "unexpected trailing input"),
            ("a : A <= B", 1, 7, "unexpected trailing input"),
            ("A", 1, 2, "expected '<='"),
            ("1 :: A <= B", 1, 1, "expected a concept"),
            ("  # x", 1, 1, "empty query"),
            ("é", 1, 1, "unexpected character 'é'"),
            # A query may span lines; positions are within the line.
            ("A <=\nB C", 2, 3, "unexpected trailing input"),
            ("A <=\r\nB C", 2, 3, "unexpected trailing input"),
            ("A <=\rB C", 2, 3, "unexpected trailing input"),
            ("a :\n GreatMan B", 2, 11, "unexpected trailing input"),
            ("A\n<=", 2, 3, "expected a concept"),
            ("a :\n é", 2, 2, "unexpected character 'é'"),
        ],
    )
    def test_query_error_positions(self, text, line, column, message):
        with pytest.raises(ParseError) as err:
            parse_query(text)
        assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


class TestQueries:
    def test_instance_query(self):
        assert parse_query("raskolnikov : GreatMan") == InstanceQuery(
            "raskolnikov", Atomic("GreatMan")
        )

    def test_subsumption_query(self):
        assert parse_query("B0 <= B2") == SubsumptionQuery(Atomic("B0"), Atomic("B2"))

    def test_complex_query_concepts(self):
        q = parse_query("a : exists r. A and B")
        assert q == InstanceQuery("a", And(Exists("r", A), B))

    def test_a_comment_ends_only_its_line(self):
        assert parse_query("A <= B # note\n or C") == SubsumptionQuery(A, Or(B, C))

    def test_empty_query_rejected(self):
        with pytest.raises(ParseError):
            parse_query("   ")

    def test_role_assertion_is_not_a_query(self):
        with pytest.raises(ParseError):
            parse_query("(a, b) : r")


class TestRoundTrip:
    def test_crime_kb_round_trips_verbatim(self):
        kb = parse_kb(CRIME_TEXT)
        assert serialize_kb(kb) == CRIME_TEXT
        assert parse_kb(serialize_kb(kb)) == kb

    def test_probabilities_render_shortest(self):
        kb = parse_kb("0.1 :: A <= B\n1 :: B <= C\n")
        assert serialize_kb(kb) == "0.1 :: A <= B\n1.0 :: B <= C\n"

    def test_left_nested_operators_get_parentheses(self):
        kb = parse_kb("a : (A and B) and C\n")
        text = serialize_kb(kb)
        assert text == "a : (A and B) and C\n"
        assert parse_kb(text) == kb

    def test_quantified_filler_parenthesizes_binary_operators(self):
        c = Exists("r", And(A, B))
        assert render_concept(c) == "exists r. (A and B)"
        assert parse_concept(render_concept(c)) == c

    def test_benchmark_texts_parse_to_the_generated_kbs(self):
        """The texts of the benchmark's corpus and chain workloads, built
        the way ``perfbench/workloads.py`` builds them, and the sample KB."""
        for kb, query in fuzz_corpus(2026, 200, max_axioms=10):
            assert parse_kb(serialize_kb(kb)) == kb
            assert parse_query(render_query(query)) == query
        assert parse_kb(serialize_kb(generate_synthetic(7))) == generate_synthetic(7)
        assert parse_query(render_query(chain_query(7))) == chain_query(7)
        assert parse_kb(SAMPLE_KB.read_text()) == parse_kb(CRIME_TEXT)

    @given(st.integers(0, 10_000))
    def test_random_kbs_round_trip(self, seed):
        """parse_kb(serialize_kb(kb)) reproduces every axiom, annotation
        and index of the original KB."""
        kb = random_kb(seed)
        again = parse_kb(serialize_kb(kb))
        assert again == kb
        assert serialize_kb(again) == serialize_kb(kb)

    @given(st.integers(0, 10_000))
    def test_round_trip_preserves_the_probabilistic_view(self, seed):
        kb = random_kb(seed)
        again = parse_kb(serialize_kb(kb))
        assert again.prob_indices == kb.prob_indices
        assert again.probabilities == kb.probabilities


# Tokens, keywords and junk that lines are made of, including characters
# no token may contain and characters that end or do not end a line.
PIECES = [
    "A", "B", "r", "a", "x_1", "not", "and", "or", "exists", "forall", "Top", "Bottom",
    "0.5", "1", "0", "1e-400", "2.5e3", "٣", "::", ":", "<=", "<", "=", "(", ")", ".", ",",
    "#", " ", " ", "\t", "\n", "\r", "\r\n", "\u2028", "é", "Ω", "^",
]


class TestNoTextCrashes:
    @given(st.lists(st.sampled_from(PIECES), max_size=25).map("".join))
    def test_kb_parses_or_raises_parse_error(self, text):
        try:
            kb = parse_kb(text)
        except ParseError as err:
            assert err.line >= 1 and err.column >= 1
        else:
            assert parse_kb(serialize_kb(kb)) == kb

    @given(st.lists(st.sampled_from(PIECES), max_size=25).map("".join))
    def test_query_parses_or_raises_parse_error(self, text):
        try:
            query = parse_query(text)
        except ParseError as err:
            lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            assert 1 <= err.line <= len(lines)
            assert 1 <= err.column <= len(lines[err.line - 1]) + 1
        else:
            assert parse_query(render_query(query)) == query
