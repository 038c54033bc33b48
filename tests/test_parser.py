"""Textual format: grammar, precedence, errors, round-tripping."""

from __future__ import annotations

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
from probalc.generators import random_kb
from probalc.parser import (
    ParseError,
    parse_kb,
    parse_query,
    render_concept,
    serialize_kb,
)
from conftest import CRIME_TEXT

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
