"""Decision diagrams: canonicity, probability, complement, export.

Canonicity is exercised against exhaustive truth tables on up to six
variables: two functions build to the same reference exactly when their
tables agree.  ``build`` is checked against the fold over Bryant's apply
that it replaced, kept here as ``fold_build``.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from probalc.bdd import FALSE_REF, TRUE_REF, BddManager, MissingProbabilityError
from probalc.generators import chain_query, fuzz_corpus, generate_synthetic
from probalc.justify import all_justifications
from probalc.parser import parse_kb, parse_query
from probalc.pinpoint import (
    Conj,
    Disj,
    FALSE,
    TRUE,
    Formula,
    TrueFormula,
    Var,
    formula_from_justifications,
    satisfies,
)
from probalc.tableau import Deadline, ResourceLimitError

from conftest import CRIME_QUERY_TEXT, CRIME_TEXT

CRIME_FORMULA = Disj((Conj((Var(0), Var(1))), Conj((Var(0), Var(2)))))
CRIME_PROBS = {0: 0.2, 1: 0.6, 2: 0.7}


@st.composite
def monotone_formulas(draw, max_vars=6, max_depth=3):
    var_count = draw(st.integers(1, max_vars))
    def formula(depth):
        if depth <= 0 or draw(st.booleans()):
            return draw(
                st.one_of(
                    st.builds(Var, st.integers(0, var_count - 1)),
                    st.just(TRUE),
                    st.just(FALSE),
                )
            )
        parts = tuple(formula(depth - 1) for _ in range(draw(st.integers(1, 3))))
        return draw(st.sampled_from([Conj, Disj]))(parts)
    return var_count, formula(max_depth)


def truth_table(formula, var_count):
    return tuple(
        satisfies(formula, {i for i, bit in enumerate(bits) if bit})
        for bits in itertools.product((0, 1), repeat=var_count)
    )


def fold_build(manager: BddManager, formula: Formula) -> int:
    """Reference compiler: fold the parts with a recursive apply (Bryant 1986)."""
    cache: dict[tuple[bool, int, int], int] = {}

    def apply(conj: bool, a: int, b: int) -> int:
        absorbing, identity = (FALSE_REF, TRUE_REF) if conj else (TRUE_REF, FALSE_REF)
        if absorbing in (a, b):
            return absorbing
        if a == identity or a == b:
            return b
        if b == identity:
            return a
        # Both operations are commutative: normalize the cache key.
        key = (conj, a, b) if a <= b else (conj, b, a)
        if key not in cache:
            la, lb = manager.level(a), manager.level(b)
            top = min(la, lb)
            a_low, a_high = (manager.low(a), manager.high(a)) if la == top else (a, a)
            b_low, b_high = (manager.low(b), manager.high(b)) if lb == top else (b, b)
            low = apply(conj, a_low, b_low)
            cache[key] = manager._node(top, low, apply(conj, a_high, b_high))
        return cache[key]

    def fold(f: Formula) -> int:
        t = type(f)
        if t is Var:
            return manager.var(f.ordinal)
        if t is Conj or t is Disj:
            ref = TRUE_REF if t is Conj else FALSE_REF
            for part in f.parts:
                ref = apply(t is Conj, ref, fold(part))
            return ref
        return TRUE_REF if t is TrueFormula else FALSE_REF

    return fold(formula)


def covering_formulas():
    """Covering formulas of the seed-2026 corpus, chain n=3..10 and the crime KB."""
    cases = list(fuzz_corpus(2026, 200))
    cases += [(generate_synthetic(n), chain_query(n)) for n in range(3, 11)]
    cases.append((parse_kb(CRIME_TEXT), parse_query(CRIME_QUERY_TEXT)))
    for kb, query in cases:
        covering = all_justifications(kb, query)
        yield len(kb.prob_indices), formula_from_justifications(covering, kb)


def evaluate_ref(manager, ref, chosen):
    while ref > TRUE_REF:
        branch = manager.high(ref) if manager.level(ref) in chosen else manager.low(ref)
        ref = branch
    return ref == TRUE_REF


class TestStructure:
    def test_terminals(self):
        m = BddManager(3)
        assert m.level(FALSE_REF) == m.level(TRUE_REF) == 3

    def test_bare_variable(self):
        m = BddManager(3)
        ref = m.var(1)
        assert m.level(ref) == 1
        assert m.low(ref) == FALSE_REF
        assert m.high(ref) == TRUE_REF
        assert ref > TRUE_REF

    def test_variable_out_of_range(self):
        m = BddManager(2)
        with pytest.raises(ValueError):
            m.var(2)
        with pytest.raises(ValueError):
            m.var(-1)

    def test_negative_var_count_rejected(self):
        with pytest.raises(ValueError):
            BddManager(-1)

    def test_equal_branches_never_materialize(self):
        m = BddManager(2)
        # (x | y) & x is x: no node tests y.
        assert m.build(Conj((Disj((Var(0), Var(1))), Var(0)))) == m.var(0)

    def test_shared_subdiagrams_reuse_references(self):
        m = BddManager(3)
        a = m.build(Conj((Var(0), Var(2))))
        b = m.build(Conj((Var(2), Var(0))))
        assert a == b

    def test_crime_diagram_has_three_internal_nodes(self):
        m = BddManager(3)
        ref = m.build(CRIME_FORMULA)
        assert m.node_count(ref) == 3
        # One node per level: x1 at the root, then x2, then x3.
        assert m.level(ref) == 0
        assert m.low(ref) == FALSE_REF
        middle = m.high(ref)
        assert m.level(middle) == 1
        bottom = m.low(middle)
        assert m.level(bottom) == 2
        assert m.high(middle) == TRUE_REF
        assert (m.low(bottom), m.high(bottom)) == (FALSE_REF, TRUE_REF)

    def test_build_constants(self):
        m = BddManager(1)
        assert m.build(TRUE) == TRUE_REF
        assert m.build(FALSE) == FALSE_REF

    def test_levels_strictly_increase_along_paths(self):
        m = BddManager(6)
        rng = random.Random(5)
        terms = (
            Conj(tuple(Var(v) for v in rng.sample(range(6), rng.randint(1, 4))))
            for _ in range(8)
        )
        stack = [m.build(Disj(tuple(terms)))]
        seen = set()
        while stack:
            r = stack.pop()
            if r <= TRUE_REF or r in seen:
                continue
            seen.add(r)
            for child in (m.low(r), m.high(r)):
                assert m.level(child) > m.level(r)
                stack.append(child)


class TestBuildAgainstApply:
    """``build`` must give the root the apply fold gives in the same manager."""

    def test_covering_formulas(self):
        checked = 0
        for var_count, formula in covering_formulas():
            m = BddManager(var_count)
            assert m.build(formula) == fold_build(m, formula)
            checked += 1
        assert checked == 209

    @settings(max_examples=300)
    @given(monotone_formulas(max_depth=4))
    def test_nested_formulas(self, case):
        var_count, formula = case
        m = BddManager(var_count)
        assert m.build(formula) == fold_build(m, formula)

    @pytest.mark.parametrize(
        "formula",
        [
            Var(3),
            Var(-1),
            Conj((Var(0), Var(3))),
            Disj((Var(0), Conj((Var(1), Var(-1))))),
            Conj((Disj((Var(0), Var(1))), Disj((Var(2), Var(7))))),
        ],
        ids=["var", "negative", "conj", "disj", "nested"],
    )
    def test_out_of_range_ordinal(self, formula):
        with pytest.raises(ValueError, match="outside 0..2"):
            BddManager(3).build(formula)

    def test_deadline(self):
        m = BddManager(3)
        formula = Disj((Conj((Var(0), Var(1))), Var(2)))
        with pytest.raises(ResourceLimitError):
            m.build(formula, deadline=Deadline(at=0.0))
        assert m.build(formula, deadline=Deadline.after(60.0)) == fold_build(m, formula)

    def test_deep_conjunction(self):
        """1,200 levels: deeper than Python's default recursion limit."""
        m = BddManager(1200)
        ref = m.build(Conj(tuple(Var(i) for i in range(1200))))
        assert m.node_count(ref) == 1200
        memo: dict[int, float] = {}
        probability = m.probability(ref, {i: 0.99 for i in range(1200)}, memo)
        assert math.isclose(probability, 0.99**1200, rel_tol=1e-12)
        assert len(memo) == 1200

    def test_deep_conjunction_walks(self):
        """Complement and DOT text walk 1,200 levels without recursion."""
        m = BddManager(1200)
        ref = m.build(Conj(tuple(Var(i) for i in range(1200))))
        comp = m.complement(ref)
        assert m.node_count(comp) == 1200
        assert m.complement(comp) == ref
        dot = m.to_dot(ref)
        assert sum(line.startswith("  n") and "[label=" in line for line in dot.splitlines()) == 1200


class TestEquivalence:
    def test_crime_formula_equals_factored_form(self):
        m = BddManager(3)
        factored = Conj((Var(0), Disj((Var(1), Var(2)))))
        assert m.build(CRIME_FORMULA) == m.build(factored)

    def test_inequivalent_functions_differ(self):
        m = BddManager(2)
        assert m.var(0) != m.var(1)

    @settings(max_examples=200)
    @given(monotone_formulas(), monotone_formulas())
    def test_canonicity_matches_truth_tables(self, first, second):
        """Same truth table if and only if same reference."""
        n1, f1 = first
        n2, f2 = second
        var_count = max(n1, n2)
        m = BddManager(var_count)
        same_table = truth_table(f1, var_count) == truth_table(f2, var_count)
        assert (m.build(f1) == m.build(f2)) == same_table

    @settings(max_examples=150)
    @given(monotone_formulas())
    def test_diagram_evaluates_like_the_formula(self, case):
        var_count, formula = case
        m = BddManager(var_count)
        ref = m.build(formula)
        for bits in itertools.product((0, 1), repeat=var_count):
            chosen = {i for i, bit in enumerate(bits) if bit}
            assert evaluate_ref(m, ref, chosen) == satisfies(formula, chosen)


class TestProbability:
    def test_crime_probability(self):
        m = BddManager(3)
        ref = m.build(CRIME_FORMULA)
        assert math.isclose(
            m.probability(ref, CRIME_PROBS), 0.176, rel_tol=0, abs_tol=1e-12
        )

    def test_memo_exposes_per_node_values(self):
        m = BddManager(3)
        ref = m.build(CRIME_FORMULA)
        memo: dict[int, float] = {}
        m.probability(ref, CRIME_PROBS, memo)
        values = sorted(memo.values())
        # The x3 node is worth 0.7 and the x2 node 0.6 + 0.4 * 0.7 = 0.88.
        assert math.isclose(values[0], 0.176, abs_tol=1e-12)
        assert math.isclose(values[1], 0.7, abs_tol=1e-12)
        assert math.isclose(values[2], 0.88, abs_tol=1e-12)
        assert len(memo) == 3

    def test_terminal_probabilities(self):
        m = BddManager(1)
        assert m.probability(TRUE_REF, {}) == 1.0
        assert m.probability(FALSE_REF, {}) == 0.0
        assert m.exact_probability(TRUE_REF, {}) == 1
        assert m.exact_probability(FALSE_REF, {}) == 0

    def test_exact_pass_agrees_with_the_float_pass(self):
        m = BddManager(3)
        ref = m.build(CRIME_FORMULA)
        exact = m.exact_probability(ref, CRIME_PROBS)
        assert math.isclose(float(exact), m.probability(ref, CRIME_PROBS), rel_tol=1e-15)

    def test_exact_pass_survives_float_underflow(self):
        m = BddManager(3)
        ref = m.build(Conj((Var(0), Var(1), Var(2))))
        probs = {0: 1e-200, 1: 1e-200, 2: 1e-200}
        assert m.probability(ref, probs) == 0.0
        exact = m.exact_probability(ref, probs)
        assert math.isclose(float(exact.scaleb(600)), 1.0, rel_tol=1e-12)

    def test_missing_probability(self):
        m = BddManager(2)
        ref = m.build(Conj((Var(0), Var(1))))
        with pytest.raises(MissingProbabilityError):
            m.probability(ref, {0: 0.5})

    def test_missing_probability_is_a_key_error(self):
        m = BddManager(1)
        with pytest.raises(KeyError):
            m.probability(m.var(0), {})

    def test_out_of_range_probability(self):
        m = BddManager(1)
        with pytest.raises(ValueError):
            m.probability(m.var(0), {0: 1.5})

    @settings(max_examples=100)
    @given(monotone_formulas(max_vars=5), st.integers(0, 10_000))
    def test_probability_matches_world_enumeration(self, case, seed):
        """The linear pass agrees with summing over all variable settings."""
        var_count, formula = case
        rng = random.Random(seed)
        probs = {i: rng.random() for i in range(var_count)}
        m = BddManager(var_count)
        ref = m.build(formula)
        expected = 0.0
        for bits in itertools.product((0, 1), repeat=var_count):
            chosen = {i for i, bit in enumerate(bits) if bit}
            if satisfies(formula, chosen):
                weight = 1.0
                for i in range(var_count):
                    weight *= probs[i] if i in chosen else 1.0 - probs[i]
                expected += weight
        assert math.isclose(m.probability(ref, probs), expected, abs_tol=1e-9)


class TestComplement:
    def test_terminals_swap(self):
        m = BddManager(1)
        assert m.complement(TRUE_REF) == FALSE_REF
        assert m.complement(FALSE_REF) == TRUE_REF

    def test_involution(self):
        m = BddManager(3)
        ref = m.build(CRIME_FORMULA)
        assert m.complement(m.complement(ref)) == ref

    def test_probabilities_sum_to_one(self):
        m = BddManager(3)
        ref = m.build(CRIME_FORMULA)
        total = m.probability(ref, CRIME_PROBS) + m.probability(
            m.complement(ref), CRIME_PROBS
        )
        assert math.isclose(total, 1.0, abs_tol=1e-12)

    @settings(max_examples=100)
    @given(monotone_formulas(max_vars=5))
    def test_complement_flips_every_valuation(self, case):
        var_count, formula = case
        m = BddManager(var_count)
        ref = m.build(formula)
        comp = m.complement(ref)
        for bits in itertools.product((0, 1), repeat=var_count):
            chosen = {i for i, bit in enumerate(bits) if bit}
            assert evaluate_ref(m, comp, chosen) != evaluate_ref(m, ref, chosen)


class TestDot:
    def test_crime_dot_shape(self):
        m = BddManager(3)
        ref = m.build(CRIME_FORMULA)
        dot = m.to_dot(ref)
        assert dot.startswith("digraph bdd {")
        assert dot.rstrip().endswith("}")
        assert 'f [shape=box, label="0"];' in dot
        assert 't [shape=box, label="1"];' in dot
        for label in ("x1", "x2", "x3"):
            assert f'[label="{label}"]' in dot
        assert dot.count("[style=dashed]") == 3

    def test_terminal_only_diagram(self):
        m = BddManager(1)
        dot = m.to_dot(TRUE_REF)
        assert 'label="1"' in dot
        assert not any(line.strip().startswith("n") for line in dot.splitlines())


# ---------------------------------------------------------------------------
# The walks against the recursive forms they replaced


def recursive_complement(m: BddManager, ref: int) -> int:
    memo = {FALSE_REF: TRUE_REF, TRUE_REF: FALSE_REF}

    def walk(r):
        if r not in memo:
            low, high = walk(m.low(r)), walk(m.high(r))
            memo[r] = m._node(m.level(r), low, high)
        return memo[r]

    return walk(ref)


def recursive_dot_order(m: BddManager, ref: int, order=None) -> list[int]:
    order = [] if order is None else order
    if ref > TRUE_REF and ref not in order:
        order.append(ref)
        recursive_dot_order(m, m.low(ref), order)
        recursive_dot_order(m, m.high(ref), order)
    return order


def test_walks_match_their_recursive_forms():
    """Same refs made in the same order and the same DOT node order."""
    for var_count, formula in covering_formulas():
        m, reference = BddManager(var_count), BddManager(var_count)
        ref = m.build(formula)
        assert reference.build(formula) == ref
        assert m.complement(ref) == recursive_complement(reference, ref)
        assert m._entries == reference._entries
        names = [line.split()[0] for line in m.to_dot(ref).splitlines() if "[label=" in line]
        assert names == [f"n{r}" for r in recursive_dot_order(reference, ref)]
