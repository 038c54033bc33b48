"""Justification search: minimize, single routes, hitting set tree.

The completeness suite cross-checks ``all_justifications`` against a
powerset oracle that enumerates every axiom subset, which is feasible
because the fuzz KBs stay small.
"""

from __future__ import annotations

import itertools

import pytest

from probalc import justify, tableau
from probalc.generators import chain_query, fuzz_corpus, generate_synthetic
from probalc.justify import (
    METHODS,
    CoveringSet,
    _Session,
    all_justifications,
    minimize,
    single_justification,
)
from probalc.kb import Atomic, InstanceQuery
from probalc.tableau import (
    NO_DEADLINE,
    Deadline,
    NotEntailedError,
    ResourceLimitError,
    entails,
)

UNENTAILED = InstanceQuery("alyona", Atomic("GreatMan"))


def powerset_justifications(kb, query) -> frozenset[frozenset[int]]:
    """All subset-minimal entailing index sets, by brute enumeration."""
    indices = range(len(kb))
    minimal: list[frozenset[int]] = []
    for size in range(len(kb) + 1):
        for combo in itertools.combinations(indices, size):
            subset = frozenset(combo)
            if any(kept <= subset for kept in minimal):
                continue
            if entails(kb.axioms_at(subset), query):
                minimal.append(subset)
    return frozenset(minimal)


class TestMinimize:
    def test_minimizes_the_full_crime_kb(self, crime_kb, crime_query):
        assert minimize(range(4), crime_kb, crime_query) == frozenset({0, 1, 3})

    def test_already_minimal_set_is_kept(self, crime_kb, crime_query):
        assert minimize({0, 1, 2}, crime_kb, crime_query) == frozenset({0, 1, 2})

    def test_rejects_non_entailing_candidate(self, crime_kb, crime_query):
        with pytest.raises(NotEntailedError):
            minimize({1, 2, 3}, crime_kb, crime_query)

    def test_result_is_minimal(self, crime_kb, crime_query):
        result = minimize(range(4), crime_kb, crime_query)
        assert entails(crime_kb.axioms_at(result), crime_query)
        for index in result:
            assert not entails(crime_kb.axioms_at(result - {index}), crime_query)

    @pytest.mark.parametrize("index", [-1, 4, 9])
    def test_rejects_an_index_outside_the_kb(self, crime_kb, crime_query, index):
        with pytest.raises(ValueError, match=f"axiom index {index} "):
            minimize({0, 1, index}, crime_kb, crime_query)


class TestSingleJustification:
    def test_glassbox_crime(self, crime_kb, crime_query):
        assert single_justification(crime_kb, crime_query, "glassbox") == frozenset({0, 1, 2})

    def test_blackbox_crime(self, crime_kb, crime_query):
        assert single_justification(crime_kb, crime_query, "blackbox") == frozenset({0, 1, 3})

    def test_chain_routes_pick_different_branches(self):
        kb = generate_synthetic(1)
        query = chain_query(1)
        assert single_justification(kb, query, "glassbox") == frozenset({0, 1})
        assert single_justification(kb, query, "blackbox") == frozenset({0, 2})

    def test_subset_restricts_the_search(self, crime_kb, crime_query):
        just = single_justification(crime_kb, crime_query, "glassbox", subset={0, 1, 3})
        assert just == frozenset({0, 1, 3})

    def test_not_entailed(self, crime_kb):
        with pytest.raises(NotEntailedError):
            single_justification(crime_kb, UNENTAILED, "glassbox")
        with pytest.raises(NotEntailedError):
            single_justification(crime_kb, UNENTAILED, "blackbox")

    def test_unknown_method(self, crime_kb, crime_query):
        with pytest.raises(ValueError):
            single_justification(crime_kb, crime_query, "telepathy")

    @pytest.mark.parametrize("method", ["glassbox", "blackbox"])
    @pytest.mark.parametrize("index", [-1, 4, 9])
    def test_rejects_an_index_outside_the_kb(self, crime_kb, crime_query, method, index):
        with pytest.raises(ValueError, match=f"axiom index {index} "):
            single_justification(crime_kb, crime_query, method, subset={0, 1, index})


class TestAllJustifications:
    @pytest.mark.parametrize("method", ["glassbox", "blackbox"])
    def test_crime_covering_set(self, crime_kb, crime_query, method):
        covering = all_justifications(crime_kb, crime_query, method)
        assert covering.justifications == frozenset(
            {frozenset({0, 1, 2}), frozenset({0, 1, 3})}
        )
        assert covering.ordered() == [frozenset({0, 1, 2}), frozenset({0, 1, 3})]
        assert len(covering) == 2
        assert {0, 1, 2} in covering
        assert covering.tableau_calls > 0
        assert covering.hst_nodes >= 1

    def test_chain_two_layers(self):
        covering = all_justifications(generate_synthetic(2), chain_query(2))
        assert [sorted(j) for j in covering.ordered()] == [
            [0, 1, 3, 4],
            [0, 1, 3, 5],
            [0, 2, 3, 4],
            [0, 2, 3, 5],
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chain_counts_double_per_layer(self, n):
        covering = all_justifications(generate_synthetic(n), chain_query(n))
        assert len(covering) == 2**n

    @pytest.mark.parametrize(
        "method, crime_calls, chain_calls", [("glassbox", 7, 14), ("blackbox", 6, 26)]
    )
    def test_reasoner_call_counts(self, crime_kb, crime_query, method, crime_calls, chain_calls):
        """One reasoner call per computed node says whether it entails; sweeps do the rest.

        Questions about subsets of known non-entailing sets are memo hits,
        not calls.
        """
        crime = all_justifications(crime_kb, crime_query, method)
        assert (crime.tableau_calls, crime.hst_nodes) == (crime_calls, 7)
        chain = all_justifications(generate_synthetic(3), chain_query(3), method)
        assert (chain.tableau_calls, chain.hst_nodes) == (chain_calls, 44)

    @pytest.mark.parametrize("method, calls", [("glassbox", 142), ("blackbox", 590)])
    def test_chain_seven_counts(self, method, calls):
        """The memo cuts calls, not nodes: the tree and its labels stay the same."""
        covering = all_justifications(generate_synthetic(7), chain_query(7), method)
        assert len(covering) == 128
        assert covering.hst_nodes == 1472
        assert covering.tableau_calls == calls
        assert covering.memo_hits == {"glassbox": 3122, "blackbox": 3890}[method]

    @pytest.mark.parametrize(
        "n, method, work",
        [
            (8, "glassbox", (272, 3328, 7152)),
            (9, "glassbox", (530, 7424, 16110)),
            (8, "blackbox", (1296, 3328, 8944)),
            (9, "blackbox", (2834, 7424, 20206)),
            (10, "glassbox", (1044, 16384, 35820)),
            (11, "glassbox", (2070, 35840, 78826)),
            (10, "blackbox", (6164, 16384, 45036)),
            (11, "blackbox", (13334, 35840, 99306)),
            (2, "glassbox", (8, 16, 24)),
        ],
    )
    def test_chain_work_is_pinned(self, n, method, work):
        """``(tableau_calls, hst_nodes, memo_hits)``: the search's exact work."""
        covering = all_justifications(generate_synthetic(n), chain_query(n), method)
        assert len(covering) == 2**n
        assert (covering.tableau_calls, covering.hst_nodes, covering.memo_hits) == work

    def test_fuzz_work_is_pinned(self):
        """Summed ``(tableau_calls, hst_nodes, memo_hits)`` per corpus and method.

        The closed leaves and sweep checks read off the known non-entailing
        sets must count as the memo hits their questions would have been.
        """
        work = {}
        for seed in (1, 7):
            for method in METHODS:
                totals = [0, 0, 0]
                for kb, query in fuzz_corpus(seed, 150):
                    covering = all_justifications(kb, query, method)
                    totals[0] += covering.tableau_calls
                    totals[1] += covering.hst_nodes
                    totals[2] += covering.memo_hits
                work[seed, method] = totals
        assert work == {
            (1, "glassbox"): [333, 191, 56],
            (1, "blackbox"): [727, 177, 84],
            (7, "glassbox"): [274, 126, 17],
            (7, "blackbox"): [561, 127, 52],
        }

    def test_chain_asks_only_questions_the_reasoner_answers(self, monkeypatch):
        """Closed leaves and necessary axioms are read off the known sets, not asked."""
        asked = []
        ask = _Session.ask

        def counted(self, mask, traced):
            asked.append(mask)
            return ask(self, mask, traced)

        monkeypatch.setattr(_Session, "ask", counted)
        covering = all_justifications(generate_synthetic(7), chain_query(7))
        assert covering.tableau_calls == 142
        assert len(asked) == 142

    @pytest.mark.parametrize("n", range(1, 8))
    def test_chain_calls_once_per_justification_and_repair(self, monkeypatch, n):
        """Each miss grows to a maximal non-entailing set at once.

        Layer i's axioms are 3i (B to P and Q), 3i+1 (P to B) and 3i+2
        (Q to B), so the maximal non-entailing sets leave out {3i} or
        {3i+1, 3i+2}: 2n of them, each found by one call.
        """
        sessions = []

        class Recorded(_Session):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                sessions.append(self)

        monkeypatch.setattr(justify, "_Session", Recorded)
        covering = all_justifications(generate_synthetic(n), chain_query(n))
        assert len(covering) == 2**n
        assert covering.tableau_calls == 2**n + 2 * n
        (session,) = sessions
        everything = (1 << 3 * n) - 1
        left_out = sorted(everything & ~known for known in session._negative)
        assert left_out == sorted(
            [bits(3 * i) for i in range(n)] + [bits(3 * i + 1, 3 * i + 2) for i in range(n)]
        )

    def test_unknown_method_on_an_unentailed_query(self, crime_kb):
        with pytest.raises(ValueError):
            all_justifications(crime_kb, UNENTAILED, "telepathy")

    def test_not_entailed_gives_empty_covering(self, crime_kb):
        covering = all_justifications(crime_kb, UNENTAILED)
        assert covering.justifications == frozenset()
        assert len(covering) == 0
        assert covering.hst_nodes == 0
        assert list(covering) == []

    def test_runs_are_deterministic(self, crime_kb, crime_query):
        results = {
            all_justifications(crime_kb, crime_query, "glassbox") for _ in range(3)
        }
        assert len(results) == 1

    def test_hst_budget_reports_partial_progress(self, monkeypatch):
        monkeypatch.setattr(justify, "HST_BUDGET", 2)
        with pytest.raises(ResourceLimitError) as excinfo:
            all_justifications(generate_synthetic(3), chain_query(3))
        partial = excinfo.value.partial
        assert partial["justifications"] == frozenset({frozenset({0, 1, 3, 4, 6, 7})})
        assert partial["hst_nodes"] > 2
        assert partial["tableau_calls"] > 0
        assert partial["memo_hits"] >= 0

    def test_expired_deadline(self, crime_kb, crime_query):
        with pytest.raises(ResourceLimitError):
            all_justifications(crime_kb, crime_query, deadline=Deadline(at=0.0))

    @pytest.mark.parametrize(
        "budget, partial_work, mask_sum",
        [
            (2, (1, 3, 15, 1), 898779),
            (100, (31, 101, 45, 489), 32057639),
            (700, (99, 701, 113, 1973), 114144933),
            (1471, (128, 1472, 142, 3121), 153391616),
        ],
    )
    def test_hst_budget_stops_at_a_pinned_point(
        self, budget, partial_work, mask_sum, monkeypatch
    ):
        """Chain n=7 under a tree budget: ``(justifications, hst_nodes, tableau_calls, memo_hits)``.

        The budget is checked at every child a node counts, so a run stops
        at the first node past it.  The sum of the justifications' bitmasks
        pins which ones were found, and each is one of the full covering
        set.
        """
        kb, query = generate_synthetic(7), chain_query(7)
        full = all_justifications(kb, query).justifications
        monkeypatch.setattr(justify, "HST_BUDGET", budget)
        with pytest.raises(ResourceLimitError) as excinfo:
            all_justifications(kb, query)
        partial = excinfo.value.partial
        found = partial["justifications"]
        assert (
            len(found), partial["hst_nodes"], partial["tableau_calls"], partial["memo_hits"]
        ) == partial_work
        assert sum(bits(*just) for just in found) == mask_sum
        assert found <= full

    @pytest.mark.parametrize(
        "n, budgets", [(3, range(1, 41)), (7, (1, 3, 50, 500, 1000, 1471))]
    )
    def test_hst_budget_is_exact(self, n, budgets, monkeypatch):
        """A run stops at the first node past the budget, with part of the covering set."""
        kb, query = generate_synthetic(n), chain_query(n)
        full = all_justifications(kb, query)
        for budget in budgets:
            assert full.hst_nodes > budget
            with monkeypatch.context() as patched:
                patched.setattr(justify, "HST_BUDGET", budget)
                with pytest.raises(ResourceLimitError) as excinfo:
                    all_justifications(kb, query)
            partial = excinfo.value.partial
            assert partial["hst_nodes"] == budget + 1
            assert partial["justifications"] <= full.justifications


def bits(*indices: int) -> int:
    return sum(1 << i for i in indices)


class TestSessionMemo:
    """Sets known not to entail the query answer their subsets without a call.

    On the crime KB the justifications are {0, 1, 2} and {0, 1, 3}, so
    {1, 2, 3} does not entail the query.
    """

    @pytest.fixture
    def session(self, crime_kb, crime_query):
        return _Session(crime_kb, crime_query, NO_DEADLINE)

    def test_subsets_of_a_non_entailing_set_are_memo_hits(self, session):
        assert session.ask(bits(1, 2, 3), False) is None
        assert (session.tableau_calls, session.memo_hits) == (1, 0)
        for size in range(4):
            for subset in itertools.combinations((1, 2, 3), size):
                hits = session.memo_hits
                assert session.ask(bits(*subset), False) is None
                assert (session.tableau_calls, session.memo_hits) == (1, hits + 1)
        assert session.ask(bits(1, 3), True) is None
        assert session.tableau_calls == 1

    def test_a_superset_makes_a_real_call(self, session):
        assert session.ask(bits(1, 2, 3), False) is None
        assert session.ask(bits(0, 1, 2, 3), False) is not None
        assert (session.tableau_calls, session.memo_hits) == (2, 0)

    def test_a_trace_miss_is_recorded(self, session):
        assert session.ask(bits(0, 2, 3), True) is None
        assert session.ask(bits(0, 3), False) is None
        assert (session.tableau_calls, session.memo_hits) == (1, 1)

    def test_the_memo_never_answers_true(self, session, crime_kb, crime_query):
        """Every subset of the KB, after the memo has seen each negative answer."""
        for _ in range(2):
            for size in range(5):
                for subset in itertools.combinations(range(4), size):
                    calls = session.tableau_calls
                    answer = session.ask(bits(*subset), False) is not None
                    assert answer == entails(crime_kb.axioms_at(subset), crime_query)
                    if answer:
                        assert session.tableau_calls == calls + 1
        assert session.memo_hits > 0

    def test_an_exhausted_budget_is_not_recorded(self, session, monkeypatch):
        with monkeypatch.context() as patched:
            patched.setattr(tableau, "NODE_BUDGET", 1)
            with pytest.raises(ResourceLimitError):
                session.ask(bits(1, 2, 3), False)
        assert session.ask(bits(1, 2), False) is None
        assert (session.tableau_calls, session.memo_hits) == (2, 0)

    def test_a_traced_answer_is_an_entailing_subset(self, session, crime_kb, crime_query):
        answered = 0
        for size in range(5):
            for subset in itertools.combinations(range(4), size):
                mask = bits(*subset)
                trace = session.ask(mask, True)
                if trace is not None:
                    assert not trace & ~mask
                    chosen = [i for i in subset if trace >> i & 1]
                    assert entails(crime_kb.axioms_at(chosen), crime_query)
                    answered += 1
        assert answered == 3

    def test_an_untraced_answer_is_the_mask_itself(self, session):
        assert session.ask(bits(0, 1, 2, 3), False) == bits(0, 1, 2, 3)
        assert session.ask(bits(0, 1, 3), False) == bits(0, 1, 3)

    @pytest.mark.parametrize("traced", [False, True])
    def test_a_miss_records_what_its_countermodel_satisfies(self, session, traced):
        """Without axiom 1 nothing is a Nihilist, so the model also satisfies axiom 0."""
        assert session.ask(bits(2, 3), traced) is None
        assert session._negative == [bits(0, 2, 3)]
        assert session.ask(bits(0, 2, 3), not traced) is None
        assert session.ask(bits(0, 2), traced) is None
        assert (session.tableau_calls, session.memo_hits) == (1, 2)

    def test_a_grown_set_replaces_the_sets_it_contains(self, session):
        assert session.ask(bits(2), False) is None
        assert session.ask(bits(3), False) is None
        assert session._negative == [bits(0, 2), bits(0, 3)]
        assert session.ask(bits(2, 3), False) is None
        assert session._negative == [bits(0, 2, 3)]
        assert session.tableau_calls == 3

    def test_necessary_axioms_are_read_off_the_known_sets(self, session):
        """{0, 2, 3} and {1, 2, 3} are maximal non-entailing sets."""
        assert session.necessary(bits(0, 1, 2, 3)) == 0
        assert session.ask(bits(2, 3), False) is None
        assert session.ask(bits(1, 2, 3), False) is None
        assert session._negative == [bits(0, 2, 3), bits(1, 2, 3)]
        calls, hits = session.tableau_calls, session.memo_hits
        # The justifications {0, 1, 2} and {0, 1, 3} both need 0 and 1.
        assert session.necessary(bits(0, 1, 2, 3)) == bits(0, 1)
        # {0, 1} lies in neither known set, so 2 is not yet shown necessary.
        assert session.necessary(bits(0, 1, 2)) == bits(0, 1)
        # A set inside a known one does not entail; neither does any subset.
        assert session.necessary(bits(0, 2)) == bits(0, 2)
        assert (session.tableau_calls, session.memo_hits) == (calls, hits)

    def test_necessary_agrees_with_the_tableau(self, session, crime_kb, crime_query):
        """Each axiom it names is one without which the set does not entail.

        It names exactly those whose removal leaves a subset of a known set,
        and reading them makes no call.
        """
        assert session.ask(bits(2, 3), False) is None
        assert session.ask(bits(1, 2, 3), False) is None
        calls, hits = session.tableau_calls, session.memo_hits
        for size in range(5):
            for subset in itertools.combinations(range(4), size):
                mask = bits(*subset)
                needed = session.necessary(mask)
                for i in subset:
                    reduced = mask & ~bits(i)
                    inside = any(not reduced & ~known for known in session._negative)
                    assert bool(needed >> i & 1) == inside
                    if inside:
                        rest = [j for j in subset if j != i]
                        assert not entails(crime_kb.axioms_at(rest), crime_query)
                assert not needed & ~mask
        assert (session.tableau_calls, session.memo_hits) == (calls, hits)

    def test_a_certified_sweep_makes_no_call(self, session):
        """Every axiom of {0, 1, 2} is necessary once {0, 1} has no third partner."""
        for left_out in (bits(0), bits(1), bits(2)):
            assert session.ask(bits(0, 1, 2) & ~left_out, False) is None
        calls, hits = session.tableau_calls, session.memo_hits
        assert session.necessary(bits(0, 1, 2)) == bits(0, 1, 2)
        assert justify._minimize(session, bits(0, 1, 2)) == bits(0, 1, 2)
        assert (session.tableau_calls, session.memo_hits) == (calls, hits + 3)


class TestInvariants:
    @pytest.mark.parametrize("method", ["glassbox", "blackbox"])
    def test_each_justification_is_minimal_and_entailing(
        self, crime_kb, crime_query, method
    ):
        for just in all_justifications(crime_kb, crime_query, method):
            assert entails(crime_kb.axioms_at(just), crime_query)
            for index in just:
                assert not entails(crime_kb.axioms_at(just - {index}), crime_query)

    def test_covering_set_is_an_antichain(self):
        covering = all_justifications(generate_synthetic(3), chain_query(3))
        for a in covering:
            for b in covering:
                assert not (a < b)

    def test_methods_agree_on_the_covering_set(self):
        corpus = list(fuzz_corpus(77, 20, max_axioms=6))
        for kb, query in corpus:
            glass = all_justifications(kb, query, "glassbox")
            black = all_justifications(kb, query, "blackbox")
            assert glass.justifications == black.justifications

    @pytest.mark.parametrize("method", ["glassbox", "blackbox"])
    def test_matches_the_powerset_oracle(self, method):
        """Both routes find exactly the subset-minimal entailing sets."""
        hits = 0
        for kb, query in fuzz_corpus(123, 25, max_axioms=7):
            expected = powerset_justifications(kb, query)
            covering = all_justifications(kb, query, method)
            assert covering.justifications == expected
            hits += bool(expected)
        assert hits >= 5
