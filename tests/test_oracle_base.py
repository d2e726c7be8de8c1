"""Unit tests for the accounting oracle (caching, cost model)."""

from repro.db.tuples import fact
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.oracle.questions import QuestionKind, open_question_cost, result_question_cost
from repro.query.ast import Var
from repro.query.parser import parse_query
from repro.telemetry import telemetry_session
from repro.workloads import EX1


class TestCaching:
    def test_fact_question_asked_once(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        f = fact("teams", "ESP", "EU")
        assert oracle.verify_fact(f) is True
        assert oracle.verify_fact(f) is True
        assert oracle.log.question_count == 1  # cache hit is free

    def test_answer_question_asked_once(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        assert oracle.verify_answer(EX1, ("GER",)) is True
        assert oracle.verify_answer(EX1, ("GER",)) is True
        assert oracle.log.count_of([QuestionKind.VERIFY_ANSWER]) == 1

    def test_remember_fact_preempts_question(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        f = fact("teams", "ESP", "EU")
        oracle.remember_fact(f, False)  # inferred knowledge (even if wrong)
        assert oracle.verify_fact(f) is False
        assert oracle.log.question_count == 0

    def test_knows_fact(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        f = fact("teams", "ESP", "EU")
        assert not oracle.knows_fact(f)
        oracle.verify_fact(f)
        assert oracle.knows_fact(f)
        assert oracle.known_fact_value(f) is True

    def test_forget_clears_cache(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        f = fact("teams", "ESP", "EU")
        oracle.verify_fact(f)
        oracle.forget()
        oracle.verify_fact(f)
        assert oracle.log.question_count == 2  # re-asked after forget


class TestAnswerCacheStructuralKey:
    """Regression: the answer cache was keyed by ``(id(query), answer)``.

    Object ids are recycled, so a dead query's id could alias a fresh,
    structurally different query to a stale verdict — and two equal
    queries built separately (e.g. by concurrent dispatch tasks) never
    shared their verdicts.  The cache is now keyed by the query *value*.
    """

    EX1_TEXT = (
        'ex1(x) :- games(d1, x, y, "Final", u1), '
        'games(d2, x, z, "Final", u2), teams(x, "EU"), d1 != d2.'
    )

    def test_equal_queries_share_cached_verdicts(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        first = parse_query(self.EX1_TEXT)
        second = parse_query(self.EX1_TEXT)
        assert first == second and first is not second
        assert oracle.verify_answer(first, ("GER",)) is True
        # a distinct-but-equal query object hits the same cache entry
        assert oracle.verify_answer(second, ("GER",)) is True
        assert oracle.log.count_of([QuestionKind.VERIFY_ANSWER]) == 1

    def test_cache_entries_never_alias_distinct_questions(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        other = parse_query('q(x) :- teams(x, "EU").')
        assert oracle.verify_answer(EX1, ("GER",)) is True
        assert oracle.cached(("verify_answer", other, ("GER",))) is None
        assert oracle.cached(("verify_answer", EX1, ("BRA",))) is None
        oracle.verify_answer(other, ("GER",))
        assert oracle.log.count_of([QuestionKind.VERIFY_ANSWER]) == 2

    def test_remember_answer_preempts_question(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        oracle.remember(("verify_answer", EX1, ("GER",)), False)  # out of band
        assert oracle.verify_answer(parse_query(self.EX1_TEXT), ("GER",)) is False
        assert oracle.log.question_count == 0
        assert oracle.cached(("verify_answer", EX1, ("GER",))) is False


class TestPerfectOracleMemo:
    """Regression: ``PerfectOracle`` memoized ``Q(D_G)`` by ``id(query)``
    and kept every query alive to protect the ids.  A service worker
    decodes a fresh ``Query`` per leased question, so each question
    re-evaluated ``Q(D_G)`` in full and the memo grew without bound.
    The memo is now keyed by the query value."""

    def test_equal_queries_evaluate_once(self, fig1_gt):
        oracle = PerfectOracle(fig1_gt)
        text = TestAnswerCacheStructuralKey.EX1_TEXT
        with telemetry_session() as (tel, _):
            # a freshly parsed, equal query per question
            assert oracle.verify_answer(parse_query(text), ("GER",)) is True
            assert oracle.verify_answer(parse_query(text), ("ESP",)) is False
            assert oracle.complete_result(parse_query(text), [("GER",)]) == ("ITA",)
            assert tel.counter("evaluator.evaluations") == 1
        assert len(oracle._answers_cache) == 1
        assert not hasattr(oracle, "_query_by_id")


class TestCosts:
    def test_closed_cost_one(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        oracle.verify_fact(fact("teams", "ESP", "EU"))
        oracle.verify_answer(EX1, ("GER",))
        oracle.verify_candidate(EX1, {Var("x"): "GER"})
        assert oracle.log.total_cost == 3

    def test_complete_assignment_cost_counts_filled_vars(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        partial = {Var("x"): "GER"}
        result = oracle.complete_assignment(EX1, partial)
        assert result is not None
        filled = len(EX1.variables()) - 1
        assert oracle.log.total_cost == filled

    def test_complete_assignment_null_costs_one(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        assert oracle.complete_assignment(EX1, {Var("x"): "BRA"}) is None
        assert oracle.log.total_cost == 1

    def test_complete_result_cost(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        answer = oracle.complete_result(EX1, [("GER",)])
        assert answer == ("ITA",)
        assert oracle.log.cost_of([QuestionKind.COMPLETE_RESULT]) == 1


class TestCostHelpers:
    def test_open_question_cost_null(self):
        q = parse_query("q(x) :- r(x, y).")
        assert open_question_cost(q, {}, None) == 1

    def test_open_question_cost_counts_new_vars(self):
        q = parse_query("q(x) :- r(x, y, z).")
        x, y, z = Var("x"), Var("y"), Var("z")
        result = {x: 1, y: 2, z: 3}
        assert open_question_cost(q, {x: 1}, result) == 2
        assert open_question_cost(q, {}, result) == 3

    def test_result_question_cost(self):
        q = parse_query("q(x, y) :- r(x, y).")
        assert result_question_cost(q, (1, 2)) == 2
        assert result_question_cost(q, None) == 1

    def test_result_question_cost_repeated_head_var(self):
        q = parse_query("q(x, x) :- r(x, y).")
        assert result_question_cost(q, (1, 1)) == 1  # unique variables
