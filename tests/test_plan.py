"""The adaptive question planner (PR 9): signatures, bandit, cost model,
similarity reuse, capacity scheduling, and the bit-identical pinned-arm
anchor."""

from __future__ import annotations

import pytest

from repro.core.qoco import QOCO, QOCOConfig
from repro.dispatch.dedup import AnswerBoard
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.oracle.questions import question_key
from repro.plan import (
    ArmStats,
    BanditPlanner,
    CapacityScheduler,
    CostModel,
    UCB1,
    derive_seed,
    query_signature,
    similarity_key,
)
from repro.query.parser import parse_query
from repro.server.manager import SessionManager
from repro.server.policy import TenantPolicy
from repro.service.broker import QuestionBroker
from repro.telemetry import telemetry_session
from repro.workloads import EX1


# ---------------------------------------------------------------------------
# query-shape signatures
# ---------------------------------------------------------------------------
class TestQuerySignature:
    def test_invariant_under_variable_renaming(self):
        a = parse_query("q(x) :- r(x, y), s(y, z).")
        b = parse_query("q(u) :- r(u, v), s(v, w).")
        assert query_signature(a) == query_signature(b)

    def test_invariant_under_constant_substitution(self):
        a = parse_query('q(x) :- r(x, "Final").')
        b = parse_query('q(x) :- r(x, "Semi").')
        assert query_signature(a) == query_signature(b)

    def test_invariant_under_body_reordering(self):
        a = parse_query("q(x) :- r(x, y), s(y, z).")
        b = parse_query("q(x) :- s(y, z), r(x, y).")
        assert query_signature(a) == query_signature(b)

    def test_distinguishes_join_structure(self):
        chain = parse_query("q(x) :- r(x, y), s(y, z).")
        star = parse_query("q(x) :- r(x, y), s(x, z).")
        assert query_signature(chain) != query_signature(star)

    def test_distinguishes_constant_positions(self):
        free = parse_query("q(x) :- r(x, y).")
        bound = parse_query('q(x) :- r(x, "EU").')
        assert query_signature(free) != query_signature(bound)

    def test_inequalities_participate(self):
        plain = parse_query("q(x) :- r(x, y), r(x, z).")
        strict = parse_query("q(x) :- r(x, y), r(x, z), y != z.")
        assert query_signature(plain) != query_signature(strict)

    def test_signature_is_hashable(self):
        assert hash(query_signature(EX1)) == hash(query_signature(EX1))


# ---------------------------------------------------------------------------
# UCB1 + cost model
# ---------------------------------------------------------------------------
class TestUCB1:
    def test_unplayed_arms_first_in_registration_order(self):
        bandit = UCB1(("a", "b", "c"), seed=0)
        assert bandit.select({}) == "a"
        assert bandit.select({"a": ArmStats(1, 5.0, 5)}) == "b"

    def test_prefers_cheaper_arm_once_explored(self):
        bandit = UCB1(("cheap", "dear"), exploration=0.1, seed=0)
        stats = {
            "cheap": ArmStats(20, 20.0, 20),  # mean 1.0
            "dear": ArmStats(20, 200.0, 200),  # mean 10.0
        }
        assert bandit.select(stats) == "cheap"

    def test_single_arm_consumes_no_randomness(self):
        bandit = UCB1(("only",), seed=7)
        before = bandit._rng.getstate()
        for _ in range(5):
            assert bandit.select({}) == "only"
        assert bandit._rng.getstate() == before

    def test_tie_break_is_seeded(self):
        stats = {"a": ArmStats(3, 3.0, 3), "b": ArmStats(3, 3.0, 3)}
        picks = [UCB1(("a", "b"), seed=11).select(stats) for _ in range(3)]
        assert len(set(picks)) == 1  # same seed, same pick, every time


class TestCostModel:
    SIG = ("cq", (0,), ((False, "r", (0, 1)),), ())

    def test_records_and_averages(self):
        model = CostModel()
        model.record(self.SIG, "mincut", 4.0, 4)
        model.record(self.SIG, "mincut", 2.0, 2)
        stats = model.stats(self.SIG, ("mincut",))["mincut"]
        assert stats.pulls == 2
        assert stats.mean_cost == pytest.approx(3.0)
        assert stats.questions == 6

    def test_global_prior_backs_unseen_shapes(self):
        model = CostModel()
        model.record(self.SIG, "naive", 8.0, 8)
        other = ("cq", (0,), ((False, "s", (0,)),), ())
        prior = model.stats(other, ("naive",))["naive"]
        assert prior.pulls == 1 and prior.mean_cost == pytest.approx(8.0)

    def test_estimate_is_best_observed_mean(self):
        model = CostModel()
        assert model.estimate(self.SIG) == 0.0
        model.record(self.SIG, "naive", 9.0, 9)
        model.record(self.SIG, "mincut", 3.0, 3)
        assert model.estimate(self.SIG) == pytest.approx(3.0)

    def test_snapshot_warm_start_round_trip(self):
        model = CostModel()
        model.record(self.SIG, "mincut", 5.0, 5)
        model.record(self.SIG, "naive", 1.0, 1)
        fresh = CostModel()
        assert fresh.warm_start(model.snapshot(), ("mincut", "naive")) == 2
        assert fresh.estimate(self.SIG) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# the bandit planner
# ---------------------------------------------------------------------------
class TestBanditPlanner:
    def test_unknown_arm_fails_at_construction(self):
        with pytest.raises(Exception, match="no-such-split"):
            BanditPlanner(arms=("no-such-split",))

    def test_learns_the_cheap_arm(self):
        planner = BanditPlanner(arms=("naive", "mincut"), seed=0, exploration=0.5)
        query = parse_query("q(x) :- r(x, y), s(y, z).")
        for _ in range(60):
            choice = planner.choose(query)
            cost = 1.0 if choice.arm == "mincut" else 6.0
            planner.observe(choice, cost=cost, questions=int(cost))
        stats = planner.cost_model.stats(query_signature(query), planner.arms)
        assert stats["mincut"].pulls > stats["naive"].pulls
        assert planner.estimate(query) == pytest.approx(1.0)

    def test_same_seed_same_decision_sequence(self):
        query = parse_query("q(x) :- r(x, y), s(y, z).")

        def run(seed):
            planner = BanditPlanner(arms=("naive", "random", "mincut"), seed=seed)
            arms = []
            for step in range(25):
                choice = planner.choose(query)
                arms.append(choice.arm)
                planner.observe(
                    choice, cost=float(step % 3) + 1.0, questions=step % 3 + 1
                )
            return arms

        assert run(5) == run(5)

    def test_per_shape_bandits_are_independent(self):
        planner = BanditPlanner(arms=("naive", "mincut"), seed=0)
        chain = parse_query("q(x) :- r(x, y), s(y, z).")
        star = parse_query("q(x) :- r(x, y), s(x, z).")
        planner.choose(chain)
        planner.choose(star)
        assert len(planner._bandits) == 2

    def test_telemetry_counters(self):
        planner = BanditPlanner(arms=("naive", "mincut"), seed=0)
        query = parse_query("q(x) :- r(x, y).")
        with telemetry_session() as (hub, sink):
            choice = planner.choose(query)
            planner.observe(choice, cost=2.5, questions=3)
            assert hub.counter("plan.decisions") == 1
            assert hub.counter("plan.episodes") == 1
            assert hub.counter(f"plan.pulls.{choice.arm}") == 1
            assert hub.counter(f"plan.cost.{choice.arm}") == pytest.approx(2.5)
            assert hub.counter(f"plan.questions.{choice.arm}") == 3

    def test_derive_seed_is_stable_and_label_sensitive(self):
        assert derive_seed(3, "planner") == derive_seed(3, "planner")
        assert derive_seed(3, "planner") != derive_seed(3, "other")
        assert derive_seed(None, "planner") == derive_seed(0, "planner")


# ---------------------------------------------------------------------------
# the correctness anchor: pinned planner == static strategy, bit for bit
# ---------------------------------------------------------------------------
class TestPinnedArmParity:
    @pytest.mark.parametrize("arm", ["mincut", "provenance"])
    def test_pinned_bandit_matches_static_run(self, fig1_gt, arm):
        from repro.datasets.figure1 import figure1_dirty

        static_db = figure1_dirty()
        static_oracle = AccountingOracle(PerfectOracle(fig1_gt))
        static = QOCO(
            static_db, static_oracle, QOCOConfig(split=arm, seed=0)
        ).clean(EX1)

        pinned_db = figure1_dirty()
        pinned_oracle = AccountingOracle(PerfectOracle(fig1_gt))
        pinned = QOCO(
            pinned_db,
            pinned_oracle,
            QOCOConfig(planner=BanditPlanner(arms=(arm,), seed=0), seed=0),
        ).clean(EX1)

        assert pinned_db.state_digest() == static_db.state_digest()
        assert [(e.kind.value, e.fact) for e in pinned.edits] == [
            (e.kind.value, e.fact) for e in static.edits
        ]
        assert pinned_oracle.log.to_dicts() == static_oracle.log.to_dicts()
        assert pinned_oracle.log.total_cost == static_oracle.log.total_cost

    def test_same_seed_bandit_replays_bit_identical(self, fig1_gt):
        """Satellite: the planner RNG derives from the session seed, so a
        same-seed adaptive run is a bit-identical replay."""
        from repro.datasets.figure1 import figure1_dirty

        def run():
            db = figure1_dirty()
            oracle = AccountingOracle(PerfectOracle(fig1_gt))
            report = QOCO(
                db, oracle, QOCOConfig(planner="bandit", seed=42)
            ).clean(EX1)
            return (
                db.state_digest(),
                [(e.kind.value, e.fact) for e in report.edits],
                oracle.log.to_dicts(),
            )

        assert run() == run()

    def test_adaptive_run_still_cleans(self, fig1_gt):
        from repro.datasets.figure1 import figure1_dirty
        from repro.query.evaluator import evaluate

        db = figure1_dirty()
        report = QOCO(
            db,
            AccountingOracle(PerfectOracle(fig1_gt)),
            QOCOConfig(planner="bandit", seed=1),
        ).clean(EX1)
        assert report.converged
        assert evaluate(EX1, db) == evaluate(EX1, fig1_gt)


# ---------------------------------------------------------------------------
# similarity-based answer reuse
# ---------------------------------------------------------------------------
class TestSimilarityKeys:
    def test_renamed_queries_share_a_class(self):
        a = parse_query('q(x) :- teams(x, "EU"), games(d, x, y, w, u).')
        b = parse_query('q(p) :- teams(p, "EU"), games(e, p, r, s, t).')
        ka = similarity_key(question_key(("verify_answer", a, ("ESP",))))
        kb = similarity_key(question_key(("verify_answer", b, ("ESP",))))
        assert ka is not None
        assert ka == kb

    def test_constants_are_payload_not_shape(self):
        a = parse_query('q(x) :- teams(x, "EU").')
        ka = similarity_key(question_key(("verify_answer", a, ("ESP",))))
        kb = similarity_key(question_key(("verify_answer", a, ("GER",))))
        assert ka != kb

    def test_open_questions_have_no_class(self):
        assert similarity_key(("complete_result", EX1, ())) is None
        fact_key = question_key(("verify_fact", ("teams", "ESP", "EU")))
        assert similarity_key(fact_key) is None

    def test_board_serves_renamed_twin(self):
        a = parse_query("q(x) :- r(x, y), s(y, z).")
        b = parse_query("q(u) :- s(v, w), r(u, v).")
        board = AnswerBoard(similarity=True)
        key_a = ("verify_answer", a, ("1",))
        key_b = ("verify_answer", b, ("1",))
        board.put(key_a, True)
        assert board.get(key_b) is None  # exact identity still misses
        assert board.get_similar(key_b) is True
        assert board.similarity_hits == 1

    def test_disabled_board_never_matches(self):
        a = parse_query("q(x) :- r(x, y).")
        b = parse_query("q(u) :- r(u, v).")
        board = AnswerBoard()
        board.put(("verify_answer", a, ("1",)), True)
        assert board.get_similar(("verify_answer", b, ("1",))) is None

    def test_broker_coalesces_renamed_twin(self):
        a = parse_query("q(x) :- r(x, y), s(y, z).")
        b = parse_query("q(u) :- s(v, w), r(u, v).")
        broker = QuestionBroker(similarity=True)
        first = broker.submit(
            "verify_answer", {"n": 1}, question_key(("verify_answer", a, ("1",)))
        )
        twin = broker.submit(
            "verify_answer", {"n": 2}, question_key(("verify_answer", b, ("1",)))
        )
        assert twin is first
        assert broker.similarity_coalesced == 1
        assert first.subscribers == 2

    def test_broker_similarity_off_by_default(self):
        a = parse_query("q(x) :- r(x, y).")
        b = parse_query("q(u) :- r(u, v).")
        broker = QuestionBroker()
        first = broker.submit(
            "verify_answer", {}, question_key(("verify_answer", a, ("1",)))
        )
        twin = broker.submit(
            "verify_answer", {}, question_key(("verify_answer", b, ("1",)))
        )
        assert twin is not first
        assert broker.similarity_coalesced == 0


# ---------------------------------------------------------------------------
# tenant-aware capacity scheduling
# ---------------------------------------------------------------------------
class TestCapacityScheduler:
    def test_score_prefers_many_subscribers_and_priority(self):
        sched = CapacityScheduler()

        class Q:
            kind = "verify_fact"
            subscribers = 1
            priority = 1.0
            votes_needed = 1
            votes = {}

        solo, duo = Q(), Q()
        duo.subscribers = 3
        assert sched.score(duo, 0.0) > sched.score(solo, 0.0)
        vip = Q()
        vip.priority = 5.0
        assert sched.score(vip, 0.0) > sched.score(solo, 0.0)

    def test_open_questions_cost_more(self):
        sched = CapacityScheduler()

        class Q:
            subscribers = 1
            priority = 1.0
            votes_needed = 1
            votes = {}

        closed, open_ = Q(), Q()
        closed.kind = "verify_fact"
        open_.kind = "complete_result"
        assert sched.score(closed, 0.0) > sched.score(open_, 0.0)

    def test_broker_completion_questions_priced_as_open(self):
        # broker questions carry QuestionKind values: COMPL(alpha, Q) is
        # "complete_assignment", an open question priced 2.0
        sched = CapacityScheduler()
        broker = QuestionBroker()
        question = broker.submit("complete_assignment", {}, None)
        assert sched.score(question, 0.0) == pytest.approx(1.0 / 2.0)

    def test_broker_lease_is_fifo_without_scheduler(self):
        broker = QuestionBroker()
        first = broker.submit("verify_fact", {}, None, priority=1.0)
        broker.submit("verify_fact", {}, None, priority=9.0)
        assert broker.lease("w", 0.0)["qid"] == first.qid

    def test_broker_lease_follows_scheduler_scores(self):
        broker = QuestionBroker(scheduler=CapacityScheduler())
        broker.submit("verify_fact", {}, None, priority=1.0)
        vip = broker.submit("verify_fact", {}, None, priority=9.0)
        assert broker.lease("w", 0.0)["qid"] == vip.qid

    def test_coalesced_questions_jump_the_queue(self):
        broker = QuestionBroker(scheduler=CapacityScheduler())
        broker.submit("verify_fact", {}, "k-solo")
        crowd = broker.submit("verify_fact", {}, "k-duo")
        assert broker.submit("verify_fact", {}, "k-duo") is crowd
        assert broker.lease("w", 0.0)["qid"] == crowd.qid

    def test_equal_scores_fall_back_to_age(self):
        broker = QuestionBroker(scheduler=CapacityScheduler())
        first = broker.submit("verify_fact", {}, None)
        broker.submit("verify_fact", {}, None)
        assert broker.lease("w", 0.0)["qid"] == first.qid


# ---------------------------------------------------------------------------
# planner-aware session admission
# ---------------------------------------------------------------------------
class _FixedEstimate:
    """A planner stub: estimate() by query name, never chooses."""

    def __init__(self, costs):
        self.costs = costs

    def estimate(self, query):
        return self.costs.get(query.name, 0.0)


class TestAdmission:
    def _drain_order(self, manager, sessions):
        order = []
        original = manager._drive

        def spy(session):
            order.append(session.query.name)
            original(session)

        manager._drive = spy
        manager.run_all()
        return order

    def test_cheapest_expected_first_among_equal_priority(self, fig1_gt):
        dear = parse_query('dear(x) :- teams(x, "EU").')
        cheap = parse_query('cheap(x) :- teams(x, "SA").')
        manager = SessionManager(
            fig1_gt.copy(),
            max_concurrent=1,
            planner=_FixedEstimate({"dear": 9.0, "cheap": 1.0}),
        )
        oracle = PerfectOracle(fig1_gt)
        manager.open_session(dear, oracle)
        manager.open_session(cheap, oracle)
        assert self._drain_order(manager, 2) == ["cheap", "dear"]

    def test_priority_still_dominates_cost(self, fig1_gt):
        dear = parse_query('dear(x) :- teams(x, "EU").')
        cheap = parse_query('cheap(x) :- teams(x, "SA").')
        manager = SessionManager(
            fig1_gt.copy(),
            max_concurrent=1,
            planner=_FixedEstimate({"dear": 9.0, "cheap": 1.0}),
        )
        oracle = PerfectOracle(fig1_gt)
        manager.open_session(dear, oracle, policy=TenantPolicy(priority=1))
        manager.open_session(cheap, oracle)
        assert self._drain_order(manager, 2) == ["dear", "cheap"]

    def test_no_planner_keeps_submission_order(self, fig1_gt):
        dear = parse_query('dear(x) :- teams(x, "EU").')
        cheap = parse_query('cheap(x) :- teams(x, "SA").')
        manager = SessionManager(fig1_gt.copy(), max_concurrent=1)
        oracle = PerfectOracle(fig1_gt)
        manager.open_session(dear, oracle)
        manager.open_session(cheap, oracle)
        assert self._drain_order(manager, 2) == ["dear", "cheap"]

    def test_manager_accepts_planner_by_name(self, fig1_gt):
        manager = SessionManager(fig1_gt.copy(), planner="bandit")
        assert isinstance(manager.planner, BanditPlanner)
