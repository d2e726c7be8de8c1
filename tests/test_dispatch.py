"""Unit and property tests for the live crowd-dispatch engine.

Covers the policy objects (retry/fault/budget), the worker pool's
availability model, structural question identity, and the engine's
behaviour under faults, budgets, and deduplication.  The differential
contracts (dispatch ≡ synchronous loop ≡ crowd-simulator replay) live
in ``test_dispatch_differential.py``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qoco_strategies import databases, queries
from repro.db.tuples import fact
from repro.dispatch import (
    Budget,
    DispatchEngine,
    FaultKind,
    FaultModel,
    RetryPolicy,
    WorkerPool,
    dispatch_clean,
    perfect_pool,
)
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.oracle.questions import QuestionKind, question_key
from repro.query.ast import Var
from repro.query.evaluator import evaluate
from repro.workloads import EX1


def constant_latency(seconds: float = 100.0):
    return lambda rng: seconds


class ScriptedRng:
    """A fake RNG whose ``random()`` pops scripted values (then 0.99)."""

    def __init__(self, values):
        self.values = list(values)

    def random(self) -> float:
        return self.values.pop(0) if self.values else 0.99


def make_engine(gt, n_workers: int = 4, inbox_capacity=None, **kwargs):
    """An engine over a perfect pool, bound to a fresh accounting oracle."""
    pool = perfect_pool(gt, n_workers, inbox_capacity=inbox_capacity)
    kwargs.setdefault("latency", constant_latency())
    kwargs.setdefault("rng", random.Random(5))
    engine = DispatchEngine(pool, **kwargs)
    oracle = AccountingOracle(PerfectOracle(gt))
    engine.bind(oracle)
    return engine, oracle


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(timeout=60.0, backoff_base=10.0, backoff_factor=3.0)
        assert policy.delay(0) == 10.0
        assert policy.delay(1) == 30.0
        assert policy.delay(2) == 90.0

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_rejects_shrinking_backoff(self):
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestFaultModel:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultModel(no_show_rate=1.5)
        with pytest.raises(ValueError):
            FaultModel(late_factor=0.5)

    def test_active_and_lossy(self):
        assert not FaultModel().active
        assert FaultModel(late_rate=0.1).active
        assert not FaultModel(late_rate=0.1).lossy
        assert FaultModel(no_show_rate=0.1).lossy
        assert FaultModel(dropout_rate=0.1).lossy

    def test_draw_priority_order(self):
        model = FaultModel(
            no_show_rate=1.0, dropout_rate=1.0, late_rate=1.0,
            rng=random.Random(0),
        )
        assert model.draw() is FaultKind.DROPOUT
        assert FaultModel(
            no_show_rate=1.0, late_rate=1.0, rng=random.Random(0)
        ).draw() is FaultKind.NO_SHOW
        assert FaultModel(late_rate=1.0, rng=random.Random(0)).draw() is FaultKind.LATE

    def test_inactive_model_never_draws(self):
        assert FaultModel().draw() is None


class TestBudget:
    def test_cost_exhaustion(self):
        budget = Budget(max_cost=5)
        assert not budget.cost_exhausted()
        budget.charge(5)
        assert budget.cost_exhausted()
        assert budget.exhausted(0.0)

    def test_deadline_exhaustion(self):
        budget = Budget(deadline=100.0)
        assert not budget.time_exhausted(99.9)
        assert budget.time_exhausted(100.0)
        assert not budget.cost_exhausted()

    def test_unbounded_never_exhausts(self):
        budget = Budget()
        budget.charge(10**9)
        assert not budget.exhausted(10**9)

    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(max_cost=-1)
        with pytest.raises(ValueError):
            Budget(deadline=-1.0)


# ---------------------------------------------------------------------------
# the worker pool
# ---------------------------------------------------------------------------


class TestWorkerPool:
    def _pool(self, gt, n=3, **kwargs):
        return perfect_pool(gt, n, **kwargs)

    def test_needs_members(self):
        with pytest.raises(ValueError):
            WorkerPool([])

    def test_inbox_capacity_validated(self, fig1_gt):
        with pytest.raises(ValueError):
            self._pool(fig1_gt, inbox_capacity=0)

    def test_acquire_earliest_free(self, fig1_gt):
        pool = self._pool(fig1_gt)
        first = pool.acquire(0.0)
        pool.commit(first, 100.0)
        second = pool.acquire(0.0)
        pool.commit(second, 50.0)
        third = pool.acquire(0.0)
        pool.commit(third, 200.0)
        assert {first.worker_id, second.worker_id, third.worker_id} == {0, 1, 2}
        # all busy now: the earliest-free (50.0) worker comes back first
        assert pool.acquire(0.0).worker_id == second.worker_id

    def test_exclusion_skips_workers(self, fig1_gt):
        pool = self._pool(fig1_gt)
        worker = pool.acquire(0.0, exclude=frozenset({0, 1}))
        assert worker.worker_id == 2

    def test_all_excluded_spills_to_earliest(self, fig1_gt):
        pool = self._pool(fig1_gt)
        worker = pool.acquire(0.0, exclude=frozenset({0, 1, 2}))
        assert worker is not None  # the question must go somewhere

    def test_saturated_inbox_rejected_and_counted(self, fig1_gt):
        pool = self._pool(fig1_gt, n=2, inbox_capacity=1)
        w0 = pool.acquire(0.0)
        w0.occupy(0.0, 100.0)
        pool.commit(w0, 100.0)
        w1 = pool.acquire(0.0)
        assert w1.worker_id != w0.worker_id
        w1.occupy(0.0, 100.0)
        pool.commit(w1, 100.0)
        # both saturated at t=0: skipped (counted), then spill
        spilled = pool.acquire(0.0)
        assert spilled is not None
        assert pool.inbox_rejections == 2
        # once the windows close the same workers are eligible again
        assert pool.acquire(150.0).inbox_depth(150.0) == 0

    def test_dropout_leaves_for_good(self, fig1_gt):
        pool = self._pool(fig1_gt, n=2)
        w0 = pool.acquire(0.0)
        pool.drop(w0)
        assert pool.alive_count == 1
        survivor = pool.acquire(0.0)
        pool.commit(survivor, 10.0)
        assert survivor.worker_id != w0.worker_id
        assert pool.acquire(0.0).worker_id == survivor.worker_id

    def test_empty_pool_returns_none(self, fig1_gt):
        pool = self._pool(fig1_gt, n=1)
        pool.drop(pool.workers[0])
        assert pool.acquire(0.0) is None


# ---------------------------------------------------------------------------
# structural question identity
# ---------------------------------------------------------------------------


class TestQuestionKey:
    def test_closed_kinds_are_keyed(self):
        f = fact("teams", "ESP", "EU")
        assert question_key(("verify_fact", f)) == ("verify_fact", f)
        key = question_key(("verify_answer", EX1, ("GER",)))
        assert key == ("verify_answer", EX1, ("GER",))

    def test_candidate_key_ignores_mapping_order(self):
        x, y = Var("x"), Var("y")
        a = question_key(("verify_candidate", EX1, {x: "GER", y: "ARG"}))
        b = question_key(("verify_candidate", EX1, {y: "ARG", x: "GER"}))
        assert a == b

    def test_open_kinds_never_keyed(self):
        assert question_key(("complete_assignment", EX1, {})) is None
        assert question_key(("complete_result", EX1, frozenset())) is None

    def test_keys_are_value_based(self, fig1_gt):
        # two distinct-but-equal facts coalesce; distinct facts never do
        assert question_key(
            ("verify_fact", fact("teams", "ESP", "EU"))
        ) == question_key(("verify_fact", fact("teams", "ESP", "EU")))
        assert question_key(
            ("verify_fact", fact("teams", "ESP", "EU"))
        ) != question_key(("verify_fact", fact("teams", "ITA", "EU")))


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


class TestEngineValidation:
    def test_needs_votes(self, fig1_gt):
        with pytest.raises(ValueError):
            DispatchEngine(perfect_pool(fig1_gt, 2), votes_per_closed=0)

    def test_lossy_faults_require_timeout(self, fig1_gt):
        with pytest.raises(ValueError, match="timeout"):
            DispatchEngine(
                perfect_pool(fig1_gt, 2),
                faults=FaultModel(no_show_rate=0.1),
            )
        # non-lossy faults are fine without one
        DispatchEngine(
            perfect_pool(fig1_gt, 2), faults=FaultModel(late_rate=0.1)
        )

    def test_unbound_engine_refuses_rounds(self, fig1_gt):
        engine = DispatchEngine(perfect_pool(fig1_gt, 2))
        with pytest.raises(RuntimeError, match="not bound"):
            engine.resolve_round([("verify_fact", fact("teams", "ESP", "EU"))])

    def test_one_engine_per_session(self, fig1_gt):
        engine, _ = make_engine(fig1_gt)
        with pytest.raises(RuntimeError, match="already bound"):
            engine.bind(AccountingOracle(PerfectOracle(fig1_gt)))


class TestEngineRounds:
    def test_cached_fact_answered_free(self, fig1_gt):
        engine, oracle = make_engine(fig1_gt)
        f = fact("teams", "ESP", "EU")
        oracle.remember_fact(f, False)
        assert engine.resolve_round([("verify_fact", f)]) == [False]
        assert engine.stats.cache_hits == 1
        assert oracle.log.question_count == 0
        assert engine.wall_clock == 0.0

    def test_duplicate_closed_questions_coalesce(self, fig1_gt):
        engine, oracle = make_engine(fig1_gt, votes_per_closed=3)
        f = fact("teams", "ESP", "EU")
        answers = engine.resolve_round([("verify_fact", f), ("verify_fact", f)])
        assert answers == [True, True]
        assert oracle.log.question_count == 1
        assert engine.stats.member_answers == 3  # one shared vote sample
        assert engine.stats.dedup_coalesced == 1

    def test_naive_mode_pays_for_every_duplicate(self, fig1_gt):
        engine, oracle = make_engine(fig1_gt, votes_per_closed=3, dedup=False)
        f = fact("teams", "ESP", "EU")
        engine.resolve_round([("verify_fact", f), ("verify_fact", f)])
        assert oracle.log.question_count == 2
        assert engine.stats.member_answers == 6
        assert engine.stats.dedup_coalesced == 0

    def test_cache_commits_land_at_round_end(self, fig1_gt):
        engine, oracle = make_engine(fig1_gt)
        f = fact("teams", "ESP", "EU")
        assert not oracle.knows_fact(f)
        engine.resolve_round([("verify_fact", f)])
        assert oracle.known_fact_value(f) is True
        # the next round answers it from the cache, free
        engine.resolve_round([("verify_fact", f)])
        assert engine.stats.cache_hits == 1
        assert oracle.log.question_count == 1

    def test_open_questions_never_coalesce(self, fig1_gt):
        engine, oracle = make_engine(fig1_gt)
        request = ("complete_result", EX1, frozenset())
        engine.resolve_round([request, request])
        assert oracle.log.count_of([QuestionKind.COMPLETE_RESULT]) == 2
        assert engine.stats.dedup_coalesced == 0

    def test_same_kind_questions_run_in_parallel(self, fig1_gt):
        engine, _ = make_engine(fig1_gt, votes_per_closed=1)
        engine.resolve_round(
            [
                ("verify_fact", fact("teams", "ESP", "EU")),
                ("verify_fact", fact("teams", "ITA", "EU")),
            ]
        )
        ends = [c.completed_at for c in engine.timeline.completions]
        assert ends == [100.0, 100.0]  # two workers, one wave

    def test_kind_change_is_a_wave_barrier(self, fig1_gt):
        engine, _ = make_engine(fig1_gt, votes_per_closed=1)
        engine.resolve_round(
            [
                ("verify_fact", fact("teams", "ESP", "EU")),
                ("verify_answer", EX1, ("GER",)),
            ]
        )
        ends = [c.completed_at for c in engine.timeline.completions]
        assert ends == [100.0, 200.0]  # the answer wave waits for the facts
        assert engine.wall_clock == 200.0


class TestEngineFaults:
    def test_no_show_exhausts_retries_then_degrades(self, fig1_gt):
        engine, oracle = make_engine(
            fig1_gt,
            votes_per_closed=1,
            faults=FaultModel(no_show_rate=1.0, rng=random.Random(0)),
            retry=RetryPolicy(timeout=50.0, max_retries=2),
        )
        answers = engine.resolve_round(
            [("verify_fact", fact("teams", "XXX", "EU"))]
        )
        assert answers == [True]  # conservative fallback: never delete
        assert engine.degraded
        assert engine.stats.no_shows == 3  # original + 2 retries
        assert engine.stats.timeouts == 3
        assert engine.stats.retries == 2
        assert engine.stats.unanswered == 1
        assert oracle.log.question_count == 0  # nothing was ever answered

    def test_retries_reroute_to_fresh_workers(self, fig1_gt):
        engine, _ = make_engine(
            fig1_gt,
            n_workers=4,
            votes_per_closed=1,
            faults=FaultModel(no_show_rate=1.0, rng=random.Random(0)),
            retry=RetryPolicy(timeout=50.0, max_retries=2, reroute=True),
        )
        engine.resolve_round([("verify_fact", fact("teams", "ESP", "EU"))])
        hit = [w.worker_id for w in engine.pool.workers if w.no_shows]
        assert len(hit) == 3  # three distinct workers tried

    def test_dropouts_can_drain_the_pool(self, fig1_gt):
        engine, _ = make_engine(
            fig1_gt,
            n_workers=2,
            votes_per_closed=1,
            faults=FaultModel(dropout_rate=1.0, rng=random.Random(0)),
            retry=RetryPolicy(timeout=50.0, max_retries=5),
        )
        answers = engine.resolve_round(
            [("verify_fact", fact("teams", "ESP", "EU"))]
        )
        assert answers == [True]
        assert engine.stats.dropouts == 2
        assert engine.pool.alive_count == 0
        assert engine.stats.no_workers >= 1
        assert engine.degraded  # never hangs, degrades instead

    def test_late_answer_past_timeout_is_discarded(self, fig1_gt):
        engine, _ = make_engine(
            fig1_gt,
            votes_per_closed=1,
            latency=constant_latency(10.0),
            faults=FaultModel(
                late_rate=1.0, late_factor=4.0, rng=random.Random(0)
            ),
            retry=RetryPolicy(timeout=20.0, max_retries=1),
        )
        engine.resolve_round([("verify_fact", fact("teams", "ESP", "EU"))])
        # every attempt answers at 40s > 20s timeout: collected, discarded
        assert engine.stats.late_answers == 2
        assert engine.stats.member_answers == 2
        assert engine.stats.discarded_answers == 2
        assert engine.stats.unanswered == 1

    def test_late_answer_within_timeout_counts(self, fig1_gt):
        engine, oracle = make_engine(
            fig1_gt,
            votes_per_closed=1,
            latency=constant_latency(10.0),
            faults=FaultModel(
                late_rate=1.0, late_factor=1.5, rng=random.Random(0)
            ),
            retry=RetryPolicy(timeout=20.0),
        )
        assert engine.resolve_round(
            [("verify_fact", fact("teams", "ESP", "EU"))]
        ) == [True]
        assert engine.stats.late_answers == 1
        assert engine.stats.discarded_answers == 0
        assert oracle.log.question_count == 1

    def test_partial_vote_sample_still_decides(self, fig1_gt):
        # vote 2 draws the only no-show and has no retries left: the
        # question is decided on 2 of 3 votes and flagged partial
        engine, oracle = make_engine(
            fig1_gt,
            votes_per_closed=3,
            faults=FaultModel(
                no_show_rate=0.5, rng=ScriptedRng([0.9, 0.1, 0.9])
            ),
            retry=RetryPolicy(timeout=150.0, max_retries=0),
        )
        assert engine.resolve_round(
            [("verify_fact", fact("teams", "ESP", "EU"))]
        ) == [True]
        assert engine.stats.partial_votes == 1
        assert oracle.log.question_count == 1

    def test_bounded_inbox_spreads_votes(self, fig1_gt):
        engine, _ = make_engine(
            fig1_gt, n_workers=2, inbox_capacity=1, votes_per_closed=4
        )
        engine.resolve_round([("verify_fact", fact("teams", "ESP", "EU"))])
        assert engine.pool.inbox_rejections >= 1


class TestEngineBudgets:
    def test_cost_exhaustion_denies_with_conservative_fallbacks(self, fig1_gt):
        engine, oracle = make_engine(fig1_gt, budget=Budget(max_cost=0))
        answers = engine.resolve_round(
            [
                ("verify_fact", fact("teams", "ESP", "EU")),
                ("verify_answer", EX1, ("GER",)),
                ("verify_candidate", EX1, {Var("x"): "GER"}),
                ("complete_assignment", EX1, {}),
                ("complete_result", EX1, frozenset()),
            ]
        )
        assert answers == [True, True, False, None, None]
        assert engine.degraded
        assert engine.stats.budget_denied == 5
        assert oracle.log.question_count == 0  # denied questions leave no trace

    def test_cost_budget_lets_inflight_work_finish(self, fig1_gt):
        engine, oracle = make_engine(fig1_gt, budget=Budget(max_cost=1))
        engine.resolve_round(
            [
                ("verify_fact", fact("teams", "ESP", "EU")),
                ("verify_fact", fact("teams", "ITA", "EU")),
            ]
        )
        # the first question fit the budget; the second found it spent
        assert oracle.log.question_count == 1
        assert engine.stats.budget_denied == 1
        assert engine.budget.spent == 1

    def test_deadline_checked_against_round_start(self, fig1_gt):
        engine, oracle = make_engine(fig1_gt, budget=Budget(deadline=50.0))
        f1, f2 = fact("teams", "ESP", "EU"), fact("teams", "ITA", "EU")
        # round 1 starts at t=0 < deadline: both questions run (to 100s)
        engine.resolve_round([("verify_fact", f1)])
        assert oracle.log.question_count == 1
        # round 2 starts past the deadline: denied without posting
        engine.resolve_round([("verify_fact", f2)])
        assert oracle.log.question_count == 1
        assert engine.stats.budget_denied == 1
        assert engine.degraded


class TestDispatchClean:
    def test_fault_free_session_matches_synchronous(self, fig1_gt, fig1_dirty):
        from repro.core.parallel import ParallelQOCO

        sync_db = fig1_dirty.copy()
        sync = ParallelQOCO(
            sync_db, AccountingOracle(PerfectOracle(fig1_gt)), seed=5
        ).clean(EX1)
        report, engine = dispatch_clean(
            fig1_dirty, EX1, [PerfectOracle(fig1_gt)] * 4, seed=5
        )
        assert not fig1_dirty.symmetric_difference(sync_db)
        assert report.log.to_dicts() == sync.log.to_dicts()
        assert report.rounds == sync.rounds
        assert report.converged
        assert report.wall_clock == engine.wall_clock > 0.0
        assert "simulated wall-clock" in report.summary()

    def test_budget_exhaustion_reports_non_convergence(self, fig1_gt, fig1_dirty):
        report, engine = dispatch_clean(
            fig1_dirty,
            EX1,
            [PerfectOracle(fig1_gt)] * 4,
            budget=Budget(max_cost=2),
            seed=5,
        )
        assert not report.converged
        assert engine.degraded
        assert report.total_cost <= 2
        assert engine.stats.budget_denied > 0
        assert "[did not converge]" in report.summary()


# ---------------------------------------------------------------------------
# property: faults + retries never change the cleaning outcome
# ---------------------------------------------------------------------------


@given(
    gt=databases(max_size=15),
    dirty=databases(max_size=15),
    query=queries(),
    fault_seed=st.integers(0, 2**16),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_faulted_cleaning_matches_fault_free(gt, dirty, query, fault_seed):
    """Injected no-shows/late answers with retries enabled leave the
    final database identical to the fault-free dispatch run: faults cost
    retries and wall-clock, never correctness (unless the engine had to
    degrade, which it must then report)."""
    members = [PerfectOracle(gt)] * 4

    baseline_db = dirty.copy()
    baseline, _ = dispatch_clean(
        baseline_db, query, members,
        latency=constant_latency(60.0), seed=0,
    )

    faulted_db = dirty.copy()
    faulted, engine = dispatch_clean(
        faulted_db, query, members,
        latency=constant_latency(60.0), seed=0,
        faults=FaultModel(
            no_show_rate=0.25, late_rate=0.25, late_factor=4.0,
            rng=random.Random(fault_seed),
        ),
        retry=RetryPolicy(timeout=100.0, max_retries=8),
    )

    if engine.stats.fallbacks == 0:
        assert not faulted_db.symmetric_difference(baseline_db)
        assert faulted.converged == baseline.converged
        if baseline.converged:
            assert evaluate(query, faulted_db) == evaluate(query, gt)
    else:
        # a vote slot lost every retry: the run must say so, not hang
        assert not faulted.converged


# ---------------------------------------------------------------------------
# the answer board's cursor contract
# ---------------------------------------------------------------------------


class TestAnswerBoardCursor:
    """Pins the concurrent-append contract documented on
    :meth:`repro.dispatch.dedup.AnswerBoard.entries`: an integer cursor
    advanced by slice length observes every published entry exactly
    once, in publication order, while writers keep appending."""

    def test_cursor_sees_every_entry_exactly_once_under_concurrent_appends(self):
        import threading

        from repro.dispatch import AnswerBoard

        board = AnswerBoard()
        writers, per_writer = 4, 200
        start = threading.Barrier(writers + 1)

        def write(w: int) -> None:
            start.wait()
            for i in range(per_writer):
                board.put(("verify_fact", w, i), ("value", w, i))

        threads = [
            threading.Thread(target=write, args=(w,)) for w in range(writers)
        ]
        for thread in threads:
            thread.start()

        seen: list = []
        cursor = 0
        start.wait()  # race the reader against all writers from the gun
        while len(seen) < writers * per_writer:
            batch = board.entries(cursor)
            cursor += len(batch)
            seen.extend(batch)
        for thread in threads:
            thread.join()

        # exactly once: no skips, no double reads
        assert len(seen) == writers * per_writer
        assert len(set(key for key, _ in seen)) == writers * per_writer
        # in publication order: the final full listing is the exact
        # concatenation of the slices the cursor walked
        assert seen == board.entries(0)
        # and per-writer publication order is preserved
        for w in range(writers):
            mine = [key[2] for key, _ in seen if key[1] == w]
            assert mine == sorted(mine)

    def test_first_writer_wins_and_positions_never_move(self):
        from repro.dispatch import AnswerBoard

        board = AnswerBoard()
        board.put("k1", "first")
        snapshot = board.entries(0)
        board.put("k1", "second")  # loses: first writer won
        board.put("k2", "other")
        assert board.entries(0)[: len(snapshot)] == snapshot
        assert dict(board.entries(0))["k1"] == "first"
        # a cursor parked past the end sees only the new entry
        assert board.entries(len(snapshot)) == [("k2", "other")]
