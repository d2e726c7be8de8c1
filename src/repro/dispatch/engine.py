"""The live crowd-dispatch engine (§6.2, §7 wall-clock dimension).

``ParallelQOCO`` structures cleaning into *rounds* of questions; this
engine is what stands between a round and its answers when the crowd is
live rather than an instantly-answering function call.  Every question
of a round becomes an in-flight *vote* (or several, for closed
questions decided by majority) against a pool of simulated workers:

* answers take stochastic time (the crowd simulator's latency models);
* workers may ignore an assignment (no-show), leave for good (dropout),
  or answer too late to count — per-question timeouts retry with
  exponential backoff onto fresh workers (:class:`RetryPolicy`);
* identical closed questions from concurrent tasks coalesce into one
  shared vote (:mod:`repro.dispatch.dedup`);
* cost/deadline budgets degrade gracefully: once a budget is exhausted
  new questions are answered from cached knowledge (or a conservative
  default) and the run completes with ``converged=False`` — it never
  hangs (:class:`Budget`).

Replay is the validation oracle
-------------------------------
The engine's timing model is deliberately the same as
:class:`repro.crowdsim.CrowdSimulator`: a ``(free_at, worker)`` heap,
one latency sample per collected answer, and a barrier between maximal
runs of same-kind questions ("parallel foreach" waves).  A fault-free,
unbudgeted dispatch run therefore produces an interaction log whose
post-hoc replay (same pool size, votes, latency sampler, and seed)
reproduces the engine's timeline *bit for bit* — the differential test
in ``tests/test_dispatch_differential.py`` holds the two timelines
equal, tying the live engine to the already-validated §6.2 model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..core.parallel import ParallelQOCO, RoundScheduler
from ..crowdsim.simulator import (
    AnswerEvent,
    LatencySampler,
    QuestionCompletion,
    Timeline,
    lognormal_latency,
)
from ..oracle.base import AccountingOracle
from ..oracle.questions import (
    VOTED_KINDS,
    QuestionKind,
    Request,
    ask,
    question_cost,
    question_detail,
    question_key,
)
from ..telemetry import TELEMETRY as _TELEMETRY
from .dedup import AnswerBoard
from .policy import FALLBACKS, Budget, FaultKind, FaultModel, RetryPolicy, majority
from .workers import WorkerPool


@dataclass
class DispatchStats:
    """Plain counters of one dispatch session (mirrored to telemetry)."""

    questions: int = 0            # questions actually routed to workers
    cache_hits: int = 0           # answered free from the accounting cache
    dedup_coalesced: int = 0      # duplicates folded into a shared vote
    shared_hits: int = 0          # answered free from a cross-session board
    similarity_hits: int = 0      # answered from a renamed twin's verdict
    member_answers: int = 0       # answers collected from workers (incl. discarded)
    discarded_answers: int = 0    # arrived past the timeout, thrown away
    late_answers: int = 0         # assignments that drew the LATE fault
    retries: int = 0              # re-dispatched vote slots
    timeouts: int = 0             # assignments abandoned at the timeout
    no_shows: int = 0             # workers that silently ignored an assignment
    dropouts: int = 0             # workers that left the pool
    partial_votes: int = 0        # closed questions decided on a short sample
    unanswered: int = 0           # questions no worker ever answered
    budget_denied: int = 0        # questions never posted (budget exhausted)
    fallbacks: int = 0            # degraded answers (cache/conservative default)
    no_workers: int = 0           # vote slots with an empty (all-dropout) pool

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class _VoteResult:
    arrived: bool
    value: Any
    end: float


class DispatchEngine:
    """Routes question rounds through a simulated worker pool.

    One engine drives one cleaning session: it accumulates the virtual
    clock, the timeline, and the dispatch statistics across rounds.
    Bind it to a :class:`ParallelQOCO` via :attr:`scheduler_factory`.
    """

    def __init__(
        self,
        pool: WorkerPool,
        *,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultModel] = None,
        budget: Optional[Budget] = None,
        votes_per_closed: int = 3,
        latency: Optional[LatencySampler] = None,
        rng: Optional[random.Random] = None,
        dedup: bool = True,
        shared: Optional[AnswerBoard] = None,
    ) -> None:
        if votes_per_closed < 1:
            raise ValueError("need at least one vote per closed question")
        self.pool = pool
        #: cross-session answer board (repro.server); None = solo session
        self.shared = shared
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults if faults is not None else FaultModel()
        if self.faults.lossy and self.retry.timeout is None:
            raise ValueError(
                "no-show/dropout faults require a RetryPolicy timeout, "
                "otherwise a lost assignment would hang forever"
            )
        self.budget = budget
        self.votes_per_closed = votes_per_closed
        self.latency = latency if latency is not None else lognormal_latency()
        self.rng = rng if rng is not None else random.Random()
        self.dedup_enabled = dedup
        self.oracle: Optional[AccountingOracle] = None
        self.timeline = Timeline()
        self.stats = DispatchStats()
        self.degraded = False
        self._clock = 0.0
        self._wave_kind: Optional[str] = None
        self._wave_ends: list[float] = []
        self._watermark = 0.0

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    @property
    def scheduler_factory(self) -> Callable[[AccountingOracle], "DispatchRoundScheduler"]:
        """Pass as ``ParallelQOCO(scheduler_factory=engine.scheduler_factory)``."""

        def factory(oracle: AccountingOracle) -> DispatchRoundScheduler:
            self.bind(oracle)
            return DispatchRoundScheduler(oracle, self)

        return factory

    def bind(self, oracle: AccountingOracle) -> "DispatchEngine":
        if self.oracle is not None and self.oracle is not oracle:
            raise RuntimeError(
                "engine already bound to another session; "
                "use one DispatchEngine per cleaning run"
            )
        self.oracle = oracle
        return self

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    @property
    def wall_clock(self) -> float:
        """Simulated seconds until the last collected answer."""
        return self._watermark

    # ------------------------------------------------------------------
    # the round interface
    # ------------------------------------------------------------------
    def resolve_round(self, requests: Sequence[tuple]) -> list[Any]:
        """Answer one round of question requests.

        Questions post concurrently: cache visibility is the state at
        round start (answers land in the accounting cache only when the
        round completes), which is exactly why cross-task deduplication
        exists — concurrent duplicates cannot help each other through
        the cache the way sequential ones do.
        """
        if self.oracle is None:
            raise RuntimeError("engine not bound: use scheduler_factory")
        deadline_ref = self._watermark  # wall-clock as of round start
        inflight: dict[Any, Any] = {}
        commits: list[tuple[Request, Any]] = []
        answers = []
        for request in requests:
            answers.append(
                self._resolve_one(request, inflight, commits, deadline_ref)
            )
        for request, value in commits:
            self.oracle.remember(request, value)
        return answers

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _count(self, name: str, value: float = 1) -> None:
        if _TELEMETRY.enabled:
            _TELEMETRY.count(name, value)

    def _resolve_one(
        self,
        request: Request,
        inflight: dict,
        commits: list,
        deadline_ref: float,
    ) -> Any:
        cached = self.oracle.cached(request)
        if cached is not None:
            self.stats.cache_hits += 1
            self._count("oracle.cache_hits")  # mirrors the synchronous path
            return cached
        key = question_key(request) if self.dedup_enabled else None
        if key is not None and key in inflight:
            self.stats.dedup_coalesced += 1
            self._count("dispatch.dedup_coalesced")
            return inflight[key]
        if key is not None and self.shared is not None:
            published = self.shared.get(key)
            if published is not None:
                # another session already paid for this closed question;
                # adopt its final verdict and remember it locally so the
                # accounting cache serves repeats
                self.stats.shared_hits += 1
                self._count("dispatch.shared_hits")
                commits.append((request, published))
                inflight[key] = published
                return published
            similar = self.shared.get_similar(key)
            if similar is not None:
                # a variable-renamed twin of this question was already
                # answered; adopt its verdict, and republish under the
                # exact key so later sessions hit directly
                self.stats.similarity_hits += 1
                self._count("dispatch.similarity_hits")
                commits.append((request, similar))
                inflight[key] = similar
                self.shared.put(key, similar)
                return similar
        if self.budget is not None and (
            self.budget.cost_exhausted()
            or self.budget.time_exhausted(deadline_ref)
        ):
            self.stats.budget_denied += 1
            self.stats.fallbacks += 1
            self.degraded = True
            self._count("dispatch.budget_denied")
            return FALLBACKS[request[0]]
        value, answered = self._dispatch(request)
        if answered:
            commits.append((request, value))
            if key is not None:
                inflight[key] = value
                if self.shared is not None:
                    self.shared.put(key, value)
        return value

    def _dispatch(self, request: Request) -> tuple[Any, bool]:
        """Route one question to the pool; returns ``(value, answered)``."""
        kind = request[0]
        voted = kind in VOTED_KINDS
        self._enter_wave(kind)
        post_time = self._clock
        q_index = len(self.oracle.log.records)
        votes = self.votes_per_closed if voted else 1
        collected: list[Any] = []
        ends: list[float] = []
        for _ in range(votes):
            vote = self._vote(request, post_time, q_index)
            ends.append(vote.end)
            if vote.arrived:
                collected.append(vote.value)
        completed = max(ends)
        self._wave_ends.append(completed)
        if completed > self._watermark:
            self._watermark = completed
        if not collected:
            # no worker ever answered: nothing to log, degrade instead
            self.stats.unanswered += 1
            self.stats.fallbacks += 1
            self.degraded = True
            self._count("dispatch.unanswered")
            return FALLBACKS[kind], False
        if voted:
            if len(collected) < votes:
                self.stats.partial_votes += 1
                self._count("dispatch.partial_votes")
            value: Any = majority(collected)
        else:
            value = collected[0]
        cost = question_cost(request, value)
        self.oracle.record_interaction(
            QuestionKind(kind), cost, question_detail(request)
        )
        if self.budget is not None:
            self.budget.charge(cost)
        self.timeline.completions.append(QuestionCompletion(q_index, completed))
        self.stats.questions += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.count("dispatch.questions")
            _TELEMETRY.observe("dispatch.question_latency", completed - post_time)
        return value, True

    def _vote(self, request: Request, post_time: float, q_index: int) -> _VoteResult:
        """One vote slot: an assignment chain with timeout/retry/reroute."""
        t = post_time
        exclude: set[int] = set()
        attempt = 0
        while True:
            worker = self.pool.acquire(
                t, frozenset(exclude) if self.retry.reroute else frozenset()
            )
            if worker is None:
                self.stats.no_workers += 1
                self._count("dispatch.no_workers")
                return _VoteResult(False, None, t)
            start = max(worker.free_at, t)
            fault = self.faults.draw()
            timeout = self.retry.timeout
            if fault is FaultKind.DROPOUT or fault is FaultKind.NO_SHOW:
                if fault is FaultKind.DROPOUT:
                    self.pool.drop(worker)
                    self.stats.dropouts += 1
                    self._count("dispatch.dropouts")
                else:
                    worker.no_shows += 1
                    self.stats.no_shows += 1
                    self._count("dispatch.no_shows")
                    self.pool.commit(worker, worker.free_at)
                fail_at = start + timeout  # lossy faults imply a timeout
            else:
                duration = self.latency(self.rng)
                if fault is FaultKind.LATE:
                    duration *= self.faults.late_factor
                    self.stats.late_answers += 1
                    self._count("dispatch.late_answers")
                end = start + duration
                worker.occupy(start, end)
                self.pool.commit(worker, end)
                value = ask(worker.member, request)
                worker.answered += 1
                self.stats.member_answers += 1
                self._count("dispatch.member_answers")
                self.timeline.answers.append(
                    AnswerEvent(q_index, worker.worker_id, start, end)
                )
                if timeout is None or duration <= timeout:
                    return _VoteResult(True, value, end)
                # the answer exists but arrived past the cutoff
                self.stats.discarded_answers += 1
                self._count("dispatch.discarded_answers")
                fail_at = start + timeout
            self.stats.timeouts += 1
            self._count("dispatch.timeouts")
            attempt += 1
            if attempt > self.retry.max_retries:
                return _VoteResult(False, None, fail_at)
            self.stats.retries += 1
            self._count("dispatch.retries")
            exclude.add(worker.worker_id)
            t = fail_at + self.retry.delay(attempt - 1)

    def _enter_wave(self, kind: str) -> None:
        """Barrier between maximal same-kind runs (the replay model)."""
        if kind != self._wave_kind:
            if self._wave_ends:
                self._clock = max(self._wave_ends)
            self._wave_ends = []
            self._wave_kind = kind


class DispatchRoundScheduler(RoundScheduler):
    """A :class:`~repro.core.parallel.RoundScheduler` whose rounds go
    through the dispatch engine instead of synchronous oracle calls."""

    def __init__(self, oracle: AccountingOracle, engine: DispatchEngine) -> None:
        super().__init__(oracle)
        self.engine = engine.bind(oracle)

    def answer_batch(self, requests: list) -> list:
        return self.engine.resolve_round(requests)

    @property
    def wall_clock(self) -> float:
        return self.engine.wall_clock

    @property
    def degraded(self) -> bool:
        return self.engine.degraded


def dispatch_clean(
    database,
    query,
    members: Sequence,
    *,
    oracle: Optional[AccountingOracle] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultModel] = None,
    budget: Optional[Budget] = None,
    votes_per_closed: int = 3,
    latency: Optional[LatencySampler] = None,
    rng: Optional[random.Random] = None,
    dedup: bool = True,
    shared: Optional[AnswerBoard] = None,
    inbox_capacity: Optional[int] = None,
    **parallel_kwargs,
):
    """Run one dispatched cleaning session; returns ``(report, engine)``.

    *members* are the worker backends (one worker each; repeat an
    oracle to share knowledge across workers).  The wrapped accounting
    oracle's own backend is never consulted — every question goes
    through the engine — so *oracle* only needs to be supplied to share
    a log or cache with other runs.
    """
    pool = WorkerPool(members, inbox_capacity=inbox_capacity)
    engine = DispatchEngine(
        pool,
        retry=retry,
        faults=faults,
        budget=budget,
        votes_per_closed=votes_per_closed,
        latency=latency,
        rng=rng,
        dedup=dedup,
        shared=shared,
    )
    accounting = oracle if oracle is not None else AccountingOracle(members[0])
    qoco = ParallelQOCO(
        database,
        accounting,
        scheduler_factory=engine.scheduler_factory,
        **parallel_kwargs,
    )
    report = qoco.clean(query)
    return report, engine
