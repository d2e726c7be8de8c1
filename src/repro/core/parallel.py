"""The parallelized main loop (Section 6.2 and the paper's Appendix B).

"We would like to be able to maximize the use of all available crowd
members at any point, to speed up the computation.  Thus, we run the
deletion and insertion parts in parallel ...  We further use parallel
foreach loops, in both deletion and insertion components.  We verify the
correctness of all tuples in Q(D) at the same time, or post together
multiple completion questions."

This module restructures Algorithms 1-3 into *rounds*: every active task
(one per wrong/missing answer) contributes its next question to the
round, the whole round is posted to the crowd together, and the answers
advance every task at once.  The number of rounds is the wall-clock
proxy (each round costs one crowd latency regardless of how many
questions it carries) — the quantity the crowd simulator prices.

Tasks are cooperative generators yielding question requests:

* ``("verify_fact", fact)``                → bool
* ``("verify_candidate", query, partial)`` → bool
* ``("complete", query, partial)``         → assignment or None
* ``("remember", fact, value)``            → None (free inference, no slot)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator, Optional

from ..db.database import Database
from ..db.edits import Edit, delete, insert
from ..oracle.base import AccountingOracle
from ..query.ast import Query
from ..query.backend import BackendEvaluator, NaiveBackend, resolve_backend
from ..query.evaluator import Answer, Evaluator, answer_to_partial
from ..query.incremental import IncrementalAnswers, supports_incremental
from ..query.subquery import embed_answer, ground_atoms
from ..telemetry import TELEMETRY as _TELEMETRY
from .deletion import DeletionError
from .insertion import (
    InsertionConfig,
    InsertionError,
    _candidate_count,
    _insert_witness,
    _near_witness_score,
)
from .qoco import QOCOConfig, resolve_config, resolve_planner
from .registry import REGISTRY
from .report import Report
from .split import SplitStrategy

Request = tuple
Task = Generator[Request, object, list[Edit]]


# ---------------------------------------------------------------------------
# task generators
# ---------------------------------------------------------------------------


def removal_task(witnesses: list[frozenset]) -> Task:
    """Algorithm 1 as a round-per-question generator."""
    sets = list(witnesses)
    edits: list[Edit] = []
    from ..provenance.witness import most_frequent_fact

    while sets:
        # singleton inference (Theorem 4.5) — free, no crowd slot
        singles = sorted({next(iter(s)) for s in sets if len(s) == 1}, key=repr)
        if singles:
            for fact in singles:
                edits.append(delete(fact))
                yield ("remember", fact, False)
            sets = [s for s in sets if not (s & set(singles))]
            continue
        if any(not s for s in sets):
            raise DeletionError("a witness's facts were all deemed true")
        fact = most_frequent_fact(sets)
        truthful = yield ("verify_fact", fact)
        if truthful:
            sets = [s - {fact} for s in sets]
            if any(not s for s in sets):
                raise DeletionError("a witness's facts were all deemed true")
        else:
            edits.append(delete(fact))
            sets = [s for s in sets if fact not in s]
    return edits


def insertion_task(
    query: Query,
    database: Database,
    answer: Answer,
    split: SplitStrategy,
    rng: random.Random,
    config: InsertionConfig,
) -> Task:
    """Algorithm 2 as a round-per-question generator.

    Mutates *database* when the witness is determined (the same shared-
    database semantics as the sequential algorithm).
    """
    from collections import deque

    embedded = embed_answer(query, answer)
    edits: list[Edit] = []
    for fact in ground_atoms(embedded):
        if fact not in database:
            edit = insert(fact)
            edit.apply(database)
            edits.append(edit)

    def present() -> bool:
        return next(Evaluator(embedded, database).assignments(), None) is not None

    if present():
        return edits

    queue = deque(split.split(embedded, database, rng))
    asked: set[frozenset] = set()
    processed = 0
    embedded_vars = embedded.variables()

    while queue and not present():
        if processed >= config.max_subqueries:
            break
        index = min(
            range(len(queue)),
            key=lambda i: _candidate_count(
                queue[i], database, config.max_candidates_per_subquery
            ),
        )
        queue.rotate(-index)
        current = queue.popleft()
        processed += 1

        candidates = []
        seen_here: set[frozenset] = set()
        for assignment in Evaluator(current, database).assignments():
            candidate = {v: c for v, c in assignment.items() if v in embedded_vars}
            key = frozenset(candidate.items())
            if key in asked or key in seen_here:
                continue
            seen_here.add(key)
            candidates.append(candidate)
            if len(candidates) >= 4 * config.max_candidates_per_subquery:
                break
        candidates.sort(
            key=lambda c: (
                -_near_witness_score(embedded, c, database),
                repr(sorted(c.items(), key=repr)),
            )
        )
        for candidate in candidates[: config.max_candidates_per_subquery]:
            asked.add(frozenset(candidate.items()))
            affirmed = yield ("verify_candidate", embedded, candidate)
            if not affirmed:
                continue
            if set(candidate) >= embedded_vars:
                _insert_witness(embedded, candidate, database, edits)
                return edits
            completion = yield ("complete", embedded, candidate)
            if completion is not None:
                _insert_witness(embedded, completion, database, edits)
                return edits
        if split.can_split(current):
            queue.extend(split.split(current, database, rng))

    if present():
        return edits
    completion = yield ("complete", embedded, {})
    if completion is None:
        raise InsertionError(f"crowd provided no witness for {answer!r}")
    _insert_witness(embedded, completion, database, edits)
    return edits


def _metered_task(task: Task, callback: Callable[[int, int], None]) -> Task:
    """Forward *task* transparently, reporting its question count on exit.

    Counts every non-free yield (``remember`` requests cost no crowd
    slot) and invokes ``callback(questions, questions)`` once the task
    finishes — normally or with a deletion/insertion error.  The wrapper
    forwards the generator protocol unchanged, so scheduling and answers
    are bit-identical to running the bare task.
    """
    questions = 0
    try:
        answer = None
        request = next(task)
        while True:
            if request[0] != "remember":
                questions += 1
            answer = yield request
            request = task.send(answer)
    except StopIteration as stop:
        callback(questions, questions)
        return stop.value
    except (DeletionError, InsertionError):
        callback(questions, questions)
        raise


# ---------------------------------------------------------------------------
# the round scheduler
# ---------------------------------------------------------------------------


@dataclass
class _Running:
    task: Task
    pending: Optional[Request] = None
    result: Optional[list[Edit]] = None
    failed: bool = False


class RoundScheduler:
    """Advances every active task one question per round."""

    def __init__(self, oracle: AccountingOracle) -> None:
        self.oracle = oracle
        self.rounds = 0
        self.peak_width = 0

    def tick(self, width: int) -> None:
        """Account one crowd round carrying *width* questions."""
        self.rounds += 1
        self.peak_width = max(self.peak_width, width)
        tel = _TELEMETRY
        if tel.enabled:
            tel.count("parallel.rounds")
            tel.observe("parallel.round_width", width)

    def run(self, tasks: list[Task]) -> list[Optional[list[Edit]]]:
        """Run tasks to completion; results align with *tasks* (``None``
        marks a task that failed with :class:`DeletionError`)."""
        running = [_Running(task) for task in tasks]
        _TELEMETRY.count("parallel.tasks", len(tasks))
        for item in running:
            self._advance(item, None)
        while any(item.pending is not None for item in running):
            batch = [item for item in running if item.pending is not None]
            self.tick(len(batch))
            # "post together": collect the whole round before advancing
            answers = self.answer_batch([item.pending for item in batch])
            for item, answer in zip(batch, answers):
                self._advance(item, answer)
        return [None if item.failed else (item.result or []) for item in running]

    def answer_batch(self, requests: list[Request]) -> list:
        """Answer one round's worth of requests, in order.

        The synchronous default consults the accounting oracle one
        request at a time; :class:`repro.dispatch.DispatchRoundScheduler`
        overrides this to route the whole round through the live
        dispatch engine (workers, latency, faults, dedup, budgets).
        """
        return [self._answer(request) for request in requests]

    # -- internals -------------------------------------------------------
    def _advance(self, item: _Running, answer) -> None:
        try:
            while True:
                request = (
                    item.task.send(answer) if answer is not None or item.pending
                    else next(item.task)
                )
                if request[0] == "remember":
                    _, fact, value = request
                    self.oracle.remember_fact(fact, value)
                    answer = None
                    item.pending = ("remember",)  # mark as mid-task
                    continue
                item.pending = request
                return
        except StopIteration as stop:
            item.pending = None
            item.result = stop.value if stop.value is not None else []
        except (DeletionError, InsertionError):
            item.pending = None
            item.failed = True

    def _answer(self, request: Request):
        kind = request[0]
        if kind == "verify_fact":
            return self.oracle.verify_fact(request[1])
        if kind == "verify_candidate":
            return self.oracle.verify_candidate(request[1], request[2])
        if kind == "complete":
            return self.oracle.complete_assignment(request[1], request[2])
        if kind == "verify_answer":
            return self.oracle.verify_answer(request[1], request[2])
        if kind == "complete_result":
            return self.oracle.complete_result(request[1], request[2])
        raise ValueError(f"unknown request {request!r}")


# ---------------------------------------------------------------------------
# the parallel main loop
# ---------------------------------------------------------------------------


class ParallelQOCO:
    """Algorithm 3 with the Appendix-B parallel modifications.

    Configured by the same :class:`~repro.core.qoco.QOCOConfig` as the
    sequential loop (third positional argument); keyword arguments
    (``split=``, ``completion_width=``, ...) override the corresponding
    config fields.
    """

    def __init__(
        self,
        database: Database,
        oracle: AccountingOracle,
        config: Optional[QOCOConfig] = None,
        **overrides,
    ) -> None:
        self.database = database
        self.oracle = (
            oracle if isinstance(oracle, AccountingOracle) else AccountingOracle(oracle)
        )
        self.config = resolve_config(config, **overrides)
        self.backend = resolve_backend(self.config.backend)
        self.split_strategy: SplitStrategy = REGISTRY.resolve(
            "split", self.config.split
        )
        self.planner = resolve_planner(self.config.planner, seed=self.config.seed)
        self.insertion_config = self.config.insertion
        self.completion_width = self.config.completion_width
        self.max_iterations = self.config.max_iterations
        self.rng = random.Random(self.config.seed)
        self.use_incremental = self.config.use_incremental
        #: builds the round scheduler for one clean() — the seam where
        #: repro.dispatch plugs in its live engine (workers/faults/budgets)
        self.scheduler_factory = self.config.scheduler_factory or RoundScheduler
        self._engine: Optional[IncrementalAnswers] = None

    def clean(self, query: Query) -> Report:
        report = Report(query_name=query.name, log=self.oracle.log)
        scheduler = self.scheduler_factory(self.oracle)
        verified: set[Answer] = set()
        try:
            with _TELEMETRY.span("parallel.clean", query=query.name):
                if self.use_incremental and supports_incremental(query):
                    self._engine = IncrementalAnswers(
                        query, self.database, evaluator_factory=self._make_evaluator
                    )
                self._clean_loop(query, report, scheduler, verified)
        finally:
            if self._engine is not None:
                self._engine.close()
                self._engine = None
        report.rounds = scheduler.rounds
        report.peak_width = scheduler.peak_width
        # dispatched schedulers carry the simulated wall-clock and may
        # have degraded (budget exhausted / questions lost to faults)
        report.wall_clock = getattr(scheduler, "wall_clock", 0.0)
        if getattr(scheduler, "degraded", False):
            report.converged = False
        return report

    def _clean_loop(
        self,
        query: Query,
        report: Report,
        scheduler: RoundScheduler,
        verified: set[Answer],
    ) -> None:
        first = True
        while first or (self._answers(query) - verified):
            if report.iterations >= self.max_iterations:
                report.converged = False
                break
            first = False
            report.iterations += 1
            _TELEMETRY.count("parallel.iterations")

            # Wave 1: verify all unverified answers at the same time.
            answers = sorted(self._answers(query) - verified, key=repr)
            wrong: list[Answer] = []
            if answers:
                scheduler.tick(len(answers))
                replies = scheduler.answer_batch(
                    [("verify_answer", query, answer) for answer in answers]
                )
                for answer, truthful in zip(answers, replies):
                    if truthful:
                        verified.add(answer)
                    else:
                        wrong.append(answer)

            # Wave 2: all removals in parallel.
            if wrong:
                engine = self._engine
                evaluator = (
                    None
                    if engine is not None
                    else self._make_evaluator(query, self.database)
                )
                tasks = []
                for answer in wrong:
                    if engine is not None:
                        witnesses = list(engine.witnesses(answer))
                    else:
                        witnesses = [frozenset(w) for w in evaluator.witnesses(answer)]
                    tasks.append(removal_task(witnesses))
                for answer, edits in zip(wrong, scheduler.run(tasks)):
                    if edits is None:
                        report.converged = False
                        continue
                    if edits:
                        self.database.apply(edits)
                        report.edits += edits
                        report.wrong_answers_removed.append(answer)

            # Waves 3+4, repeated: post `completion_width` completion
            # questions together, insert the found answers in parallel,
            # until a wave comes back empty.
            for _ in range(self.max_iterations * 4):
                missing: list[Answer] = []
                known = set(self._answers(query))
                posted = 0
                for _ in range(self.completion_width):
                    (found,) = scheduler.answer_batch(
                        [("complete_result", query, frozenset(known))]
                    )
                    posted += 1
                    if found is None:
                        break
                    known.add(found)
                    if not self._answer_alive(query, found):
                        missing.append(found)
                scheduler.tick(posted)
                if not missing:
                    break
                tasks = []
                for answer in missing:
                    split = self.split_strategy
                    if self.planner is not None:
                        choice = self.planner.choose(query)
                        split = choice.strategy
                    task = insertion_task(
                        query, self.database, answer, split,
                        self.rng, self.insertion_config,
                    )
                    if self.planner is not None:
                        # The parallel scheduler batches oracle calls, so
                        # per-task cost is metered by question count.
                        planner, episode = self.planner, choice
                        task = _metered_task(
                            task,
                            lambda cost, questions, p=planner, c=episode: p.observe(
                                c, cost=cost, questions=questions
                            ),
                        )
                    tasks.append(task)
                for answer, edits in zip(missing, scheduler.run(tasks)):
                    if edits is None:
                        report.converged = False
                        continue
                    report.edits += edits
                    report.missing_answers_added.append(answer)
                    verified.add(answer)

    def _make_evaluator(self, query: Query, database: Database):
        """An evaluator on the configured backend (see QOCO)."""
        if isinstance(self.backend, NaiveBackend):
            return Evaluator(query, database)
        return BackendEvaluator(query, database, self.backend)

    def _answers(self, query: Query) -> set[Answer]:
        if self._engine is not None and self._engine.query is query:
            return self._engine.answers()
        return self.backend.evaluate(query, self.database)

    def _answer_alive(self, query: Query, answer: Answer) -> bool:
        """Targeted ``answer ∈ Q(D)`` membership check (see QOCO)."""
        if self._engine is not None and self._engine.query is query:
            return answer in self._engine
        partial = answer_to_partial(query, answer)
        if partial is None:
            return False
        return self.backend.is_satisfiable(query, self.database, partial)
