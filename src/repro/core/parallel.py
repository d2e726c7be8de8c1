"""The parallelized main loop (Section 6.2 and the paper's Appendix B).

"We would like to be able to maximize the use of all available crowd
members at any point, to speed up the computation.  Thus, we run the
deletion and insertion parts in parallel ...  We further use parallel
foreach loops, in both deletion and insertion components.  We verify the
correctness of all tuples in Q(D) at the same time, or post together
multiple completion questions."

This module groups the questions of Algorithms 1-3 into *rounds*: every
active task (one per wrong/missing answer) contributes its next question
to the round, the whole round is posted to the crowd together, and the
answers advance every task at once.  The number of rounds is the
wall-clock proxy (each round costs one crowd latency regardless of how
many questions it carries) — the quantity the crowd simulator prices.

The tasks *are* Algorithms 1 and 2 — :func:`removal_task` and
:func:`insertion_task`, the same generators the sequential cleaner
drives one question at a time — so both loops ask the same questions,
as the request tuples of :mod:`repro.oracle.questions` (``remember``
requests are free and take no slot); the main loop adds
``verify_answer`` and ``complete_result`` waves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..db.database import Database
from ..db.edits import Edit
from ..oracle.base import AccountingOracle
from ..oracle.questions import Request, ask
from ..query.ast import Query
from ..query.evaluator import Answer
from ..query.incremental import IncrementalAnswers, supports_incremental
from ..telemetry import TELEMETRY as _TELEMETRY
from .deletion import DeletionError, removal_task
from .insertion import InsertionError, insertion_task
from .qoco import QOCO, QOCOConfig
from .report import Report
from .tasks import Task


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
        return [ask(self.oracle, request) for request in requests]

    # -- internals -------------------------------------------------------
    def _advance(self, item: _Running, answer) -> None:
        try:
            request = item.task.send(answer)
            while request[0] == "remember":
                ask(self.oracle, request)
                request = item.task.send(None)
            item.pending = request
        except StopIteration as stop:
            item.pending = None
            item.result = stop.value if stop.value is not None else []
        except (DeletionError, InsertionError):
            item.pending = None
            item.failed = True


# ---------------------------------------------------------------------------
# the parallel main loop
# ---------------------------------------------------------------------------


class ParallelQOCO(QOCO):
    """Algorithm 3 with the Appendix-B parallel modifications.

    Configured by the same :class:`~repro.core.qoco.QOCOConfig` as the
    sequential loop (third positional argument); keyword arguments
    (``split=``, ``completion_width=``, ...) override the corresponding
    config fields.  Strategies, backend and the maintained-answer probes
    are the sequential loop's; only the scheduling differs.
    """

    def __init__(
        self,
        database: Database,
        oracle: AccountingOracle,
        config: Optional[QOCOConfig] = None,
        **overrides,
    ) -> None:
        super().__init__(database, oracle, config, **overrides)
        self.completion_width = self.config.completion_width
        #: builds the round scheduler for one clean() — the seam where
        #: repro.dispatch plugs in its live engine (workers/faults/budgets)
        self.scheduler_factory = self.config.scheduler_factory or RoundScheduler

    def clean(self, query: Query) -> Report:
        report = Report(query_name=query.name, log=self.oracle.log)
        scheduler = self.scheduler_factory(self.oracle)
        verified: set[Answer] = set()
        try:
            with _TELEMETRY.span("parallel.clean", query=query.name):
                if self.config.use_incremental and supports_incremental(query):
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
            if report.iterations >= self.config.max_iterations:
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
                    tasks.append(
                        removal_task(
                            witnesses,
                            self.deletion_strategy,
                            self.rng,
                            self.oracle.known_fact_value,
                        )
                    )
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
            for _ in range(self.config.max_iterations * 4):
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
                        self.rng, self.config.insertion,
                        present=self._present_probe(query, answer),
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
