"""Cleaning under unions of conjunctive queries (the Section 2 extension).

The CQ algorithms lift to UCQs almost verbatim:

* **Deletion** — the wrong answer's witness system is the union of the
  per-disjunct witness systems; Algorithm 1 runs on the combined system
  unchanged (the greedy heuristic and Theorem 4.5 are oblivious to where
  a witness came from).
* **Insertion** — the missing answer needs a witness under *one*
  disjunct.  For each disjunct we ask a single closed question — "is t
  an answer of this disjunct w.r.t. D_G?" — and run Algorithm 2 on the
  first disjunct the crowd affirms (ordering disjuncts by how much of
  their embedded body is already satisfiable keeps the expected number
  of probes low).
* **The main loop** — identical to Algorithm 3 with the UCQ's answers
  and witnesses.
"""

from __future__ import annotations

import random
from typing import Optional

from ..db.database import Database
from ..db.edits import Edit
from ..oracle.base import AccountingOracle
from ..query.ast import Query
from ..query.evaluator import Answer, Evaluator, answer_to_partial
from ..query.subquery import embed_answer
from ..query.union import UnionQuery
from .deletion import (
    DeletionError,
    DeletionStrategy,
    crowd_remove_wrong_answer,
)
from .insertion import InsertionConfig, InsertionError, crowd_add_missing_answer
from .qoco import QOCOConfig, resolve_config, resolve_planner
from .registry import REGISTRY
from .report import Report
from .split import SplitStrategy


def remove_wrong_answer_union(
    union: UnionQuery,
    database: Database,
    answer: Answer,
    oracle: AccountingOracle,
    strategy: Optional[DeletionStrategy] = None,
    rng: Optional[random.Random] = None,
) -> list[Edit]:
    """Algorithm 1 over the combined witness system of a UCQ answer.

    The wrong answer must lose every witness under every disjunct, so we
    feed Algorithm 1 the union of the per-disjunct witness systems.
    """
    witnesses = [frozenset(w) for w in union.witnesses(database, answer)]
    return crowd_remove_wrong_answer(
        union.disjuncts[0],
        database,
        answer,
        oracle,
        strategy=strategy,
        rng=rng,
        witnesses=witnesses,
    )


def add_missing_answer_union(
    union: UnionQuery,
    database: Database,
    answer: Answer,
    oracle: AccountingOracle,
    split: Optional[SplitStrategy] = None,
    rng: Optional[random.Random] = None,
    config: Optional[InsertionConfig] = None,
) -> list[Edit]:
    """Find a disjunct that truly produces *answer* and run Algorithm 2.

    Disjuncts are probed most-promising first (largest satisfiable part
    of the embedded body over the current database); each probe is one
    closed question.
    """
    rng = rng if rng is not None else random.Random()
    candidates = _rank_disjuncts(union, database, answer)
    if not candidates:
        raise InsertionError(f"answer {answer!r} matches no disjunct head")

    last_error: Optional[InsertionError] = None
    for disjunct in candidates:
        partial = answer_to_partial(disjunct, answer)
        if partial is None:
            continue
        if not oracle.verify_candidate(disjunct, partial):
            continue  # not an answer of this disjunct in D_G
        try:
            return crowd_add_missing_answer(
                disjunct, database, answer, oracle,
                split=split, rng=rng, config=config,
            )
        except InsertionError as error:
            last_error = error
    raise last_error or InsertionError(
        f"no disjunct of {union.name} produces answer {answer!r} in D_G"
    )


def _rank_disjuncts(
    union: UnionQuery, database: Database, answer: Answer
) -> list[Query]:
    """Disjuncts ordered by how close they are to producing *answer*."""

    def satisfiable_atoms(disjunct: Query) -> int:
        try:
            embedded = embed_answer(disjunct, answer)
        except Exception:
            return -1
        count = 0
        for index in range(len(embedded.atoms)):
            from ..query.subquery import subquery

            single = subquery(embedded, [index])
            if next(Evaluator(single, database).assignments(), None) is not None:
                count += 1
        return count

    ranked = [
        (satisfiable_atoms(disjunct), index, disjunct)
        for index, disjunct in enumerate(union.disjuncts)
    ]
    return [d for score, _, d in sorted(ranked, key=lambda r: (-r[0], r[1])) if score >= 0]


class UCQCleaner:
    """Algorithm 3 over a union of conjunctive queries.

    Takes the same :class:`~repro.core.qoco.QOCOConfig` as the CQ loops
    (third positional argument); keyword arguments override the
    corresponding config fields.
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
        self.deletion_strategy: DeletionStrategy = REGISTRY.resolve(
            "deletion", self.config.deletion
        )
        self.split_strategy: SplitStrategy = REGISTRY.resolve(
            "split", self.config.split
        )
        self.planner = resolve_planner(self.config.planner, seed=self.config.seed)
        self.estimator_factory = self.config.estimator_factory
        self.max_iterations = self.config.max_iterations
        self.rng = random.Random(self.config.seed)

    def clean(self, union: UnionQuery) -> Report:
        report = Report(query_name=union.name, log=self.oracle.log)
        verified: set[Answer] = set()
        first = True
        while first or (union.answers(self.database) - verified):
            if report.iterations >= self.max_iterations:
                report.converged = False
                break
            if not first:
                self.oracle.forget()
            first = False
            report.iterations += 1
            report.converged = True
            self._deletion_phase(union, verified, report)
            self._insertion_phase(union, verified, report)
        return report

    # -- phases ------------------------------------------------------------
    def _deletion_phase(
        self, union: UnionQuery, verified: set[Answer], report: Report
    ) -> None:
        for answer in sorted(union.answers(self.database) - verified, key=repr):
            if answer not in union.answers(self.database):
                continue
            if self._verify_union_answer(union, answer):
                verified.add(answer)
                continue
            try:
                edits = remove_wrong_answer_union(
                    union, self.database, answer, self.oracle,
                    self.deletion_strategy, self.rng,
                )
            except DeletionError:
                report.converged = False
                continue
            report.edits += edits
            report.wrong_answers_removed.append(answer)

    def _insertion_phase(
        self, union: UnionQuery, verified: set[Answer], report: Report
    ) -> None:
        estimator = self.estimator_factory()
        probes = 0
        while (
            not estimator.is_complete()
            and probes < self.config.max_completions_per_phase
        ):
            current = union.answers(self.database)
            missing = self._complete_union_result(union, current)
            probes += 1
            estimator.observe(missing)
            if missing is None:
                continue
            if missing in current:
                continue
            split = self.split_strategy
            choice = None
            if self.planner is not None:
                choice = self.planner.choose(union)
                split = choice.strategy
            cost_before = self.oracle.log.total_cost
            questions_before = self.oracle.log.question_count
            try:
                edits = add_missing_answer_union(
                    union, self.database, missing, self.oracle,
                    split, self.rng,
                )
            except InsertionError:
                report.converged = False
                if choice is not None:
                    self.planner.observe(
                        choice,
                        cost=self.oracle.log.total_cost - cost_before,
                        questions=self.oracle.log.question_count - questions_before,
                    )
                continue
            if choice is not None:
                self.planner.observe(
                    choice,
                    cost=self.oracle.log.total_cost - cost_before,
                    questions=self.oracle.log.question_count - questions_before,
                )
            report.edits += edits
            report.missing_answers_added.append(missing)
            verified.add(missing)

    # -- union-level questions ----------------------------------------------
    def _verify_union_answer(self, union: UnionQuery, answer: Answer) -> bool:
        """``TRUE(Q, t)?`` for a UCQ: true under some disjunct of D_G.

        One closed question per disjunct, stopping at the first YES (and
        served from the cache on repeats).
        """
        return any(
            self.oracle.verify_answer(disjunct, answer)
            for disjunct in union.disjuncts
        )

    def _complete_union_result(
        self, union: UnionQuery, known: set[Answer]
    ) -> Optional[Answer]:
        """``COMPL(Q(D))`` for a UCQ: probe disjuncts for a missing answer."""
        for disjunct in union.disjuncts:
            missing = self.oracle.complete_result(disjunct, known)
            if missing is not None:
                return missing
        return None
