"""Adding a missing answer (Section 5, Algorithm 2).

Given a missing answer ``t ∈ Q(D_G) − Q(D)``, the algorithm embeds it
into the query (``Q|t``), inserts the ground atoms of ``Q|t`` outright
(they must hold in the ground truth), and then hunts for a witness by
recursively splitting ``Q|t`` into subqueries: every valid assignment of
a subquery over the *current* database is a candidate partial assignment
for the full witness; the crowd verifies candidates and completes the
satisfiable one.  If no candidate pans out, it falls back to asking the
crowd for a whole witness (the naive task).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..db.database import Database
from ..db.edits import Edit, insert
from ..oracle.base import AccountingOracle
from ..oracle.questions import Request
from ..query.ast import Query
from ..query.evaluator import Answer, Assignment, Evaluator, query_plan, witness_of
from ..query.subquery import embed_answer, ground_atoms
from ..telemetry import TELEMETRY as _TELEMETRY
from .split import ProvenanceSplit, SplitStrategy
from .tasks import Task, drive


class InsertionError(RuntimeError):
    """Raised when no witness for the missing answer could be obtained
    (only possible with an imperfect crowd rejecting every completion)."""


@dataclass
class InsertionConfig:
    """Tuning knobs for Algorithm 2.

    ``max_candidates_per_subquery`` bounds how many of a subquery's valid
    assignments are presented to the crowd before the algorithm prefers
    splitting further (guards against unselective subqueries flooding
    the crowd with candidates).  ``max_subqueries`` bounds the total
    queue work before falling back to the naive task.
    """

    max_candidates_per_subquery: int = 12
    max_subqueries: int = 64


def insertion_task(
    query: Query,
    database: Database,
    answer: Answer,
    split: SplitStrategy,
    rng: random.Random,
    config: InsertionConfig,
    present: Optional[Callable[[], bool]] = None,
) -> Task:
    """Algorithm 2 as a task (see :mod:`repro.core.tasks`): adds the
    missing *answer* to ``Q(D)``.

    Yields ``verify_candidate`` and ``complete_assignment`` requests and
    returns the applied insertion edits; *database* is mutated as the
    witness is determined.  Raises :class:`InsertionError` if the crowd
    provides no witness.

    *present*, when given, replaces the loop guard ``Q|t(D) ≠ ∅`` with a
    caller-supplied membership probe (``Q|t(D) ≠ ∅ ⟺ t ∈ Q(D)``, so a
    maintained answer set answers it in O(1) — the probe must track the
    database the edits land in).
    """
    return _add(query, database, answer, split, rng, config, present)


def crowd_add_missing_answer(
    query: Query,
    database: Database,
    answer: Answer,
    oracle: AccountingOracle,
    split: Optional[SplitStrategy] = None,
    rng: Optional[random.Random] = None,
    config: Optional[InsertionConfig] = None,
    present: Optional[Callable[[], bool]] = None,
) -> list[Edit]:
    """Algorithm 2: insert facts so that *answer* appears in ``Q(D)``,
    asking *oracle* one question at a time.

    Mutates *database* and returns the applied insertion edits.  Raises
    :class:`InsertionError` if the crowd fails to provide any witness.
    *present* is the optional loop-guard probe of :func:`insertion_task`.
    """
    split = split if split is not None else ProvenanceSplit()
    rng = rng if rng is not None else random.Random()
    config = config if config is not None else InsertionConfig()
    with _TELEMETRY.span("insertion.add_answer", split=split.__class__.__name__):
        _TELEMETRY.count("insertion.invocations")
        # ``_add``, not ``insertion_task``: instrumenting the public task
        # entry point must not count this episode a second time.
        return drive(
            _add(query, database, answer, split, rng, config, present), oracle
        )


def _add(
    query: Query,
    database: Database,
    answer: Answer,
    split: SplitStrategy,
    rng: random.Random,
    config: InsertionConfig,
    present: Optional[Callable[[], bool]],
) -> Task:
    tel = _TELEMETRY
    embedded = embed_answer(query, answer)
    edits: list[Edit] = []
    if present is None:
        present = lambda: answer_present(embedded, database)  # noqa: E731

    # Lines 1-2: ground atoms of Q|t must hold in D_G — insert them.
    for fact in ground_atoms(embedded):
        if fact not in database:
            edit = insert(fact)
            edit.apply(database)
            edits.append(edit)
            tel.count("insertion.ground_inserts")

    if present():
        return edits

    queue: deque[Query] = deque(split.split(embedded, database, rng))
    asked: set[frozenset] = set()
    processed = 0

    while queue and not present():
        if processed >= config.max_subqueries:
            break
        # Most selective subquery first: the one with the fewest candidate
        # assignments costs the fewest crowd questions to rule in or out.
        index = min(
            range(len(queue)),
            key=lambda i: _candidate_count(
                queue[i], database, config.max_candidates_per_subquery
            ),
        )
        queue.rotate(-index)
        current = queue.popleft()
        processed += 1
        tel.count("insertion.subqueries_processed")
        found = yield from _try_subquery(
            embedded, current, database, asked, config, edits
        )
        if found:
            return edits
        if split.can_split(current):
            queue.extend(split.split(current, database, rng))

    if present():
        return edits

    # Line 18: fall back to asking for a whole witness.
    tel.count("insertion.fallback_completions")
    full = yield ("complete_assignment", embedded, {})
    if full is None:
        raise InsertionError(f"crowd provided no witness for answer {answer!r}")
    _insert_witness(embedded, full, database, edits)
    return edits


def answer_present(embedded: Query, database: Database) -> bool:
    """The loop guard ``Q|t(D) ≠ ∅`` of Algorithm 2, for ``Q|t`` = *embedded*."""
    return next(Evaluator(embedded, database).assignments(), None) is not None


def _candidate_count(subquery: Query, database: Database, cap: int) -> int:
    """Number of valid assignments of *subquery*, counted up to *cap*."""
    count = 0
    for _ in Evaluator(subquery, database).assignments():
        count += 1
        if count >= cap:
            break
    return count


def _try_subquery(
    embedded: Query,
    subquery: Query,
    database: Database,
    asked: set[frozenset],
    config: InsertionConfig,
    edits: list[Edit],
) -> Generator[Request, Any, bool]:
    """Lines 6-15: present the subquery's assignments as candidates;
    returns whether a witness was found and inserted.

    Candidates are ranked before the crowd sees them: the paper's
    premise is that ``D`` is mostly clean, so the candidate closest to a
    full witness (most atoms of ``Q|t`` individually satisfiable under
    it) is most likely the right one.  Ranking costs only local index
    lookups and sharply cuts crowd questions.
    """
    evaluator = Evaluator(subquery, database)
    embedded_vars = embedded.variables()

    candidates: list[Assignment] = []
    seen_here: set[frozenset] = set()
    for assignment in evaluator.assignments():
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
        _TELEMETRY.count("insertion.candidates_presented")
        if not (yield ("verify_candidate", embedded, candidate)):
            continue
        if set(candidate) >= embedded_vars:
            # A total assignment of Q|t whose witness the crowd affirmed.
            _insert_witness(embedded, candidate, database, edits)
            return True
        completion = yield ("complete_assignment", embedded, candidate)
        if completion is not None:
            _insert_witness(embedded, completion, database, edits)
            return True
    return False


def _near_witness_score(
    embedded: Query, candidate: Assignment, database: Database
) -> int:
    """How many atoms of ``Q|t`` have at least one matching fact in ``D``
    under *candidate* — a cheap proxy for "this partial assignment is one
    small completion away from a witness"."""
    score = 0
    for atom in query_plan(embedded).atoms:
        pattern = atom.pattern(candidate)
        if next(database.match(atom.relation, pattern), None) is not None:
            score += 1
    return score


def _insert_witness(
    embedded: Query, assignment: Assignment, database: Database, edits: list[Edit]
) -> None:
    """Insert the witness facts of a total assignment not already in D."""
    witness = witness_of(embedded, assignment)
    for fact in sorted(witness, key=repr):
        if fact not in database:
            edit = insert(fact)
            edit.apply(database)
            edits.append(edit)
            _TELEMETRY.count("insertion.witness_inserts")
