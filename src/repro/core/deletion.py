"""Removing a wrong answer (Section 4, Algorithm 1) and its baselines.

The witnesses of the wrong answer form a set system over facts; the
false facts to delete form a hitting set of it.  QOCO's greedy strategy
asks about the most frequent fact first and — via Theorem 4.5 — stops
asking as soon as a unique minimal hitting set exists (the singleton
rule), inferring the remaining deletions for free.

Baselines (Section 7.2):

* ``QOCO−`` — same greedy order but without the unique-minimal-hitting-
  set detection: it keeps verifying facts until every witness is
  destroyed.
* ``Random`` — the naive baseline, which "verifies all tuples of all
  witnesses" in random order.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Callable, Generator, Optional

from ..db.database import Database
from ..db.edits import Edit, delete
from ..db.tuples import Fact
from ..oracle.base import AccountingOracle
from ..oracle.questions import Request
from ..provenance.witness import most_frequent_fact
from ..query.ast import Query
from ..query.evaluator import Answer, Evaluator
from ..telemetry import TELEMETRY as _TELEMETRY
from .tasks import Task, drive


class DeletionError(RuntimeError):
    """Raised when a wrong answer cannot be removed (e.g. crowd insists
    every fact of some witness is true)."""


class DeletionStrategy(ABC):
    """How to pick the next fact to verify, and whether to use Thm 4.5."""

    name: str = "abstract"
    #: Apply the singleton rule (unique-minimal-hitting-set inference)?
    infer_singletons: bool = False

    @abstractmethod
    def choose(self, sets: list[frozenset], rng: random.Random) -> Fact:
        """The next fact to ask the crowd about."""


class QOCODeletion(DeletionStrategy):
    """Algorithm 1: most-frequent fact + singleton inference."""

    name = "QOCO"
    infer_singletons = True

    def choose(self, sets: list[frozenset], rng: random.Random) -> Fact:
        fact = most_frequent_fact(sets)
        assert fact is not None
        return fact


class QOCOMinusDeletion(DeletionStrategy):
    """QOCO without Theorem 4.5: greedy order, no free inference."""

    name = "QOCO-"
    infer_singletons = False

    def choose(self, sets: list[frozenset], rng: random.Random) -> Fact:
        fact = most_frequent_fact(sets)
        assert fact is not None
        return fact


class RandomDeletion(DeletionStrategy):
    """Uniformly random fact among the remaining witnesses' tuples."""

    name = "Random"
    infer_singletons = False

    def choose(self, sets: list[frozenset], rng: random.Random) -> Fact:
        pool = sorted({f for s in sets for f in s}, key=repr)
        return rng.choice(pool)


def removal_task(
    witnesses: list[frozenset],
    strategy: Optional[DeletionStrategy] = None,
    rng: Optional[random.Random] = None,
    known: Optional[Callable[[Fact], Optional[bool]]] = None,
) -> Task:
    """Algorithm 1 as a task (see :mod:`repro.core.tasks`): removes the
    wrong answer whose witness system is *witnesses*.

    Yields one ``verify_fact`` request per crowd question and a free
    ``remember`` request per fact the singleton rule infers false;
    returns the deletion edits (unapplied).  *known* maps a fact to an
    answer the crowd already gave (``True``/``False``, ``None`` when
    unknown), normally :meth:`AccountingOracle.known_fact_value`: facts
    known false destroy their witnesses for free and facts known true
    are pruned before anything is asked.  With an imperfect crowd a
    witness may survive (all its facts "verified" true), which raises
    :class:`DeletionError`.
    """
    return _remove(list(witnesses), strategy, rng, known)


def crowd_remove_wrong_answer(
    query: Query,
    database: Database,
    answer: Answer,
    oracle: AccountingOracle,
    strategy: Optional[DeletionStrategy] = None,
    rng: Optional[random.Random] = None,
    apply: bool = True,
    witnesses: Optional[list[frozenset]] = None,
) -> list[Edit]:
    """Algorithm 1: derive (and by default apply) deletion edits that
    remove *answer* from ``Q(D)``, asking *oracle* one question at a time.

    Returns the list of deletion edits.  With a perfect oracle the edits
    are guaranteed to destroy every witness; with an imperfect crowd a
    witness may survive (all its facts "verified" true), in which case a
    :class:`DeletionError` is raised and the caller's iterative loop is
    expected to retry.

    *witnesses* overrides the witness system (used by the UCQ extension,
    which feeds the union of the per-disjunct systems).
    """
    strategy = strategy if strategy is not None else QOCODeletion()
    tel = _TELEMETRY

    with tel.span("deletion.remove_answer", strategy=strategy.name):
        tel.count("deletion.invocations")
        if witnesses is None:
            witnesses = [
                frozenset(w) for w in Evaluator(query, database).witnesses(answer)
            ]
        sets = list(witnesses)
        if tel.enabled:
            tel.observe("deletion.witnesses_per_answer", len(sets))
        # ``_remove``, not ``removal_task``: instrumenting the public task
        # entry point must not count this episode a second time.
        edits = drive(_remove(sets, strategy, rng, oracle.known_fact_value), oracle)
        if apply:
            database.apply(edits)
        return edits


def _remove(
    sets: list[frozenset],
    strategy: Optional[DeletionStrategy],
    rng: Optional[random.Random],
    known: Optional[Callable[[Fact], Optional[bool]]],
) -> Task:
    strategy = strategy if strategy is not None else QOCODeletion()
    rng = rng if rng is not None else random.Random()
    edits: list[Edit] = []
    if known is not None:
        sets, edits = _prune_with_knowledge(sets, known)

    if isinstance(strategy, RandomDeletion):
        edits += yield from _verify_everything(sets, rng)
        return edits

    while sets:
        if strategy.infer_singletons:
            sets = yield from _consume_singletons(sets, edits)
            if not sets:
                break
        _check_destroyable(sets)
        fact = strategy.choose(sets, rng)
        _TELEMETRY.count("deletion.facts_asked")
        if (yield ("verify_fact", fact)):
            sets = [s - {fact} for s in sets]
            _check_destroyable(sets)
        else:
            edits.append(delete(fact))
            sets = [s for s in sets if fact not in s]
    return edits


def _check_destroyable(sets: list[frozenset]) -> None:
    if any(not s for s in sets):
        raise DeletionError("a witness's facts were all deemed true")


def _prune_with_knowledge(
    sets: list[frozenset], known: Callable[[Fact], Optional[bool]]
) -> tuple[list[frozenset], list[Edit]]:
    """Apply cached oracle knowledge before asking anything."""
    known_false = {f for s in sets for f in s if known(f) is False}
    pruned = [
        frozenset(f for f in s if known(f) is not True)
        for s in sets
        if not s & known_false
    ]
    return pruned, [delete(f) for f in sorted(known_false, key=repr)]


def _consume_singletons(
    sets: list[frozenset], edits: list[Edit]
) -> Generator[Request, Any, list[frozenset]]:
    """Algorithm 1 lines 2-4: delete singleton facts without asking.

    Because the wrong answer has at least one false fact per witness and
    all other facts of a singleton's witness were verified true, the
    singleton's fact must be false (Theorem 4.5) — remember it as such.
    Appends the inferred deletions to *edits*; returns the surviving sets.
    """
    while True:
        singles = sorted({next(iter(s)) for s in sets if len(s) == 1}, key=repr)
        if not singles:
            return sets
        for fact in singles:
            edits.append(delete(fact))
            _TELEMETRY.count("deletion.singleton_inferences")
            yield ("remember", fact, False)
        sets = [s for s in sets if not (s & set(singles))]


def _verify_everything(sets: list[frozenset], rng: random.Random) -> Task:
    """The Random baseline: verify every distinct witness fact."""
    pool = sorted({f for s in sets for f in s}, key=repr)
    rng.shuffle(pool)
    edits: list[Edit] = []
    remaining = list(sets)
    for fact in pool:
        if (yield ("verify_fact", fact)):
            remaining = [s - {fact} for s in remaining]
        else:
            edits.append(delete(fact))
            remaining = [s for s in remaining if fact not in s]
    # Any set still present had every member verified true — the witness
    # cannot be destroyed (possible only with a lying crowd).
    if remaining:
        raise DeletionError("witnesses survived full verification")
    return edits


# String-name resolution (QOCOConfig(deletion="qoco"), wire configs)
# goes through the unified strategy registry.
from .registry import REGISTRY as _REGISTRY  # noqa: E402

for _cls in (QOCODeletion, QOCOMinusDeletion, RandomDeletion):
    _REGISTRY.register("deletion", _cls.name.lower(), _cls, aliases=(_cls.name,))
