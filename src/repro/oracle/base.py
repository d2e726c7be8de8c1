"""The oracle interface and the accounting wrapper.

Every crowd backend (perfect oracle, imperfect expert, aggregated crowd)
implements :class:`Oracle`.  The cleaning algorithms never see the
backend directly: they talk to an :class:`AccountingOracle`, which logs
every interaction with its cost and — because the paper's strategies
never repeat a question — caches closed answers so a repeated question
is answered for free.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Mapping, Optional, Sequence

from ..db.tuples import Constant, Fact
from ..query.ast import Query, Var
from ..query.evaluator import Answer, Assignment
from ..telemetry import TELEMETRY as _TELEMETRY
from .questions import (
    InteractionLog,
    QuestionKind,
    Request,
    ask,
    question_cost,
    question_detail,
    question_key,
)


class Oracle(ABC):
    """A (possibly imperfect, possibly aggregated) domain expert."""

    @abstractmethod
    def verify_fact(self, fact: Fact) -> bool:
        """``TRUE(R(ā))?`` — is the fact in the ground truth?"""

    def verify_facts(self, facts: Sequence[Fact]) -> dict[Fact, bool]:
        """A *composite* question (paper §9): the truth of several facts
        posed in a single interaction.  Backends answer each fact; the
        default implementation just loops :meth:`verify_fact`."""
        return {fact: self.verify_fact(fact) for fact in facts}

    @abstractmethod
    def verify_answer(self, query: Query, answer: Answer) -> bool:
        """``TRUE(Q, t)?`` — is *answer* in ``Q(D_G)``?"""

    @abstractmethod
    def verify_candidate(self, query: Query, partial: Mapping[Var, Constant]) -> bool:
        """``CrowdVerify(α(body(Q)))`` — is α satisfiable w.r.t. ``D_G``?

        For a total assignment this asks whether the induced witness is
        all-true; for a partial one whether some extension is.
        """

    @abstractmethod
    def complete_assignment(
        self, query: Query, partial: Mapping[Var, Constant]
    ) -> Optional[Assignment]:
        """``COMPL(α, Q)`` — extend α to a valid total assignment w.r.t.
        ``D_G``, or ``None`` if α is not satisfiable."""

    @abstractmethod
    def complete_result(
        self, query: Query, known_answers: Iterable[Answer]
    ) -> Optional[Answer]:
        """``COMPL(Q(D))`` — an answer of ``Q(D_G)`` missing from
        *known_answers*, or ``None`` if there is none."""


class ForwardingOracle(Oracle):
    """An oracle that poses every question as one request tuple.

    Subclasses implement :meth:`forward` — a pipe round-trip, a delay, a
    broker submission — and inherit the six question methods, each of
    which builds its request (see :mod:`repro.oracle.questions`) and
    forwards it.
    """

    @abstractmethod
    def forward(self, request: Request) -> Any:
        """Answer one request tuple."""

    def verify_fact(self, fact: Fact) -> bool:
        return self.forward(("verify_fact", fact))

    def verify_facts(self, facts: Sequence[Fact]) -> dict[Fact, bool]:
        return self.forward(("verify_facts", facts))

    def verify_answer(self, query: Query, answer: Answer) -> bool:
        return self.forward(("verify_answer", query, answer))

    def verify_candidate(self, query: Query, partial: Mapping[Var, Constant]) -> bool:
        return self.forward(("verify_candidate", query, partial))

    def complete_assignment(
        self, query: Query, partial: Mapping[Var, Constant]
    ) -> Optional[Assignment]:
        return self.forward(("complete_assignment", query, partial))

    def complete_result(
        self, query: Query, known_answers: Iterable[Answer]
    ) -> Optional[Answer]:
        return self.forward(("complete_result", query, known_answers))


#: Kinds whose verdicts the accounting cache keeps (by question key).
_CACHED_KINDS = frozenset({"verify_fact", "verify_answer"})


class AccountingOracle(ForwardingOracle):
    """Delegates to a backend oracle, logging and caching interactions.

    Caching mirrors the paper's "questions are never repeated": a fact or
    answer already verified in this run costs nothing when consulted
    again (the system simply remembers).
    """

    def __init__(self, backend: Oracle, log: Optional[InteractionLog] = None) -> None:
        self.backend = backend
        self.log = log if log is not None else InteractionLog()
        # Keyed by question_key — value-based, so equal queries share
        # verdicts regardless of object identity, and a recycled id()
        # can never alias two distinct queries to one stale verdict.
        self._cache: dict[Any, bool] = {}

    # -- accounting ------------------------------------------------------
    def record_interaction(self, kind: QuestionKind, cost: int, detail: str = "") -> None:
        """One crowd interaction — asked of the backend or answered outside
        it (e.g. by the dispatch engine's worker pool): append it to the
        log and mirror it into the telemetry counter stream
        (``oracle.questions.*`` / ``oracle.cost.*``), so §7-style budgets
        are observable live, not only post-hoc."""
        self.log.record(kind, cost, detail)
        tel = _TELEMETRY
        if tel.enabled:
            tel.count(f"oracle.questions.{kind.value}")
            tel.count(f"oracle.cost.{kind.value}", cost)
            tel.count("oracle.cost.total", cost)

    # -- cache -------------------------------------------------------------
    def cached(self, request: Request) -> Optional[bool]:
        """This run's verdict for *request*, if it has one (only fact and
        answer verdicts are kept)."""
        if request[0] in _CACHED_KINDS:
            return self._cache.get(question_key(request))
        return None

    def remember(self, request: Request, value: Any) -> None:
        """Record *request*'s verdict, obtained asked or out of band (a
        composite reply is kept per fact)."""
        if request[0] == "verify_facts":
            for fact in request[1]:
                self.remember_fact(fact, value[fact])
        elif request[0] in _CACHED_KINDS:
            self._cache[question_key(request)] = value

    def knows_fact(self, fact: Fact) -> bool:
        return ("verify_fact", fact) in self._cache

    def known_fact_value(self, fact: Fact) -> Optional[bool]:
        return self._cache.get(("verify_fact", fact))

    def remember_fact(self, fact: Fact, value: bool) -> None:
        """Record knowledge inferred without asking (e.g. Theorem 4.5)."""
        self._cache[("verify_fact", fact)] = value

    def forget(self) -> None:
        """Drop cached answers.

        With an imperfect crowd a wrong majority vote must not poison
        every later iteration; Algorithm 3 clears the cache between
        outer iterations so a retried question gets a fresh vote (the
        paper's "iterative protection", Section 6.2).  Costs already
        logged are kept.
        """
        self._cache.clear()

    # -- answering ---------------------------------------------------------
    def forward(self, request: Request) -> Any:
        """Answer from the cache for free, else ask the backend."""
        cached = self.cached(request)
        if cached is not None:
            if _TELEMETRY.enabled:
                _TELEMETRY.count("oracle.cache_hits")
            return cached
        return self._ask_backend(request)

    def _ask_backend(self, request: Request) -> Any:
        """Pay the backend for *request*: log its cost, cache its verdict."""
        value = ask(self.backend, request)
        self.remember(request, value)
        self.record_interaction(
            QuestionKind(request[0]),
            question_cost(request, value),
            question_detail(request),
        )
        return value

    def verify_facts(self, facts: Sequence[Fact]) -> dict[Fact, bool]:
        """Composite fact verification: one logged interaction for the
        whole batch (cost 1 — the point of composite questions), cached
        per fact like single questions."""
        results: dict[Fact, bool] = {}
        to_ask: list[Fact] = []
        for fact in facts:
            cached = self.known_fact_value(fact)
            if cached is not None:
                results[fact] = cached
            elif fact not in to_ask:
                to_ask.append(fact)
        if to_ask:
            answers = self._ask_backend(("verify_facts", to_ask))
            for fact in to_ask:
                results[fact] = answers[fact]
        return results
