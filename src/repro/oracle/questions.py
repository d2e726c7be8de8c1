"""Crowd question types and interaction accounting.

The paper uses four question types (Sections 3.2, 5, 6.1):

* ``TRUE(R(ā))?``       — is this fact true?                    (closed)
* ``TRUE(Q, t)?``       — is t a true answer of Q?              (closed)
* ``COMPL(α, Q)``       — complete α into a witness of Q        (open)
* ``COMPL(Q(D))``       — name an answer missing from Q(D)      (open)

plus the Algorithm-2 variant of ``CrowdVerify`` on a candidate
assignment ("is α(body(Q|t)) valid/satisfiable w.r.t. D_G?"), which the
paper describes as reducing the open task "to a question whether a given
assignment is valid or satisfiable" — a single closed question.

Accounting follows Section 7: a closed question costs 1; an open
question costs the number of unique variables the expert bound (a "not
satisfiable" reply to an open question costs 1 — the expert still had to
check).

Every layer poses a question as one value, a *request* tuple whose first
element is the :class:`QuestionKind` value and whose rest are the
arguments of the :class:`~repro.oracle.base.Oracle` method of that name:

* ``("verify_fact", fact)``                   → bool
* ``("verify_facts", facts)``                 → ``{fact: bool}``
* ``("verify_answer", query, answer)``        → bool
* ``("verify_candidate", query, partial)``    → bool
* ``("complete_assignment", query, partial)`` → assignment or None
* ``("complete_result", query, known)``       → answer or None

plus ``("remember", fact, value)``, a free inference the cleaning tasks
record in the accounting cache.  This module is the one place that knows
the format: :func:`ask` answers a request with any oracle,
:func:`question_key` gives a closed request its structural identity,
:func:`question_cost` and :func:`question_detail` price and describe it
for the log, and :func:`check_reply` vets a reply that crossed a trust
boundary.  See ``docs/dispatch.md`` ("Questions") for the layers that
read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Mapping, Optional

if TYPE_CHECKING:
    from ..db.tuples import Constant
    from ..query.ast import Query, Var
    from ..query.evaluator import Answer, Assignment

#: A crowd question: ``(kind, *arguments)`` (see the module docstring).
Request = tuple


class QuestionKind(Enum):
    """What was asked, for per-category reporting (Figures 3f and 4)."""

    VERIFY_FACT = "verify_fact"            # TRUE(R(ā))?
    VERIFY_FACTS = "verify_facts"          # composite TRUE over several facts (§9)
    VERIFY_ANSWER = "verify_answer"        # TRUE(Q, t)?
    VERIFY_CANDIDATE = "verify_candidate"  # CrowdVerify(α(body(Q|t)))
    COMPLETE_ASSIGNMENT = "complete_assignment"  # COMPL(α, Q)
    COMPLETE_RESULT = "complete_result"    # COMPL(Q(D))


#: Kinds that are closed (boolean) questions.
CLOSED_KINDS = frozenset(
    {
        QuestionKind.VERIFY_FACT,
        QuestionKind.VERIFY_FACTS,
        QuestionKind.VERIFY_ANSWER,
        QuestionKind.VERIFY_CANDIDATE,
    }
)

#: The closed kinds whose reply is one boolean, by request-kind string:
#: the questions a crowd votes on and a dispatcher may coalesce by
#: structural key (a composite ``verify_facts`` reply maps each fact).
VOTED_KINDS = frozenset(
    kind.value for kind in CLOSED_KINDS if kind is not QuestionKind.VERIFY_FACTS
)

#: Kinds that are open questions (tasks).
OPEN_KINDS = frozenset(
    {QuestionKind.COMPLETE_ASSIGNMENT, QuestionKind.COMPLETE_RESULT}
)

#: Figure 3f / Figure 4 stack categories.
CATEGORY_VERIFY_ANSWERS = "verify_answers"
CATEGORY_VERIFY_TUPLES = "verify_tuples"
CATEGORY_FILL_MISSING = "fill_missing"

_KIND_CATEGORY = {
    QuestionKind.VERIFY_ANSWER: CATEGORY_VERIFY_ANSWERS,
    QuestionKind.VERIFY_FACT: CATEGORY_VERIFY_TUPLES,
    QuestionKind.VERIFY_FACTS: CATEGORY_VERIFY_TUPLES,
    QuestionKind.VERIFY_CANDIDATE: CATEGORY_VERIFY_TUPLES,
    QuestionKind.COMPLETE_ASSIGNMENT: CATEGORY_FILL_MISSING,
    QuestionKind.COMPLETE_RESULT: CATEGORY_FILL_MISSING,
}


def category_of(kind: QuestionKind) -> str:
    """The Figure 3f stack category of a question kind."""
    return _KIND_CATEGORY[kind]


#: Request kind -> the oracle method that answers it.
_METHODS = {kind.value: kind.value for kind in QuestionKind}
_METHODS["remember"] = "remember_fact"


def ask(oracle: Any, request: Request) -> Any:
    """Answer *request* synchronously with *oracle*'s method of that kind."""
    method = _METHODS.get(request[0])
    if method is None:
        raise ValueError(f"unknown request {request!r}")
    return getattr(oracle, method)(*request[1:])


def question_key(request: Request) -> Optional[Hashable]:
    """A structural identity for a voted request, ``None`` for the rest.

    Keys are value-based (facts, queries, and answers are immutable and
    hashable) — never ``id()``-based, so two structurally equal queries
    from different task objects coalesce, and a recycled object id can
    never alias two distinct questions.  The same key indexes the
    accounting cache, the dispatch engine's in-flight votes, the broker's
    coalescing and the cross-session :class:`~repro.dispatch.dedup.AnswerBoard`.
    """
    kind = request[0]
    if kind not in VOTED_KINDS:
        return None
    if kind == "verify_candidate":  # the partial arrives as a mapping
        return (kind, request[1], frozenset(request[2].items()))
    return tuple(request)


def open_question_cost(
    query: "Query", partial: "Mapping[Var, Constant]", result: "Optional[Assignment]"
) -> int:
    """Cost of a ``COMPL(α, Q)`` reply: unique variables the expert bound."""
    if result is None:
        return 1
    filled = {v for v in query.variables() if v not in partial}
    return max(1, len(filled & set(result)))


def result_question_cost(query: "Query", result: "Optional[Answer]") -> int:
    """Cost of a ``COMPL(Q(D))`` reply: head variables named (or 1)."""
    if result is None:
        return 1
    return max(1, len(set(query.head_variables())))


def question_cost(request: Request, reply: Any) -> int:
    """The §7 cost of answering *request* with *reply*."""
    kind = request[0]
    if kind == "complete_assignment":
        return open_question_cost(request[1], request[2], reply)
    if kind == "complete_result":
        return result_question_cost(request[1], reply)
    return 1


def question_detail(request: Request) -> str:
    """The log detail string of *request* (see :class:`Interaction`)."""
    kind = request[0]
    if kind == "verify_fact":
        return str(request[1])
    if kind == "verify_facts":
        return f"{len(request[1])} facts"
    if kind == "verify_answer":
        return f"{request[1].name}{request[2]}"
    return request[1].name


def check_reply(request: Request, reply: Any) -> None:
    """Raise :class:`ValueError` unless *reply* can answer *request*.

    A voted question takes one boolean verdict; a composite
    ``verify_facts`` question takes a boolean verdict for exactly the
    facts it asked.  Open replies are shaped by their decoder.
    """
    kind = request[0]
    if kind in VOTED_KINDS and not isinstance(reply, bool):
        raise ValueError(f"{kind} needs a boolean reply, got {reply!r}")
    if kind == "verify_facts" and not (
        isinstance(reply, dict)
        and set(reply) == set(request[1])
        and all(isinstance(verdict, bool) for verdict in reply.values())
    ):
        raise ValueError(f"verify_facts needs one boolean per asked fact, got {reply!r}")


@dataclass(frozen=True)
class Interaction:
    """One question-and-answer with the crowd."""

    kind: QuestionKind
    cost: int
    detail: str = ""


@dataclass
class InteractionLog:
    """Question/cost accounting for one cleaning run.

    Cost model (Section 7 and Figure 3): closed question = 1; open
    question = number of unique variables the expert bound, or 1 for a
    null ("not satisfiable" / "result complete") reply.
    """

    records: list[Interaction] = field(default_factory=list)

    def record(self, kind: QuestionKind, cost: int, detail: str = "") -> None:
        if cost < 0:
            raise ValueError(f"negative interaction cost {cost}")
        self.records.append(Interaction(kind, cost, detail))

    # -- totals ---------------------------------------------------------
    @property
    def question_count(self) -> int:
        return len(self.records)

    @property
    def total_cost(self) -> int:
        return sum(r.cost for r in self.records)

    def cost_of(self, kinds: Iterable[QuestionKind]) -> int:
        wanted = set(kinds)
        return sum(r.cost for r in self.records if r.kind in wanted)

    def count_of(self, kinds: Iterable[QuestionKind]) -> int:
        wanted = set(kinds)
        return sum(1 for r in self.records if r.kind in wanted)

    @property
    def closed_cost(self) -> int:
        return self.cost_of(CLOSED_KINDS)

    @property
    def open_cost(self) -> int:
        return self.cost_of(OPEN_KINDS)

    def category_costs(self) -> dict[str, int]:
        """Costs bucketed into the Figure 3f categories."""
        buckets = {
            CATEGORY_VERIFY_ANSWERS: 0,
            CATEGORY_VERIFY_TUPLES: 0,
            CATEGORY_FILL_MISSING: 0,
        }
        for record in self.records:
            buckets[category_of(record.kind)] += record.cost
        return buckets

    def snapshot(self) -> "LogSnapshot":
        """A marker for measuring a sub-phase (costs since the marker)."""
        return LogSnapshot(self, len(self.records))

    def merge(self, other: "InteractionLog") -> None:
        self.records.extend(other.records)

    # -- audit trail ------------------------------------------------------
    def to_dicts(self) -> list[dict]:
        """JSON-serializable form of the full question trail."""
        return [
            {"kind": r.kind.value, "cost": r.cost, "detail": r.detail}
            for r in self.records
        ]

    @classmethod
    def from_dicts(cls, rows: Iterable[dict]) -> "InteractionLog":
        log = cls()
        for row in rows:
            log.record(QuestionKind(row["kind"]), row["cost"], row.get("detail", ""))
        return log

    def save_json(self, file_path) -> None:
        """Persist the audit trail (who was asked what, at what cost)."""
        import json

        with open(file_path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dicts(), handle, indent=2)

    @classmethod
    def load_json(cls, file_path) -> "InteractionLog":
        import json

        with open(file_path, encoding="utf-8") as handle:
            return cls.from_dicts(json.load(handle))


@dataclass
class LogSnapshot:
    """Delta view over an :class:`InteractionLog` from a point in time."""

    log: InteractionLog
    start: int

    def _slice(self) -> list[Interaction]:
        return self.log.records[self.start :]

    @property
    def total_cost(self) -> int:
        return sum(r.cost for r in self._slice())

    @property
    def question_count(self) -> int:
        return len(self._slice())

    def cost_of(self, kinds: Iterable[QuestionKind]) -> int:
        wanted = set(kinds)
        return sum(r.cost for r in self._slice() if r.kind in wanted)
