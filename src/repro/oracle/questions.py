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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable


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
