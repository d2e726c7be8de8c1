"""The question requests Algorithms 1 and 2 yield, and their driver.

Each algorithm is written once, as a *task*: a generator that yields one
request per crowd question, receives the answer, and returns its edits
(:func:`repro.core.deletion.removal_task`,
:func:`repro.core.insertion.insertion_task`).  The sequential cleaner
runs a task with :func:`drive`, one question at a time;
:class:`repro.core.parallel.RoundScheduler` advances many tasks one
question each per round.  Requests are tuples whose kind is a
:class:`~repro.oracle.questions.QuestionKind` value, or ``remember``:

* ``("verify_fact", fact)``                   → bool
* ``("verify_answer", query, answer)``        → bool
* ``("verify_candidate", query, partial)``    → bool
* ``("complete_assignment", query, partial)`` → assignment or None
* ``("complete_result", query, known)``       → answer or None
* ``("remember", fact, value)``               → None (a free inference,
  recorded in the oracle's cache; it takes no crowd slot)
"""

from __future__ import annotations

from typing import Any, Generator, TypeVar

from ..db.edits import Edit
from ..oracle.base import AccountingOracle

Request = tuple
Task = Generator[Request, Any, list[Edit]]
_T = TypeVar("_T")

#: Request kind -> the accounting-oracle method that answers it.
_METHODS = {
    "verify_fact": "verify_fact",
    "verify_answer": "verify_answer",
    "verify_candidate": "verify_candidate",
    "complete_assignment": "complete_assignment",
    "complete_result": "complete_result",
    "remember": "remember_fact",
}


def ask(oracle: AccountingOracle, request: Request):
    """Answer one request synchronously against *oracle*."""
    method = _METHODS.get(request[0])
    if method is None:
        raise ValueError(f"unknown request {request!r}")
    return getattr(oracle, method)(*request[1:])


def drive(task: Generator[Request, Any, _T], oracle: AccountingOracle) -> _T:
    """Run *task* to completion, one question at a time; return its result."""
    reply = None
    while True:
        try:
            request = task.send(reply)
        except StopIteration as stop:
            return stop.value
        reply = ask(oracle, request)
