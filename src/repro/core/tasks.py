"""The question requests Algorithms 1 and 2 yield, and their driver.

Each algorithm is written once, as a *task*: a generator that yields one
request per crowd question, receives the answer, and returns its edits
(:func:`repro.core.deletion.removal_task`,
:func:`repro.core.insertion.insertion_task`).  The sequential cleaner
runs a task with :func:`drive`, one question at a time;
:class:`repro.core.parallel.RoundScheduler` advances many tasks one
question each per round.  Requests are the question tuples of
:mod:`repro.oracle.questions` (see ``docs/dispatch.md``, "Questions"):
``verify_fact``, ``verify_candidate`` and ``complete_assignment`` from
the tasks, ``verify_answer`` and ``complete_result`` from the main
loops, plus ``("remember", fact, value)``, a free inference recorded in
the oracle's cache that takes no crowd slot.
"""

from __future__ import annotations

from typing import Any, Generator, TypeVar

from ..db.edits import Edit
from ..oracle.base import AccountingOracle
from ..oracle.questions import Request, ask

Task = Generator[Request, Any, list[Edit]]
_T = TypeVar("_T")


def drive(task: Generator[Request, Any, _T], oracle: AccountingOracle) -> _T:
    """Run *task* to completion, one question at a time; return its result."""
    reply = None
    while True:
        try:
            request = task.send(reply)
        except StopIteration as stop:
            return stop.value
        reply = ask(oracle, request)
