"""Cross-session answer sharing for synchronous sessions.

The dispatch engine consults the :class:`~repro.dispatch.dedup.AnswerBoard`
between its cache probe and the worker pool; synchronous sessions (plain
:class:`~repro.core.qoco.QOCO` driving an oracle directly) get the same
benefit through :class:`SharedOracle` — an accounting oracle that checks
the board before paying the backend for a closed question, and publishes
every verdict it does pay for.

Board keys are the :func:`~repro.oracle.questions.question_key` of the
request (see ``docs/dispatch.md``, "Questions"), the same identity the
dispatch engine publishes under, so synchronous and dispatched sessions
sharing one board coalesce with each other, not just among themselves.

Open questions (``COMPL``) never touch the board — their answers depend
on run-local context (the known-answer set, the assignment's history).
The board holds *final* verdicts; it is intended for reliable oracles
(the paper's simulated-expert setting).  ``forget()`` clears only the
session-local caches — one tenant's iterative re-poll must not destroy
every other tenant's sharing.
"""

from __future__ import annotations

from typing import Any, Optional

from ..dispatch.dedup import AnswerBoard
from ..oracle.base import AccountingOracle, Oracle
from ..oracle.questions import InteractionLog, Request, question_key
from ..telemetry import TELEMETRY as _TELEMETRY


class SharedOracle(AccountingOracle):
    """An accounting oracle backed by a cross-session answer board.

    Lookup order for a closed question: session-local cache (free),
    then the shared board (free, counted as ``server.shared_hits``),
    then the backend (logged and charged as usual, verdict published).
    """

    def __init__(
        self,
        backend: Oracle,
        board: AnswerBoard,
        log: Optional[InteractionLog] = None,
    ) -> None:
        super().__init__(backend, log)
        self.board = board
        #: closed questions answered free from the board by this session
        self.shared_hits = 0

    def _similar(self, key: tuple) -> Optional[bool]:
        """A renamed twin's published verdict (similarity-enabled boards
        only); republished under the exact key on a hit."""
        value = self.board.get_similar(key)
        if value is not None:
            if _TELEMETRY.enabled:
                _TELEMETRY.count("server.similarity_hits")
            self.board.put(key, value)
        return value

    def _ask_backend(self, request: Request) -> Any:
        """Before paying the backend for a voted question, read the
        board; publish the verdict the backend gives."""
        key = question_key(request)
        if key is None:
            return super()._ask_backend(request)
        published = self.board.get(key)
        if published is None:
            published = self._similar(key)
        if published is not None:
            self.shared_hits += 1
            if _TELEMETRY.enabled:
                _TELEMETRY.count("server.shared_hits")
            self.remember(request, published)
            return published
        value = super()._ask_backend(request)
        self.board.put(key, value)
        return value


__all__ = ["AnswerBoard", "SharedOracle"]
