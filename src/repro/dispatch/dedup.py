"""Cross-task deduplication of concurrent closed questions.

When the parallel loop posts a whole round at once, distinct tasks can
ask the *same* closed question in the same round — two wrong answers
sharing a suspect fact both yield ``TRUE(R(ā))?`` for it.  The
synchronous path coalesces these for free because answers resolve one
at a time against the :class:`~repro.oracle.base.AccountingOracle`
cache; a live dispatcher posts them concurrently, *before* either
answer has returned, so without help both go to the crowd and both pay
for a full vote sample.

:func:`~repro.oracle.questions.question_key` maps a closed request to a
structural identity — the same key the accounting cache uses once the
answer lands — and the engine keeps an in-flight index per round: the first occurrence is
routed, later occurrences subscribe to its shared vote.  Open questions
(``COMPL``) are never deduplicated: their payload includes run-specific
context (the known-answer set, the partial assignment's history), and
the paper's protocol treats each as a fresh task.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Optional


class AnswerBoard:
    """Completed closed answers shared *across* cleaning sessions.

    The dispatch engine coalesces duplicates inside one round of one
    session; the board extends the same structural identity across
    sessions running concurrently against a shared crowd.  Tenants whose
    views overlap ask many of the same closed questions — once any
    session has a final value for a key, every other session reads it
    for free instead of paying a fresh vote sample.

    Only *final* values are published (a closed question's majority
    verdict, never an in-flight vote), so reads need no blocking: a miss
    simply means "ask the crowd yourself".  The board is keyed by
    :func:`~repro.oracle.questions.question_key`, the same value-based
    identity the accounting cache uses, and is safe to share between
    session threads.

    With ``similarity=True`` the board additionally indexes every
    published entry by its :func:`repro.plan.similarity.similarity_key`
    canonical class, so :meth:`get_similar` can serve a
    variable-renamed twin of an already-answered question.  The index is
    *derived* — rebuilt by :meth:`put` itself — so durability snapshots
    and the :meth:`entries` cursor contract are untouched: recovery
    replays ``put`` and the index reappears.
    """

    def __init__(self, *, similarity: bool = False) -> None:
        self._answers: dict[Hashable, Any] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.publishes = 0
        self.similarity = similarity
        self.similarity_hits = 0
        self._canonical: dict[Hashable, Any] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._answers)

    def get(self, key: Hashable) -> Optional[Any]:
        """The published value for *key*, or ``None`` (also counts the hit)."""
        if key is None:
            return None
        with self._lock:
            value = self._answers.get(key)
            if value is not None:
                self.hits += 1
            return value

    def get_similar(self, key: Hashable) -> Optional[Any]:
        """A published value for any question in *key*'s similarity
        class, or ``None`` (disabled boards always miss)."""
        if not self.similarity or key is None:
            return None
        ckey = similarity_class(key)
        if ckey is None:
            return None
        with self._lock:
            value = self._canonical.get(ckey)
            if value is not None:
                self.similarity_hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Publish a final value for *key* (first writer wins)."""
        if key is None or value is None:
            return
        with self._lock:
            if key not in self._answers:
                self._answers[key] = value
                self.publishes += 1
                if self.similarity:
                    ckey = similarity_class(key)
                    if ckey is not None and ckey not in self._canonical:
                        self._canonical[ckey] = value

    def entries(self, start: int = 0) -> list[tuple[Hashable, Any]]:
        """The published ``(key, value)`` pairs, in publication order.

        **Concurrent-append contract** (pinned by
        ``tests/test_dispatch.py::TestAnswerBoardCursor``): the board is
        append-only — first-writer-wins, no deletions, no reordering —
        so position ``i`` refers to the same entry forever.  A reader
        holding an integer cursor ``n`` and repeatedly calling
        ``entries(n)`` (advancing ``n`` by the length of each slice)
        therefore observes every entry **exactly once**, in publication
        order, even while writer threads keep appending between calls:
        appends land strictly after the snapshot this call copies under
        the lock, so they appear in a later slice — never skipped, never
        doubled.  This is how the durability layer exports board deltas
        per WAL record, and how the warm follower preloads its board
        incrementally from shipped records.
        """
        with self._lock:
            items = list(self._answers.items())
        return items[start:]


def similarity_class(key: Hashable) -> Optional[Hashable]:
    """The canonical similarity class of *key* (lazy import keeps this
    module free of query-layer dependencies unless similarity is on)."""
    from ..plan.similarity import similarity_key

    return similarity_key(key)  # type: ignore[arg-type]


__all__ = ["AnswerBoard", "similarity_class"]
