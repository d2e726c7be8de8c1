"""Tenant-aware question scoring for shared crowd capacity.

The service broker leases questions to workers; with several tenants
multiplexed over one worker pool, FIFO order spends capacity on whoever
submitted first, not on whoever it *unblocks* most.
:class:`CapacityScheduler` scores each pending question by

    subscribers x priority / (kind cost x votes still needed)

so a question that several coalesced sessions wait on, from a
high-priority tenant, with a cheap kind and one vote to go, jumps the
queue.  The broker falls back to FIFO age among equal scores, so
single-tenant workloads behave exactly as before.

This module is import-standalone (no dispatch/service imports):
``repro.dispatch.policy`` re-exports it for the dispatch-facing surface.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from ..oracle.questions import CLOSED_KINDS, QuestionKind

#: Relative crowd price per question kind (the broker's kind strings,
#: i.e. :class:`~repro.oracle.questions.QuestionKind` values) — closed
#: (yes/no) questions are cheap, open (fill-in) questions cost more.
#: Mirrors the default open/closed cost ratio of the accounting oracle.
DEFAULT_KIND_COSTS: dict[str, float] = {
    kind.value: 1.0 if kind in CLOSED_KINDS else 2.0 for kind in QuestionKind
}


class CapacityScheduler:
    """Scores broker questions: highest sessions-unblocked per unit cost."""

    def __init__(self, kind_costs: Optional[Mapping[str, float]] = None) -> None:
        self.kind_costs = dict(DEFAULT_KIND_COSTS)
        if kind_costs:
            self.kind_costs.update(kind_costs)

    def score(self, question: Any, now: float) -> float:
        """Bigger = lease sooner.  Reads broker ``_Question`` attributes
        defensively so any queue item with ``kind`` works."""
        subscribers = max(1, int(getattr(question, "subscribers", 1)))
        priority = float(getattr(question, "priority", 1.0))
        kind_cost = self.kind_costs.get(getattr(question, "kind", ""), 1.0)
        votes_needed = int(getattr(question, "votes_needed", 1))
        votes_have = len(getattr(question, "votes", ()) or ())
        remaining = max(1, votes_needed - votes_have)
        return (subscribers * priority) / (kind_cost * remaining)


__all__ = ["CapacityScheduler", "DEFAULT_KIND_COSTS"]
