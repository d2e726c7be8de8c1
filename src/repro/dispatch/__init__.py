"""Live crowd-dispatch: asynchronous question routing for the cleaning loop.

The paper's deployment (§6.2, §7) cleans against human experts whose
answers are slow, duplicated across concurrent tasks, and sometimes
never arrive.  This package makes those realities first-class inside
``ParallelQOCO``: rounds of questions are routed through a pool of
simulated workers with stochastic latency, fault injection, per-question
timeout/retry/re-routing, cross-task deduplication of identical closed
questions, and deadline/cost budgets with graceful degradation.  See
``docs/dispatch.md``.
"""

from .dedup import AnswerBoard
from .engine import (
    DispatchEngine,
    DispatchRoundScheduler,
    DispatchStats,
    dispatch_clean,
)
from .policy import Budget, FaultKind, FaultModel, RetryPolicy
from .workers import Worker, WorkerPool, perfect_pool

__all__ = [
    "AnswerBoard",
    "Budget",
    "DispatchEngine",
    "DispatchRoundScheduler",
    "DispatchStats",
    "FaultKind",
    "FaultModel",
    "RetryPolicy",
    "Worker",
    "WorkerPool",
    "dispatch_clean",
    "perfect_pool",
]
