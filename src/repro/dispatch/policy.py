"""Dispatch policies: retries, fault injection, and budgets (§6.2, §7).

The live deployment the paper describes (real experts on §7.2's Soccer
database) is slow and unreliable: answers straggle, some never arrive,
and the experiment has a wall-clock and a question budget.  These
policies make those dimensions explicit knobs of the dispatch engine:

* :class:`RetryPolicy` — per-question timeout, exponential backoff, and
  re-routing of the retried question to workers that have not already
  failed it;
* :class:`FaultModel` — stochastic no-shows (a worker silently ignores
  an assignment), dropouts (the worker leaves the pool for good), and
  late answers (the reply arrives after the timeout and is discarded);
* :class:`Budget` — a cost ceiling in the paper's §7 question units
  and/or a simulated wall-clock deadline.  Exhaustion never raises mid
  round: the engine degrades gracefully (cached knowledge + conservative
  defaults) and the cleaning report flags ``converged=False``;
* :data:`FALLBACKS` and :func:`majority` — the crowd-policy table both
  the simulated engine and the service broker resolve questions by.

Cost-bounded degradation echoes the budgeted-repair line of work
(Livshits/Kimelfeld/Roy, *Computing Optimal Repairs for Functional
Dependencies*): when the budget cannot cover a full repair, the engine
still terminates with the best state the spent budget bought.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

#: Conservative resolutions, by question kind, for a question the crowd
#: never answers (or a budget denies): bias the cleaner toward "leave
#: the data alone" — never delete or insert on a guess.
FALLBACKS: dict[str, Any] = {
    "verify_fact": True,
    "verify_answer": True,
    "verify_candidate": False,
    "complete_assignment": None,
    "complete_result": None,
}


def majority(votes: Iterable[Any]) -> bool:
    """A closed question's verdict: strictly more yes than no votes.

    A split vote resolves to ``False``, as in the paper's
    :class:`~repro.oracle.aggregator.MajorityVote`.
    """
    votes = list(votes)
    return sum(1 for v in votes if v) * 2 > len(votes)


class FaultKind(enum.Enum):
    """What went wrong with one worker assignment."""

    NO_SHOW = "no_show"    # the worker never answers this assignment
    DROPOUT = "dropout"    # the worker leaves the pool permanently
    LATE = "late"          # the answer arrives, but slower than usual


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout → exponential backoff → re-route to a fresh worker.

    Parameters
    ----------
    timeout:
        Seconds (simulated) after which an unanswered assignment is
        abandoned and retried.  ``None`` disables timeouts entirely —
        the fault-free configuration whose timing is bit-identical to
        :class:`repro.crowdsim.CrowdSimulator` replay.
    max_retries:
        Retries per *vote slot* (the original attempt is not a retry).
    backoff_base / backoff_factor:
        Retry *k* (0-based) is delayed ``backoff_base * backoff_factor**k``
        seconds past the abandoning timeout, the usual exponential
        backoff so a struggling pool is not hammered.
    reroute:
        Exclude workers that already failed this question when choosing
        the retry's worker (fresh eyes; also dodges a no-show worker
        deterministically ignoring the same task again).
    """

    timeout: Optional[float] = None
    max_retries: int = 3
    backoff_base: float = 15.0
    backoff_factor: float = 2.0
    reroute: bool = True

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None to disable)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")

    def delay(self, retry_index: int) -> float:
        """Backoff before retry *retry_index* (0-based)."""
        return self.backoff_base * self.backoff_factor**retry_index


@dataclass
class FaultModel:
    """Stochastic per-assignment fault injection.

    Rates are independent probabilities checked in order
    (dropout, no-show, late); at most one fault fires per assignment.
    Draws come from the model's own RNG so fault injection never
    perturbs the latency sampler's stream (fault-free runs stay
    bit-identical to crowd-simulator replay).
    """

    no_show_rate: float = 0.0
    dropout_rate: float = 0.0
    late_rate: float = 0.0
    late_factor: float = 4.0
    rng: random.Random = field(default_factory=random.Random)

    def __post_init__(self) -> None:
        for name in ("no_show_rate", "dropout_rate", "late_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} {rate} outside [0, 1]")
        if self.late_factor < 1.0:
            raise ValueError("late_factor must be >= 1")

    @property
    def active(self) -> bool:
        return (self.no_show_rate or self.dropout_rate or self.late_rate) > 0

    @property
    def lossy(self) -> bool:
        """Can an assignment fail to ever produce an answer?"""
        return (self.no_show_rate or self.dropout_rate) > 0

    def draw(self) -> Optional[FaultKind]:
        if not self.active:
            return None
        if self.dropout_rate and self.rng.random() < self.dropout_rate:
            return FaultKind.DROPOUT
        if self.no_show_rate and self.rng.random() < self.no_show_rate:
            return FaultKind.NO_SHOW
        if self.late_rate and self.rng.random() < self.late_rate:
            return FaultKind.LATE
        return None


@dataclass
class Budget:
    """Cost and/or deadline ceiling for one dispatch session.

    ``max_cost`` is in the paper's §7 question units (what
    :class:`~repro.oracle.questions.InteractionLog` sums);
    ``deadline`` is in simulated seconds against the engine's clock.
    The engine checks :meth:`exhausted` *before* posting a question, so
    in-flight work always completes — exhaustion degrades, never hangs.
    """

    max_cost: Optional[float] = None
    deadline: Optional[float] = None
    spent: float = 0.0

    def __post_init__(self) -> None:
        if self.max_cost is not None and self.max_cost < 0:
            raise ValueError("max_cost must be >= 0")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be >= 0")

    def charge(self, cost: float) -> None:
        self.spent += cost

    def cost_exhausted(self) -> bool:
        return self.max_cost is not None and self.spent >= self.max_cost

    def time_exhausted(self, clock: float) -> bool:
        return self.deadline is not None and clock >= self.deadline

    def exhausted(self, clock: float) -> bool:
        return self.cost_exhausted() or self.time_exhausted(clock)


# Tenant-aware lease scheduling for the service broker lives in
# ``repro.plan.schedule`` (a leaf module); re-exported here because the
# dispatch layer is where deployments pick their crowd policies.
from ..plan.schedule import DEFAULT_KIND_COSTS, CapacityScheduler  # noqa: E402,F401
