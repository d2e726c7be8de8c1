"""The unified cleaning report.

Every cleaning entry point — :class:`~repro.core.qoco.QOCO`,
:class:`~repro.core.parallel.ParallelQOCO`,
:class:`~repro.core.ucq.UCQCleaner`, the dispatch engine's
:func:`~repro.dispatch.engine.dispatch_clean`, and the server's
sessions — returns one :class:`Report` type with a consistent surface:
``summary()``, ``rounds``, ``wall_clock``, and ``total_cost`` are always
present (zero-valued where the run has no round structure or simulated
clock).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from ..db.edits import Edit, EditKind
from ..oracle.questions import InteractionLog
from ..query.evaluator import Answer


@runtime_checkable
class ReportLike(Protocol):
    """The minimal read surface shared by every cleaning outcome."""

    query_name: str
    rounds: int
    wall_clock: float
    converged: bool

    @property
    def total_cost(self) -> int: ...

    def summary(self) -> str: ...


@dataclass
class Report:
    """The outcome of one cleaning run (one query)."""

    query_name: str
    edits: list[Edit] = field(default_factory=list)
    iterations: int = 0
    wrong_answers_removed: list[Answer] = field(default_factory=list)
    missing_answers_added: list[Answer] = field(default_factory=list)
    converged: bool = True
    log: InteractionLog = field(default_factory=InteractionLog)
    #: crowd rounds posted (each round costs one crowd latency); 0 for
    #: the strictly sequential algorithms, which have no round structure
    rounds: int = 0
    #: simulated wall-clock seconds of a dispatched run (repro.dispatch);
    #: 0.0 when questions were answered synchronously
    wall_clock: float = 0.0
    #: widest round posted (parallel/dispatched runs; 0 when sequential)
    peak_width: int = 0

    @property
    def deletions(self) -> list[Edit]:
        return [e for e in self.edits if e.kind is EditKind.DELETE]

    @property
    def insertions(self) -> list[Edit]:
        return [e for e in self.edits if e.kind is EditKind.INSERT]

    @property
    def total_cost(self) -> int:
        return self.log.total_cost

    def summary(self) -> str:
        text = (
            f"{self.query_name}: {len(self.wrong_answers_removed)} wrong removed, "
            f"{len(self.missing_answers_added)} missing added, "
            f"{len(self.deletions)}-/{len(self.insertions)}+ edits, "
            f"{self.log.total_cost} question units in {self.iterations} iteration(s)"
        )
        if self.rounds:
            text += f", {self.rounds} round(s)"
        if self.wall_clock:
            text += f", {self.wall_clock:.0f}s simulated wall-clock"
        if not self.converged:
            text += " [did not converge]"
        return text
