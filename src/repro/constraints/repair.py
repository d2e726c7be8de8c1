"""Candidate-repair enumeration over the violation hypergraph.

The violations of a constraint set form a hypergraph: vertices are
facts, each violation contributes the hyperedge of its fact set.  A
*deletion repair* is a set of facts whose removal leaves no violation —
i.e. a hitting set of the hypergraph — and the subset-minimal ones are
exactly the minimal hitting sets, which :mod:`repro.hitting` already
enumerates (the same machinery Section 4 uses for witness sets).

FD violations additionally admit *value updates*: a violating pair
disagrees on one right-hand-side attribute, so overwriting either
fact's RHS cell with the partner's value resolves the pair without
shrinking the instance (the Livshits/Kimelfeld/Roy update-repair
setting).  An update is modelled as a delete+insert edit pair, which is
what the fork/WAL/commit machinery already transports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..db.edits import Edit, delete, insert
from ..db.tuples import Fact
from ..hitting.hitting_set import (
    all_minimal_hitting_sets,
    greedy_hitting_set,
    unique_minimal_hitting_set,
)
from .violations import Violation


class RepairError(RuntimeError):
    """Raised when no repair can be proposed (e.g. empty violation)."""


@dataclass(frozen=True)
class CandidateRepair:
    """One proposed repair: the edits and what they do.

    ``kind`` is ``"delete"`` (remove the chosen facts) or ``"update"``
    (rewrite one fact's RHS cell); ``cost`` counts edited facts, the
    quantity optimal-repair work minimizes.
    """

    kind: str
    edits: tuple[Edit, ...]
    cost: int

    @classmethod
    def deletion(cls, facts: Iterable[Fact]) -> "CandidateRepair":
        chosen = sorted(set(facts), key=repr)
        if not chosen:
            raise RepairError("a deletion repair needs at least one fact")
        return cls("delete", tuple(delete(f) for f in chosen), len(chosen))

    @classmethod
    def update(cls, old: Fact, new: Fact) -> "CandidateRepair":
        if old == new:
            raise RepairError("an update repair must change the fact")
        return cls("update", (delete(old), insert(new)), 1)

    def __str__(self) -> str:
        body = "; ".join(str(e) for e in self.edits)
        return f"{self.kind}[{body}]"


def violation_hypergraph(violations: Iterable[Violation]) -> list[frozenset[Fact]]:
    """The deduplicated hyperedges (one per distinct violating fact set)."""
    seen: set[frozenset[Fact]] = set()
    edges: list[frozenset[Fact]] = []
    for violation in violations:
        if violation.facts not in seen:
            seen.add(violation.facts)
            edges.append(violation.facts)
    return edges


def minimal_deletion_repairs(
    violations: Iterable[Violation], *, limit: Optional[int] = None
) -> list[CandidateRepair]:
    """Every subset-minimal deletion repair (exhaustive; small instances).

    The enumeration is exponential in general — this is the *candidate*
    pool the exhaustive baseline scores, not the oracle-guided path.
    ``limit`` truncates the pool after sorting by cost (cheapest first),
    matching how optimal-repair systems explore cheapest candidates.
    """
    edges = violation_hypergraph(violations)
    if not edges:
        return []
    repairs = [
        CandidateRepair.deletion(hitting)
        for hitting in all_minimal_hitting_sets(edges)
    ]
    repairs.sort(key=lambda r: (r.cost, repr(r.edits)))
    return repairs[:limit] if limit is not None else repairs


def update_candidates(violation: Violation) -> list[CandidateRepair]:
    """The value-update repairs of one FD violation (empty otherwise).

    A pair ``{a, b}`` disagreeing at ``rhs_position`` yields two
    candidates: ``a[rhs] := b[rhs]`` and ``b[rhs] := a[rhs]``.
    """
    if violation.rhs_position is None or len(violation.facts) != 2:
        return []
    a, b = sorted(violation.facts, key=repr)
    position = violation.rhs_position
    return [
        CandidateRepair.update(a, a.replace(position, b.values[position])),
        CandidateRepair.update(b, b.replace(position, a.values[position])),
    ]


def candidate_repairs(
    violations: Iterable[Violation],
    *,
    updates: bool = True,
    limit: Optional[int] = None,
) -> list[CandidateRepair]:
    """Deletion repairs plus (for FDs) per-violation value updates."""
    pool = list(violations)
    repairs = minimal_deletion_repairs(pool, limit=limit)
    if updates:
        for violation in pool:
            repairs.extend(update_candidates(violation))
    return repairs


def greedy_repair(violations: Iterable[Violation]) -> CandidateRepair:
    """The frequency-greedy deletion repair (no oracle, ln-n approximate).

    The best-effort fallback when the question budget runs out: hit the
    remaining hypergraph with :func:`greedy_hitting_set` and delete.
    Raises :class:`RepairError` on an empty violation list.
    """
    edges = violation_hypergraph(violations)
    if not edges:
        raise RepairError("nothing to repair")
    return CandidateRepair.deletion(greedy_hitting_set(edges))


def inferable_deletions(violations: Iterable[Violation]) -> Optional[set[Fact]]:
    """The Theorem 4.5 shortcut lifted to constraints.

    When the violation hypergraph has a *unique* minimal hitting set
    (its singleton edges already hit everything), that set is the only
    subset-minimal deletion repair — no oracle question can change the
    answer, so the repairer applies it for free.  Returns ``None`` when
    the minimal repair is not unique.  Foreign-key violations are left
    out: a dangling child may be true, its parent missing.
    """
    return unique_minimal_hitting_set(
        violation_hypergraph(v for v in violations if v.parent is None)
    )


__all__ = [
    "CandidateRepair",
    "RepairError",
    "candidate_repairs",
    "greedy_repair",
    "inferable_deletions",
    "minimal_deletion_repairs",
    "update_candidates",
    "violation_hypergraph",
]
