"""Violation detection: constraints run as boolean CQs on any backend.

A denial constraint *is* a boolean conjunctive query; an FD compiles to
one boolean CQ per right-hand-side attribute
(:func:`repro.constraints.ast.fd_violation_queries`) and a foreign key
to ``child(…), not parent(…)``.  The detector
runs those queries through the pluggable
:class:`~repro.query.backend.EvalBackend` interface and reads each
answer's *witnesses* — the grounded fact sets — as the violations.
Witnesses are frozensets, so the two symmetric bindings of an FD pair
collapse to one :class:`Violation` for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from ..db.database import Database
from ..db.tuples import Fact
from ..query.ast import Atom, Query
from ..query.backend import EvalBackend, resolve_backend
from ..telemetry import TELEMETRY as _TELEMETRY
from .ast import (
    FD,
    Constraint,
    DenialConstraint,
    ForeignKey,
    as_constraints,
    fd_violation_queries,
)


@dataclass(frozen=True)
class Violation:
    """One constraint violation: the minimal fact set exhibiting it.

    For an FD this is a pair of same-relation facts agreeing on the LHS
    and differing on one RHS attribute (``rhs_position`` names it, so
    the repair enumerator can propose value updates); for a denial
    constraint it is the grounded body; for a foreign key it is the
    dangling child alone.  Since the ground truth satisfies every
    constraint, an FD or denial violation has **at least one false
    fact** — a witness in the Section 4 sense, and the whole
    hitting-set treatment applies.  A foreign-key violation is
    different: the child may be true and the *parent* missing.
    """

    constraint_name: str
    facts: frozenset[Fact]
    #: RHS column of the violated FD (None for other constraints).
    rhs_position: Optional[int] = None
    #: The missing parent of a foreign-key violation, referenced columns
    #: bound and the rest variables (None for other constraints).
    parent: Optional[Atom] = None

    def __str__(self) -> str:
        body = ", ".join(sorted(str(f) for f in self.facts))
        return f"{self.constraint_name}{{{body}}}"


def violation_queries(
    constraint: Constraint, schema
) -> list[tuple[Query, Optional[int]]]:
    """The boolean CQs checking *constraint*, each with its RHS position."""
    if isinstance(constraint, FD):
        _, rhs_positions = constraint.positions(schema)
        queries = fd_violation_queries(constraint, schema)
        return list(zip(queries, rhs_positions))
    if isinstance(constraint, ForeignKey):
        return [(constraint.as_query(schema), None)]
    if isinstance(constraint, DenialConstraint):
        return [(constraint.as_query(), None)]
    raise TypeError(f"not a constraint: {constraint!r}")


def find_violations(
    database: Database,
    constraints: Union[Constraint, str, Iterable[Union[Constraint, str]]],
    *,
    backend: Union[str, EvalBackend, None] = None,
) -> list[Violation]:
    """Every violation of *constraints* in *database*, deterministic order.

    *backend* picks the evaluation substrate (``"naive"`` default,
    ``"columnar"``, ``"sql"``, or an instance); unsupported shapes fall
    back to the reference engine exactly as in query cleaning.
    """
    engine = resolve_backend(backend)
    found: list[Violation] = []
    # keyed per RHS attribute: a pair disagreeing on two RHS columns is
    # two violations (each needs its own value-update candidate); the
    # repair hypergraph dedupes the shared edge downstream
    seen: set[tuple[str, Optional[int], frozenset[Fact]]] = set()
    with _TELEMETRY.span("constraints.detect", backend=engine.name):
        for constraint in as_constraints(constraints):
            for query, rhs_position in violation_queries(constraint, database.schema):
                result = engine.run(query, database)
                for answer in result.answers:
                    for witness in result.witnesses(answer):
                        key = (constraint.name, rhs_position, witness)
                        if key in seen:
                            continue
                        seen.add(key)
                        parent = None
                        if isinstance(constraint, ForeignKey):
                            (child,) = witness
                            parent = constraint.parent_atom(database.schema, child.values)
                        found.append(
                            Violation(constraint.name, witness, rhs_position, parent)
                        )
    found.sort(
        key=lambda v: (
            v.constraint_name,
            -1 if v.rhs_position is None else v.rhs_position,
            sorted(map(repr, v.facts)),
        )
    )
    if _TELEMETRY.enabled:
        _TELEMETRY.count("constraints.checks")
        _TELEMETRY.count("constraints.violations_found", len(found))
    return found


def satisfies(
    database: Database,
    constraints: Union[Constraint, str, Iterable[Union[Constraint, str]]],
    *,
    backend: Union[str, EvalBackend, None] = None,
) -> bool:
    """Whether *database* satisfies every constraint (no violations)."""
    engine = resolve_backend(backend)
    for constraint in as_constraints(constraints):
        for query, _ in violation_queries(constraint, database.schema):
            if engine.evaluate(query, database):
                return False
    return True


__all__ = ["Violation", "find_violations", "satisfies", "violation_queries"]
