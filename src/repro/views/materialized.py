"""Materialized views with incremental maintenance.

The paper deploys QOCO as a monitor: "QOCO can be activated to monitor
the views that are served to users/applications.  Whenever an error is
reported in a view, QOCO can take over..."  Serving views means keeping
them materialized, and cleaning means editing base tables — so the views
must track edits without full recomputation.

:class:`MaterializedView` keeps its answers with
:class:`~repro.query.incremental.IncrementalAnswers`, the delta rules the
cleaners use: subscribed to the database's edit hook, it stays exact
under every mutation path, negated atoms included.  ``on_insert`` /
``on_delete`` report the answers an edit makes appear / disappear,
computed from the changed fact alone: the answers of the valid
assignments whose witness uses the fact (enumerated after an insert
lands, before a delete leaves) that have no other assignment.

``incremental == recompute`` is property-tested over random edit
sequences, and a benchmark shows the speedup on the 5k-tuple database.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from ..db.database import Database
from ..db.edits import Edit, EditKind
from ..db.tuples import Fact
from ..query.ast import Query
from ..query.evaluator import Answer, query_plan
from ..query.incremental import IncrementalAnswers
from ..telemetry import TELEMETRY as _TELEMETRY


class MaterializedView:
    """One query kept materialized over a database.

    The view keeps a shadow set of the facts it has accounted for (only
    for relations the query reads, negated atoms included), which makes
    the delta reports robust against *no-op edits*: ``on_insert`` of a
    fact that is already accounted, or ``on_delete`` of a fact never
    seen, returns an empty delta.

    The reports are exact unless the changed relation is read both
    positively and under negation (an edit can then add and remove
    assignments of one answer at once); :meth:`answers` is exact always.
    """

    def __init__(self, query: Query, database: Database) -> None:
        self.query = query
        self.database = database
        self._relations = {atom.relation for atom in query.atoms} | {
            atom.relation for atom in query.negated_atoms
        }
        self._engine = IncrementalAnswers(query, database)
        self._accounted = self._facts_read()
        _TELEMETRY.count("view.refreshes")

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def answers(self) -> set[Answer]:
        return self._engine.answers()

    def support(self, answer: Answer) -> int:
        """Number of valid assignments currently producing *answer*."""
        return self._engine.support(answer)

    def __contains__(self, answer: object) -> bool:
        return answer in self._engine

    def __len__(self) -> int:
        return len(self._engine)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Full recomputation (a manual resync)."""
        _TELEMETRY.count("view.refreshes")
        self._engine.refresh()
        self._accounted = self._facts_read()

    def close(self) -> None:
        """Detach from the database's edit hook (idempotent)."""
        self._engine.close()

    def on_insert(self, fact: Fact) -> set[Answer]:
        """Report the answers that *fact*, just inserted, made appear.

        A no-op edit — a fact this view already accounted for (e.g.
        re-inserting an existing fact), a fact of a relation the query
        never reads, or a fact that is not actually in the database (the
        insert never landed) — returns an empty delta.
        """
        if (
            fact.relation not in self._relations
            or fact in self._accounted
            or fact not in self.database
        ):
            _TELEMETRY.count("view.noop_edits")
            return set()
        self._accounted.add(fact)
        return self._sole_answers(fact)

    def on_delete(self, fact: Fact) -> set[Answer]:
        """Report the answers that deleting *fact* makes disappear.
        **Call before removing it** from the database (the lost
        assignments must still be enumerable).

        Deleting a fact this view never accounted for (absent fact,
        untracked relation, repeated delete) is a no-op: empty delta.
        """
        if fact.relation not in self._relations or fact not in self._accounted:
            _TELEMETRY.count("view.noop_edits")
            return set()
        self._accounted.discard(fact)
        return self._sole_answers(fact)

    # ------------------------------------------------------------------
    # deltas
    # ------------------------------------------------------------------
    def _facts_read(self) -> set[Fact]:
        facts: set[Fact] = set()
        for relation in self._relations:
            facts.update(self.database.facts(relation))
        return facts

    def _sole_answers(self, fact: Fact) -> set[Answer]:
        """Answers all of whose valid assignments use *fact*."""
        assignments = self._engine.assignments_using(fact)
        if _TELEMETRY.enabled:
            _TELEMETRY.observe("view.delta_size", len(assignments))
        plan = query_plan(self.query)
        uses = Counter(plan.answer(assignment) for assignment in assignments)
        return {
            answer
            for answer, count in uses.items()
            if count == self._engine.support(answer)
        }


class ViewManager:
    """A set of materialized views kept consistent under edits.

    Route all database mutation through :meth:`apply` (or the
    insert/delete helpers); the views stay exact.
    """

    def __init__(self, database: Database) -> None:
        self.database = database
        self._views: dict[str, MaterializedView] = {}

    def register(self, query: Query, name: Optional[str] = None) -> MaterializedView:
        label = name if name is not None else query.name
        if label in self._views:
            raise ValueError(f"a view named {label!r} is already registered")
        view = MaterializedView(query, self.database)
        self._views[label] = view
        return view

    def view(self, name: str) -> MaterializedView:
        return self._views[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._views)

    # -- mutation ------------------------------------------------------
    def insert(self, fact: Fact) -> dict[str, set[Answer]]:
        """Insert a fact; return per-view newly appeared answers.

        A no-op edit (the fact already present) emits the same shape as
        a real one — every registered view mapped to an empty delta — so
        callers folding deltas never special-case the empty dict.
        """
        if not self.database.insert(fact):
            _TELEMETRY.count("view.noop_edits")
            return {name: set() for name in self._views}
        return {
            name: view.on_insert(fact) for name, view in self._views.items()
        }

    def delete(self, fact: Fact) -> dict[str, set[Answer]]:
        """Delete a fact; return per-view answers that disappeared.

        Deleting an absent fact is a consistent no-op (see :meth:`insert`).
        """
        if fact not in self.database:
            _TELEMETRY.count("view.noop_edits")
            return {name: set() for name in self._views}
        changes = {
            name: view.on_delete(fact) for name, view in self._views.items()
        }
        self.database.delete(fact)
        return changes

    def apply(self, edits: Iterable[Edit]) -> dict[str, set[Answer]]:
        """Apply a sequence of edits; merge per-view changed answers."""
        changed: dict[str, set[Answer]] = {name: set() for name in self._views}
        for edit in edits:
            if edit.kind is EditKind.INSERT:
                delta = self.insert(edit.fact)
            else:
                delta = self.delete(edit.fact)
            for name, answers in delta.items():
                changed[name] |= answers
        return changed
