"""A frozen copy of the recounting constraint repairer (test-only).

This is :class:`~repro.constraints.repairer.OracleRepairer`'s round
resolution and :func:`~repro.hitting.hitting_set.greedy_hitting_set` as
they stood before both picked through
:class:`~repro.hitting.hitting_set.DegreeQueue`: every question
recounts every live edge and takes ``repr`` of every candidate, the
hypergraph is a list rebuilt after each decision, and an update repair
scans every FD pair per deleted fact.  It is kept verbatim as the
*decision-order* reference for ``tests/test_repairer_differential.py``
— the queue-driven code must make the same edits, ask the same
questions in the same order and infer the same facts.  Nothing under
``src/`` may import it.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Iterable

from repro.constraints.repair import CandidateRepair, violation_hypergraph
from repro.constraints.repairer import OracleRepairer, RepairReport
from repro.constraints.violations import Violation
from repro.db.edits import insert as insert_edit
from repro.db.tuples import Fact
from repro.hitting.hitting_set import normalize
from repro.telemetry import TELEMETRY as _TELEMETRY


def reference_most_frequent_element(sets: Iterable[Iterable]):
    counts: Counter = Counter()
    for s in sets:
        counts.update(set(s))
    if not counts:
        return None
    return max(counts, key=lambda e: (counts[e], repr(e)))


def reference_greedy_hitting_set(sets: Iterable[Iterable]) -> set:
    remaining = normalize(sets)
    if any(not s for s in remaining):
        raise ValueError("system with an empty set has no hitting set")
    chosen: set = set()
    while remaining:
        element = reference_most_frequent_element(remaining)
        chosen.add(element)
        remaining = [s for s in remaining if element not in s]
    return chosen


class ReferenceRepairer(OracleRepairer):
    """:class:`OracleRepairer` with the recounting round resolution."""

    def _resolve(
        self,
        violations: list[Violation],
        report: RepairReport,
        cost_before: int,
        start: float,
    ) -> None:
        dangling = [v for v in violations if v.parent is not None]
        edges = violation_hypergraph(v for v in violations if v.parent is None)
        pair_context: dict[frozenset[Fact], Violation] = {}
        for violation in violations:
            if violation.rhs_position is not None and len(violation.facts) == 2:
                pair_context.setdefault(violation.facts, violation)
        certified: set[Fact] = set()
        while edges:
            singleton = next((e for e in edges if len(e) == 1), None)
            if singleton is not None:
                (fact,) = singleton
                self._delete(fact, report)
                if self.updates:
                    self._try_update(fact, pair_context, certified, report)
                report.free_deletions += 1
                if _TELEMETRY.enabled:
                    _TELEMETRY.count("constraints.free_deletions")
                edges = [e for e in edges if fact not in e]
                continue
            if self._exhausted(cost_before, start):
                self._degrade(edges + [v.facts for v in dangling if self._dangles(v)], report)
                return
            fact = self._most_frequent(edges)
            if self.oracle.verify_fact(fact):
                certified.add(fact)
                shrunk = []
                for edge in edges:
                    if fact in edge:
                        rest = frozenset(edge - {fact})
                        if len(rest) == 1 and _TELEMETRY.enabled:
                            _TELEMETRY.count("constraints.inferred")
                        if len(rest) == 1:
                            report.inferred += 1
                            (partner,) = rest
                            self.oracle.remember_fact(partner, False)
                        shrunk.append(rest)
                    else:
                        shrunk.append(edge)
                edges = shrunk
            else:
                self._delete(fact, report)
                if self.updates:
                    self._try_update(fact, pair_context, certified, report)
                edges = [e for e in edges if fact not in e]
        for index, violation in enumerate(dangling):
            if not self._dangles(violation):
                continue
            if self._exhausted(cost_before, start):
                rest = [v.facts for v in dangling[index:] if self._dangles(v)]
                self._degrade(rest, report)
                return
            (child,) = violation.facts
            if self.oracle.verify_fact(child):
                self._insert_parent(violation.parent, report)
            else:
                self._delete(child, report)

    def _exhausted(self, cost_before: int, start: float) -> bool:
        spent = self.oracle.log.total_cost - cost_before
        elapsed = time.perf_counter() - start
        return self.budget is not None and self.budget.exhausted(spent, elapsed)

    def _most_frequent(self, edges: list[frozenset[Fact]]) -> Fact:
        counts: dict[Fact, int] = {}
        for edge in edges:
            for fact in edge:
                counts[fact] = counts.get(fact, 0) + 1
        return max(
            counts,
            key=lambda f: (counts[f], self.oracle.knows_fact(f), repr(f)),
        )

    def _try_update(
        self,
        false_fact: Fact,
        pair_context: dict[frozenset[Fact], Violation],
        certified: set[Fact],
        report: RepairReport,
    ) -> None:
        for facts, violation in pair_context.items():
            if false_fact not in facts:
                continue
            (partner,) = facts - {false_fact}
            if partner not in certified:
                continue
            position = violation.rhs_position
            corrected = false_fact.replace(position, partner.values[position])
            if corrected in self.database:
                continue
            if self.oracle.verify_fact(corrected):
                if self.database.insert(corrected):
                    report.edits.append(insert_edit(corrected))
                    report.updates_applied += 1
                    if _TELEMETRY.enabled:
                        _TELEMETRY.count("constraints.updates_applied")
            return

    def _degrade(self, edges: list[frozenset[Fact]], report: RepairReport) -> None:
        report.converged = False
        fake = [Violation("budget", e) for e in edges]
        repair = CandidateRepair.deletion(reference_greedy_hitting_set(violation_hypergraph(fake)))
        for edit in repair.edits:
            if edit.apply(self.database):
                report.edits.append(edit)
