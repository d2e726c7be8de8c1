"""A frozen copy of the interpreted backtracking evaluator (test-only).

This is the evaluator as it stood before queries were compiled into
plans: every search node re-derives atom patterns, bound positions,
inequality variables and the body's variable set from the AST.  It is
kept verbatim as the *enumeration-order* reference for
``tests/test_evaluator_order.py`` — the compiled evaluator must yield
the same assignments in the same order, the same witness lists and the
same ``evaluator.*`` telemetry counts.  Nothing under ``src/`` may
import it.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from repro.db.database import Database
from repro.db.tuples import Constant, Fact
from repro.query.ast import Atom, Query, QueryError, Var
from repro.telemetry import TELEMETRY as _TELEMETRY

Assignment = dict[Var, Constant]
Answer = tuple[Constant, ...]
Witness = frozenset[Fact]


def atom_pattern(atom: Atom, assignment: Mapping[Var, Constant]) -> list[Optional[Constant]]:
    pattern: list[Optional[Constant]] = []
    for term in atom.terms:
        if isinstance(term, Var):
            pattern.append(assignment.get(term))
        else:
            pattern.append(term)
    return pattern


def _bind_atom(atom: Atom, fact: Fact, assignment: Assignment) -> Optional[list[Var]]:
    new_vars: list[Var] = []
    for term, value in zip(atom.terms, fact.values):
        if isinstance(term, Var):
            bound = assignment.get(term)
            if bound is None:
                assignment[term] = value
                new_vars.append(term)
            elif bound != value:
                for var in new_vars:
                    del assignment[var]
                return None
        elif term != value:
            for var in new_vars:
                del assignment[var]
            return None
    return new_vars


def negated_match_exists(
    atom: Atom,
    assignment: Mapping[Var, Constant],
    database: Database,
    shared: Optional[set[Var]] = None,
) -> bool:
    pattern: list[Optional[Constant]] = []
    local_positions: dict[Var, list[int]] = {}
    for position, term in enumerate(atom.terms):
        if isinstance(term, Var):
            value = assignment.get(term)
            if value is not None:
                pattern.append(value)
            else:
                pattern.append(None)
                local_positions.setdefault(term, []).append(position)
        else:
            pattern.append(term)
    for fact in database.match(atom.relation, pattern):
        consistent = all(
            len({fact.values[i] for i in positions}) == 1
            for positions in local_positions.values()
        )
        if consistent:
            return True
    return False


class ReferenceEvaluator:
    """The pre-compilation ``Evaluator``: same greedy pick, same
    ``database.match`` order, same telemetry counts."""

    def __init__(self, query: Query, database: Database) -> None:
        query.validate(database.schema)
        self.query = query
        self.database = database

    def assignments(
        self, partial: Optional[Mapping[Var, Constant]] = None
    ) -> Iterator[Assignment]:
        assignment: Assignment = dict(partial or {})
        for inequality in self.query.inequalities:
            if inequality.holds(assignment) is False:
                return
        if not self._negations_ok(assignment):
            return
        remaining = list(self.query.atoms)
        yield from self._search(assignment, remaining)

    def _search(self, assignment: Assignment, remaining: list[Atom]) -> Iterator[Assignment]:
        tel = _TELEMETRY
        if not remaining:
            if tel.enabled:
                tel.count("evaluator.assignments")
            yield dict(assignment)
            return
        index = self._pick_atom(assignment, remaining)
        atom = remaining[index]
        rest = remaining[:index] + remaining[index + 1 :]
        pattern = atom_pattern(atom, assignment)
        if tel.enabled:
            tel.count("evaluator.index_probes")
        for fact in self.database.match(atom.relation, pattern):
            if tel.enabled:
                tel.count("evaluator.backtrack_steps")
            new_vars = _bind_atom(atom, fact, assignment)
            if new_vars is None:
                continue
            if self._inequalities_ok(assignment, new_vars) and self._negations_ok(
                assignment, set(new_vars)
            ):
                yield from self._search(assignment, rest)
            for var in new_vars:
                del assignment[var]

    def _pick_atom(self, assignment: Assignment, remaining: list[Atom]) -> int:
        best_index = 0
        best_key: Optional[tuple[int, int]] = None
        for i, atom in enumerate(remaining):
            bound = sum(
                1
                for term in atom.terms
                if not isinstance(term, Var) or term in assignment
            )
            key = (-bound, self.database.size(atom.relation))
            if best_key is None or key < best_key:
                best_key = key
                best_index = i
        return best_index

    def _inequalities_ok(self, assignment: Assignment, new_vars: list[Var]) -> bool:
        fresh = set(new_vars)
        for inequality in self.query.inequalities:
            if fresh & inequality.variables():
                if inequality.holds(assignment) is False:
                    return False
        return True

    def _negations_ok(
        self, assignment: Assignment, fresh: Optional[set[Var]] = None
    ) -> bool:
        body_vars = self.query.body_variables()
        for atom in self.query.negated_atoms:
            shared = atom.variables() & body_vars
            if fresh is not None and shared and not (shared & fresh):
                continue
            if not shared <= set(assignment):
                continue
            if negated_match_exists(atom, assignment, self.database, shared):
                return False
        return True

    def answers(self) -> set[Answer]:
        tel = _TELEMETRY
        if tel.enabled:
            tel.count("evaluator.evaluations")
        return {instantiate_head(self.query, a) for a in self.assignments()}

    def witnesses(self, answer: Answer) -> list[Witness]:
        tel = _TELEMETRY
        if tel.enabled:
            tel.count("evaluator.witness_enumerations")
        partial = answer_to_partial(self.query, answer)
        if partial is None:
            return []
        seen: set[Witness] = set()
        ordered: list[Witness] = []
        for assignment in self.assignments(partial):
            witness = witness_of(self.query, assignment)
            if witness not in seen:
                seen.add(witness)
                ordered.append(witness)
        if tel.enabled:
            tel.observe("evaluator.witnesses_per_answer", len(ordered))
        return ordered


def instantiate_head(query: Query, assignment: Mapping[Var, Constant]) -> Answer:
    values: list[Constant] = []
    for term in query.head:
        if isinstance(term, Var):
            try:
                values.append(assignment[term])
            except KeyError:
                raise QueryError(f"assignment does not bind head variable {term}") from None
        else:
            values.append(term)
    return tuple(values)


def witness_of(query: Query, assignment: Mapping[Var, Constant]) -> Witness:
    facts = []
    for atom in query.atoms:
        ground = atom.substitute(assignment)
        if not ground.is_ground():
            raise QueryError(f"assignment leaves atom {ground} non-ground")
        facts.append(Fact(ground.relation, tuple(ground.terms)))  # type: ignore[arg-type]
    return frozenset(facts)


def answer_to_partial(query: Query, answer: Answer) -> Optional[Assignment]:
    if len(answer) != len(query.head):
        return None
    partial: Assignment = {}
    for term, value in zip(query.head, answer):
        if isinstance(term, Var):
            bound = partial.get(term)
            if bound is None:
                partial[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return partial
