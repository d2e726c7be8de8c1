"""Query evaluation: assignments, answers, witnesses (Section 2).

The evaluator enumerates *valid assignments* — total mappings from
``Var(Q)`` to constants such that every relational atom maps to a fact of
the database and every inequality holds — by index-backed backtracking
join.  At every step it binds the atom with the most bound positions
(and, among those, the smallest relation), which keeps the search cheap
on the paper's laptop-scale databases.

Each query is compiled once into a :class:`QueryPlan` (body variables,
per-atom position kinds, inequalities by variable, negated atoms with
their shared variables, the head template), so neither the search nor
head and witness construction re-derives the query's structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from ..db.database import Database
from ..db.tuples import Constant, Fact
from ..telemetry import TELEMETRY as _TELEMETRY
from .ast import Atom, Inequality, Query, QueryError, Var

#: A (partial) assignment maps variables to constants.
Assignment = dict[Var, Constant]

#: An answer is the head instantiated by an assignment.
Answer = tuple[Constant, ...]

#: A witness is the set of facts in ``α(body(Q))`` (Section 2).
Witness = frozenset[Fact]


def atom_pattern(atom: Atom, assignment: Mapping[Var, Constant]) -> list[Optional[Constant]]:
    """The match pattern for *atom* under *assignment* (``None`` = unbound)."""
    return AtomPlan.of(atom).pattern(assignment)


def _bind_atom(
    atom: Atom, fact: Fact, assignment: Assignment
) -> Optional[list[Var]]:
    """Extend *assignment* in place so that *atom* maps to *fact*.

    Returns the list of newly bound variables, or ``None`` (with no
    mutation left behind) if the fact conflicts with existing bindings or
    with a repeated variable inside the atom.
    """
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
    """Whether any database fact matches a negated atom under
    *assignment* (local wildcards match anything, but a wildcard
    repeated inside the atom must take one consistent value)."""
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


# ---------------------------------------------------------------------------
# the compiled plan
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AtomPlan:
    """A body atom split by position kind."""

    atom: Atom
    #: the match pattern with every variable position unbound
    template: tuple[Optional[Constant], ...]
    #: ``(position, variable)`` for every variable position
    var_positions: tuple[tuple[int, Var], ...]
    #: ``(position, variable)`` for the first occurrence of each variable
    variables: tuple[tuple[int, Var], ...]
    #: ``(position, earlier position)`` for every repeat of a variable
    repeats: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, atom: Atom) -> "AtomPlan":
        var_positions: list[tuple[int, Var]] = []
        variables: list[tuple[int, Var]] = []
        repeats: list[tuple[int, int]] = []
        first: dict[Var, int] = {}
        for position, term in enumerate(atom.terms):
            if not isinstance(term, Var):
                continue
            var_positions.append((position, term))
            if term in first:
                repeats.append((position, first[term]))
            else:
                first[term] = position
                variables.append((position, term))
        template = tuple(None if isinstance(t, Var) else t for t in atom.terms)
        return cls(atom, template, tuple(var_positions), tuple(variables), tuple(repeats))

    @property
    def relation(self) -> str:
        return self.atom.relation

    def bound_positions(self, assignment: Mapping[Var, Constant]) -> int:
        """Positions holding a constant or a variable bound in *assignment*."""
        return len(self.template) - sum(
            1 for _, var in self.var_positions if var not in assignment
        )

    def pattern(self, assignment: Mapping[Var, Constant]) -> list[Optional[Constant]]:
        """The match pattern under *assignment* (``None`` = unbound)."""
        pattern = list(self.template)
        for position, var in self.var_positions:
            pattern[position] = assignment.get(var)
        return pattern

    def ground(self, assignment: Mapping[Var, Constant]) -> Fact:
        """The fact this atom maps to under *assignment* (``KeyError``
        when a variable is unbound)."""
        values = list(self.template)
        for position, var in self.var_positions:
            values[position] = assignment[var]
        return Fact(self.atom.relation, tuple(values))

    def bind(self, fact: Fact) -> Optional[Assignment]:
        """The assignment mapping this atom onto *fact*, or ``None``."""
        values = fact.values
        if fact.relation != self.atom.relation or len(values) != len(self.template):
            return None
        for position, constant in enumerate(self.template):
            if constant is not None and values[position] != constant:
                return None
        for position, earlier in self.repeats:
            if values[position] != values[earlier]:
                return None
        return {var: values[position] for position, var in self.variables}


class QueryPlan:
    """Everything evaluation derives from a query's syntax, derived once.

    Obtain plans through :func:`query_plan`: one is built per
    :class:`~repro.query.ast.Query` object, on first use, and lives as
    long as the query does.
    """

    def __init__(self, query: Query) -> None:
        self.body_variables: frozenset[Var] = frozenset(query.body_variables())
        self.atoms = tuple(AtomPlan.of(atom) for atom in query.atoms)
        # keyed by identity: the search hands around the query's own atoms
        self._atom_plans = {id(p.atom): p for p in self.atoms}
        #: ``(negated atom, its variables shared with the positive body)``
        self.negated = tuple(
            (atom, frozenset(atom.variables() & self.body_variables))
            for atom in query.negated_atoms
        )
        by_var: dict[Var, list[Inequality]] = {}
        for inequality in query.inequalities:
            for var in inequality.variables():
                by_var.setdefault(var, []).append(inequality)
        #: the inequalities mentioning each variable, in query order
        self.inequalities_by_var = {v: tuple(es) for v, es in by_var.items()}
        #: ``(is variable, term)`` per head position
        self.head = tuple((isinstance(t, Var), t) for t in query.head)

    def atom_plan(self, atom: Atom) -> AtomPlan:
        return self._atom_plans[id(atom)]

    def inequalities_touching(self, variables: Iterable[Var]) -> list[Inequality]:
        """The inequalities mentioning any of *variables* (one touching
        several of them is listed, and later checked, once per variable)."""
        by_var = self.inequalities_by_var
        return [e for var in variables for e in by_var.get(var, ())]

    def answer(self, assignment: Mapping[Var, Constant]) -> Answer:
        """``α(head(Q))``."""
        try:
            return tuple([assignment[t] if is_var else t for is_var, t in self.head])
        except KeyError as missing:
            raise QueryError(
                f"assignment does not bind head variable {missing.args[0]}"
            ) from None

    def witness(self, assignment: Mapping[Var, Constant]) -> Witness:
        """The facts of ``α(body(Q))`` for a total assignment α."""
        try:
            return frozenset([atom.ground(assignment) for atom in self.atoms])
        except KeyError:
            for atom in self.atoms:
                ground = atom.atom.substitute(assignment)
                if not ground.is_ground():
                    raise QueryError(f"assignment leaves atom {ground} non-ground") from None
            raise


def query_plan(query: Query) -> QueryPlan:
    """The compiled plan of *query*.

    Built on first use and kept on the query object itself, not in a
    global cache, so a long-running process does not grow with the
    queries it has seen.
    """
    plan = vars(query).get("_plan")
    if plan is None:
        plan = QueryPlan(query)
        object.__setattr__(query, "_plan", plan)
    return plan


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------
class Evaluator:
    """Evaluates one query against one database.

    Construction validates the query against the schema and fetches its
    :class:`QueryPlan`, compiled once per query object and shared by
    every evaluator of it.

    The enumeration order is a contract (``docs/evaluator.md``): each
    search node binds the atom :meth:`_pick_atom` chooses and walks
    ``database.match`` in the database's own order.
    """

    def __init__(self, query: Query, database: Database) -> None:
        query.validate(database.schema)
        self.query = query
        self.database = database
        self._plan = query_plan(query)

    # ------------------------------------------------------------------
    # assignment enumeration
    # ------------------------------------------------------------------
    def assignments(
        self, partial: Optional[Mapping[Var, Constant]] = None
    ) -> Iterator[Assignment]:
        """All valid (total) assignments extending *partial*.

        Yields fresh dict copies, so callers may retain them.
        """
        assignment: Assignment = dict(partial or {})
        for inequality in self.query.inequalities:
            if inequality.holds(assignment) is False:
                return
        if not self._negations_ok(assignment):
            return
        yield from self._search(assignment, list(self.query.atoms))

    def _search(self, assignment: Assignment, remaining: list[Atom]) -> Iterator[Assignment]:
        tel = _TELEMETRY
        if not remaining:
            if tel.enabled:
                tel.count("evaluator.assignments")
            yield dict(assignment)
            return
        index = self._pick_atom(assignment, remaining)
        atom = self._plan.atom_plan(remaining[index])
        rest = remaining[:index] + remaining[index + 1 :]
        pattern = atom.pattern(assignment)
        # Which variables a matching fact binds is the same for every
        # fact at this node; so are the checks they make decidable.
        fresh = [(p, var) for p, var in atom.variables if assignment.get(var) is None]
        new_vars = [var for _, var in fresh]
        inequalities = self._plan.inequalities_touching(new_vars)
        repeats = atom.repeats
        if tel.enabled:
            tel.count("evaluator.index_probes")
        for fact in self.database.match(atom.relation, pattern):
            if tel.enabled:
                tel.count("evaluator.backtrack_steps")
            # match() verified the constant and bound positions
            row = fact.values
            if repeats and any(row[p] != row[q] for p, q in repeats):
                continue
            for position, var in fresh:
                assignment[var] = row[position]
            if self._inequalities_ok(assignment, inequalities) and self._negations_ok(
                assignment, new_vars
            ):
                yield from self._search(assignment, rest)
            for var in new_vars:
                del assignment[var]

    def _pick_atom(self, assignment: Assignment, remaining: list[Atom]) -> int:
        """Greedy join order: most bound positions, then smallest
        relation, then first in body order.  The seam subclasses
        (:class:`~repro.query.planner.PlannedEvaluator`) override."""
        atom_plan = self._plan.atom_plan
        best_index = 0
        best_key: Optional[tuple[int, int]] = None
        for i, atom in enumerate(remaining):
            key = (-atom_plan(atom).bound_positions(assignment), self.database.size(atom.relation))
            if best_key is None or key < best_key:
                best_key = key
                best_index = i
        return best_index

    @staticmethod
    def _inequalities_ok(assignment: Assignment, inequalities: list[Inequality]) -> bool:
        """Check the inequalities the newly bound variables touch."""
        for inequality in inequalities:
            if inequality.holds(assignment) is False:
                return False
        return True

    def _negations_ok(
        self, assignment: Assignment, fresh: Optional[Iterable[Var]] = None
    ) -> bool:
        """Check negated atoms whose shared variables are bound (§9).

        A negated atom fails the assignment when *some* database fact
        matches it — variables local to the negated atom act as
        existential wildcards (``NOT EXISTS``).  With *fresh* given,
        only atoms touched by the newly bound variables are re-checked;
        with ``None`` every currently-checkable atom is (the initial
        sweep, covering constant-only atoms).
        """
        negated = self._plan.negated
        if not negated:
            return True
        touched = None if fresh is None else set(fresh)
        for atom, shared in negated:
            if touched is not None and shared and not (shared & touched):
                continue
            if not all(var in assignment for var in shared):
                continue  # shared vars not bound yet; checked later
            if negated_match_exists(atom, assignment, self.database, shared):
                return False
        return True

    # ------------------------------------------------------------------
    # derived notions
    # ------------------------------------------------------------------
    def answers(self) -> set[Answer]:
        """``Q(D)``: the set of head instantiations over valid assignments."""
        tel = _TELEMETRY
        if tel.enabled:
            tel.count("evaluator.evaluations")
        answer = self._plan.answer
        return {answer(assignment) for assignment in self.assignments()}

    def is_satisfiable(self, partial: Mapping[Var, Constant]) -> bool:
        """Whether *partial* extends to a valid assignment w.r.t. D."""
        return next(self.assignments(partial), None) is not None

    def witnesses(self, answer: Answer) -> list[Witness]:
        """All distinct witnesses for *answer* (deduplicated fact sets).

        Distinct assignments that ground the body to the same fact set
        (e.g. symmetric role swaps) yield a single witness, matching the
        paper's Example 4.6.
        """
        tel = _TELEMETRY
        if tel.enabled:
            tel.count("evaluator.witness_enumerations")
        partial = answer_to_partial(self.query, answer)
        if partial is None:
            return []
        to_witness = self._plan.witness
        seen: set[Witness] = set()
        ordered: list[Witness] = []
        for assignment in self.assignments(partial):
            witness = to_witness(assignment)
            if witness not in seen:
                seen.add(witness)
                ordered.append(witness)
        if tel.enabled:
            tel.observe("evaluator.witnesses_per_answer", len(ordered))
        return ordered


def instantiate_head(query: Query, assignment: Mapping[Var, Constant]) -> Answer:
    """``α(head(Q))``."""
    return query_plan(query).answer(assignment)


def witness_of(query: Query, assignment: Mapping[Var, Constant]) -> Witness:
    """The facts of ``α(body(Q))`` for a total assignment α."""
    return query_plan(query).witness(assignment)


def answer_to_partial(query: Query, answer: Answer) -> Optional[Assignment]:
    """The partial assignment induced by an answer tuple (Section 2).

    Maps head variables to the answer's constants.  Returns ``None`` when
    the answer cannot match the head (wrong length, conflicting constant,
    or inconsistent repeat of a head variable).
    """
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


def evaluate(query: Query, database: Database) -> set[Answer]:
    """``Q(D)`` — convenience wrapper over :class:`Evaluator`."""
    return Evaluator(query, database).answers()


def valid_assignments(
    query: Query,
    database: Database,
    partial: Optional[Mapping[Var, Constant]] = None,
) -> Iterator[Assignment]:
    """``A(Q, D)`` restricted to extensions of *partial* (if given)."""
    return Evaluator(query, database).assignments(partial)


def witnesses_for(query: Query, database: Database, answer: Answer) -> list[Witness]:
    """``wit(A(t, Q, D))``: all witnesses for *answer*."""
    return Evaluator(query, database).witnesses(answer)


def is_satisfiable(
    query: Query, database: Database, partial: Mapping[Var, Constant]
) -> bool:
    """Whether a partial assignment is satisfiable w.r.t. *database*."""
    return Evaluator(query, database).is_satisfiable(partial)


def naive_evaluate(query: Query, database: Database) -> set[Answer]:
    """Reference semantics: enumerate the full cross product.

    Exponentially slower than :func:`evaluate`; exists as an oracle for
    property-based tests on small instances.
    """
    results: set[Answer] = set()
    atoms = list(query.atoms)
    # One snapshot per *distinct* relation up front; ``Database.facts``
    # allocates a fresh frozenset per call, which the innermost recursion
    # would otherwise pay at every node of the cross-product tree — and a
    # self-join must not pay it once per atom occurrence either.
    snapshots: dict[str, tuple[Fact, ...]] = {}
    for atom in atoms:
        if atom.relation not in snapshots:
            snapshots[atom.relation] = tuple(database.facts(atom.relation))

    def recurse(index: int, assignment: Assignment) -> None:
        if index == len(atoms):
            if not all(e.holds(assignment) for e in query.inequalities):
                return
            for negated in query.negated_atoms:
                if negated_match_exists(negated, assignment, database):
                    return
            results.add(instantiate_head(query, assignment))
            return
        atom = atoms[index]
        for fact in snapshots[atom.relation]:
            new_vars = _bind_atom(atom, fact, assignment)
            if new_vars is None:
                continue
            recurse(index + 1, assignment)
            for var in new_vars:
                del assignment[var]

    recurse(0, {})
    return results
