"""Abstract syntax for conjunctive queries with inequalities (Section 2).

A query has the form::

    Ans(u0) :- R1(u1), ..., Rn(un), E1, ..., Em

where each ``u_i`` is a vector of variables and constants, and each ``E_j``
is an inequality ``l != r`` between a variable and a variable-or-constant.
Every head term must occur in some body atom (safety).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from ..db.schema import Schema, SchemaError
from ..db.tuples import Constant


@dataclass(frozen=True, order=True)
class Var:
    """A query variable (compared by name)."""

    name: str

    def __str__(self) -> str:
        return self.name


#: A term is a variable or a constant.
Term = Var | Constant


def is_var(term: Term) -> bool:
    return isinstance(term, Var)


def term_str(term: Term) -> str:
    """Render a term: variables bare, string constants quoted."""
    if isinstance(term, Var):
        return term.name
    if isinstance(term, str):
        return f'"{term}"'
    return str(term)


class QueryError(ValueError):
    """Raised for malformed queries (unsafe head, bad arity, ...)."""


@dataclass(frozen=True)
class Atom:
    """A relational atom ``R(l1, ..., lk)``."""

    relation: str
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.terms, tuple):
            object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> set[Var]:
        return {t for t in self.terms if isinstance(t, Var)}

    def constants(self) -> set[Constant]:
        return {t for t in self.terms if not isinstance(t, Var)}

    def is_ground(self) -> bool:
        return not any(isinstance(t, Var) for t in self.terms)

    def substitute(self, assignment: Mapping[Var, Constant]) -> "Atom":
        """Replace every assigned variable with its constant."""
        terms = tuple(
            assignment.get(t, t) if isinstance(t, Var) else t for t in self.terms
        )
        return Atom(self.relation, terms)

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(term_str(t) for t in self.terms)})"


@dataclass(frozen=True)
class Inequality:
    """An inequality ``left != right``.

    The paper requires ``left`` to be a variable; after embedding an answer
    into the query (``Q|t``, Section 5) either side may become a constant,
    so we allow arbitrary terms and evaluate once both are ground.
    """

    left: Term
    right: Term

    def variables(self) -> set[Var]:
        return {t for t in (self.left, self.right) if isinstance(t, Var)}

    def is_ground(self) -> bool:
        return not self.variables()

    def holds(self, assignment: Mapping[Var, Constant]) -> Optional[bool]:
        """Truth value under *assignment*, or ``None`` if not yet decided."""
        left = assignment.get(self.left, self.left) if isinstance(self.left, Var) else self.left
        right = (
            assignment.get(self.right, self.right)
            if isinstance(self.right, Var)
            else self.right
        )
        if isinstance(left, Var) or isinstance(right, Var):
            return None
        return left != right

    def substitute(self, assignment: Mapping[Var, Constant]) -> "Inequality":
        left = assignment.get(self.left, self.left) if isinstance(self.left, Var) else self.left
        right = (
            assignment.get(self.right, self.right)
            if isinstance(self.right, Var)
            else self.right
        )
        return Inequality(left, right)

    def __str__(self) -> str:
        return f"{term_str(self.left)} != {term_str(self.right)}"


@dataclass(frozen=True)
class Query:
    """A conjunctive query with inequalities.

    Attributes
    ----------
    head:
        The terms of ``head(Q)`` — the answer template.
    atoms:
        The relational atoms of ``body(Q)``.
    inequalities:
        The inequality atoms of ``body(Q)``.
    name:
        Optional label used in printing and experiment reports.
    negated_atoms:
        Safely negated atoms (``not R(ū)``, §9 extension).  Variables
        shared with positive atoms are bound by them; variables local to
        a negated atom are existential wildcards under the negation
        (``NOT EXISTS`` semantics: no matching fact with *any* value).
        A local wildcard may not occur in any other negated atom.
    """

    head: tuple[Term, ...]
    atoms: tuple[Atom, ...]
    inequalities: tuple[Inequality, ...] = ()
    name: str = "ans"
    negated_atoms: tuple[Atom, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.head, tuple):
            object.__setattr__(self, "head", tuple(self.head))
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if not isinstance(self.inequalities, tuple):
            object.__setattr__(self, "inequalities", tuple(self.inequalities))
        if not isinstance(self.negated_atoms, tuple):
            object.__setattr__(self, "negated_atoms", tuple(self.negated_atoms))
        if not self.atoms:
            raise QueryError("query body must contain at least one relational atom")
        body_vars = self.body_variables()
        for term in self.head:
            if isinstance(term, Var) and term not in body_vars:
                raise QueryError(f"unsafe head variable {term}")
        for ineq in self.inequalities:
            for term in (ineq.left, ineq.right):
                if isinstance(term, Var) and term not in body_vars:
                    raise QueryError(f"inequality variable {term} not in any atom")
        seen_local: set[Var] = set()
        for atom in self.negated_atoms:
            local = atom.variables() - body_vars
            clash = local & seen_local
            if clash:
                raise QueryError(
                    f"negated atom {atom} reuses local wildcard(s) "
                    f"{sorted(map(str, clash))} from another negated atom"
                )
            seen_local |= local

    def __getstate__(self) -> dict:
        # The evaluator caches its compiled plan on the instance
        # (repro.query.evaluator.query_plan); it is not part of the value.
        state = dict(self.__dict__)
        state.pop("_plan", None)
        return state

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def head_variables(self) -> tuple[Var, ...]:
        return tuple(t for t in self.head if isinstance(t, Var))

    def body_variables(self) -> set[Var]:
        return set().union(*(a.variables() for a in self.atoms))

    def variables(self) -> set[Var]:
        """``Var(Q)``: all variables of the body (head vars are a subset)."""
        return self.body_variables()

    def constants(self) -> set[Constant]:
        """``Const(Q)``: constants of body atoms and inequalities."""
        consts: set[Constant] = set().union(*(a.constants() for a in self.atoms))
        for ineq in self.inequalities:
            for term in (ineq.left, ineq.right):
                if not isinstance(term, Var):
                    consts.add(term)
        return consts

    @property
    def body_size(self) -> int:
        return len(self.atoms)

    def validate(self, schema: Schema) -> None:
        """Check every atom against *schema* (relation exists, arity fits)."""
        for atom in self.atoms + self.negated_atoms:
            if atom.relation not in schema:
                raise SchemaError(f"query uses unknown relation {atom.relation!r}")
            expected = schema.arity(atom.relation)
            if atom.arity != expected:
                raise SchemaError(
                    f"atom {atom} has arity {atom.arity}, "
                    f"relation {atom.relation!r} expects {expected}"
                )

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def substitute(self, assignment: Mapping[Var, Constant]) -> "Query":
        """Apply *assignment* to head and body (used to build ``Q|t``)."""
        return Query(
            head=tuple(
                assignment.get(t, t) if isinstance(t, Var) else t for t in self.head
            ),
            atoms=tuple(a.substitute(assignment) for a in self.atoms),
            inequalities=tuple(e.substitute(assignment) for e in self.inequalities),
            name=self.name,
            negated_atoms=tuple(a.substitute(assignment) for a in self.negated_atoms),
        )

    def with_name(self, name: str) -> "Query":
        return Query(self.head, self.atoms, self.inequalities, name, self.negated_atoms)

    def __str__(self) -> str:
        head = f"{self.name}({', '.join(term_str(t) for t in self.head)})"
        parts = (
            [str(a) for a in self.atoms]
            + [f"not {a}" for a in self.negated_atoms]
            + [str(e) for e in self.inequalities]
        )
        return f"{head} :- {', '.join(parts)}."


def make_query(
    head: Sequence[Term],
    atoms: Iterable[Atom],
    inequalities: Iterable[Inequality] = (),
    name: str = "ans",
) -> Query:
    """Convenience constructor mirroring the dataclass with sequence args."""
    return Query(tuple(head), tuple(atoms), tuple(inequalities), name)
