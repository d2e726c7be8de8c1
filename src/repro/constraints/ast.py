"""The constraint language: FDs, foreign keys and denial constraints.

Every constraint kind reduces to *forbidden conjunctive-query bodies*:

* an FD ``R: X -> Y`` forbids two ``R``-tuples agreeing on every ``X``
  attribute while disagreeing on some ``Y`` attribute — one boolean CQ
  (with a single inequality) per right-hand-side attribute.  A key is
  the FD ``X -> every other attribute``;
* a foreign key ``child[A] ⊆ parent[B]`` forbids a child tuple with no
  matching parent — the boolean CQ ``child(…), not parent(…)`` (the
  parent's unreferenced columns are local wildcards under the negation);
* a denial constraint *is* a forbidden body: a conjunction of atoms and
  inequalities that must have no satisfying assignment in a consistent
  instance.

Keeping the compiled form a plain :class:`~repro.query.ast.Query` means
violation detection inherits every evaluation substrate behind
:class:`~repro.query.backend.EvalBackend` for free: a violation check is
just a boolean CQ whose witnesses are the violating tuple sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from ..db.schema import Schema, SchemaError
from ..query.ast import Atom, Inequality, Query, Var


class ConstraintError(ValueError):
    """Raised for malformed constraints (unknown attributes, empty sides)."""


def _positions(schema: Schema, relation: str, attributes: tuple[str, ...]) -> tuple[int, ...]:
    """The column positions of *attributes* in *relation* under *schema*."""
    try:
        rel = schema.relation(relation)
        return tuple(rel.attribute_index(a) for a in attributes)
    except SchemaError as error:
        raise ConstraintError(str(error)) from None


@dataclass(frozen=True)
class FD:
    """A functional dependency ``relation: lhs -> rhs`` over attribute names.

    Attributes are resolved against the database schema at detection
    time, so an FD is schema-independent data until it meets an
    instance.  ``FD("games", ("date",), ("winner", "result"))`` reads
    "two games rows sharing a date agree on winner and result".
    """

    relation: str
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.lhs, tuple):
            object.__setattr__(self, "lhs", tuple(self.lhs))
        if not isinstance(self.rhs, tuple):
            object.__setattr__(self, "rhs", tuple(self.rhs))
        if not self.lhs:
            raise ConstraintError(f"FD on {self.relation!r} needs a left-hand side")
        if not self.rhs:
            raise ConstraintError(f"FD on {self.relation!r} needs a right-hand side")
        overlap = set(self.lhs) & set(self.rhs)
        if overlap:
            raise ConstraintError(
                f"FD on {self.relation!r}: attributes {sorted(overlap)} appear "
                f"on both sides"
            )

    @property
    def name(self) -> str:
        return f"fd:{self.relation}:{','.join(self.lhs)}->{','.join(self.rhs)}"

    def positions(self, schema: Schema) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(lhs positions, rhs positions)`` under *schema*."""
        return (
            _positions(schema, self.relation, self.lhs),
            _positions(schema, self.relation, self.rhs),
        )

    def __str__(self) -> str:
        return f"{self.relation}: {', '.join(self.lhs)} -> {', '.join(self.rhs)}"


@dataclass(frozen=True)
class ForeignKey:
    """``child[child_columns] ⊆ parent[parent_columns]`` over attribute names.

    ``ForeignKey("games", ("winner",), "teams", ("team",))`` reads "every
    game's winner is a team".  A violation is one dangling child fact:
    either the child is false or its parent is missing from the
    database, so repair asks about the child and completes the parent
    (:class:`~repro.constraints.repairer.OracleRepairer`).
    """

    child: str
    child_columns: tuple[str, ...]
    parent: str
    parent_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.child_columns, tuple):
            object.__setattr__(self, "child_columns", tuple(self.child_columns))
        if not isinstance(self.parent_columns, tuple):
            object.__setattr__(self, "parent_columns", tuple(self.parent_columns))
        if not self.child_columns:
            raise ConstraintError(f"foreign key on {self.child!r} needs columns")
        if len(self.child_columns) != len(self.parent_columns):
            raise ConstraintError(
                f"foreign key {self.child!r} -> {self.parent!r}: column lists "
                f"differ in length"
            )

    @property
    def name(self) -> str:
        return (
            f"fk:{self.child}:{','.join(self.child_columns)}->"
            f"{self.parent}:{','.join(self.parent_columns)}"
        )

    def as_query(self, schema: Schema) -> Query:
        """``child(c̄), not parent(…)``: witnesses are the dangling children."""
        arity = schema.arity(self.child)
        child = Atom(self.child, tuple(Var(f"c{i}") for i in range(arity)))
        return Query(
            head=(),
            atoms=(child,),
            negated_atoms=(self.parent_atom(schema, child.terms),),
            name=self.name,
        )

    def parent_atom(self, schema: Schema, child_terms: tuple) -> Atom:
        """The parent a child row (its values or variables) needs: the
        referenced columns bound to the child's, the rest variables
        ``v<i>`` (ground when the key covers every parent column)."""
        child_positions = _positions(schema, self.child, self.child_columns)
        parent_positions = _positions(schema, self.parent, self.parent_columns)
        bound = {p: child_terms[c] for c, p in zip(child_positions, parent_positions)}
        arity = schema.arity(self.parent)
        return Atom(
            self.parent, tuple(bound.get(i, Var(f"v{i}")) for i in range(arity))
        )

    def __str__(self) -> str:
        return (
            f"{self.child}[{', '.join(self.child_columns)}] -> "
            f"{self.parent}[{', '.join(self.parent_columns)}]"
        )


@dataclass(frozen=True)
class DenialConstraint:
    """A forbidden conjunctive-query body: ``NOT EXISTS (atoms, inequalities)``.

    A consistent instance admits no assignment satisfying the body; each
    satisfying assignment's witness (the grounded atom set) is one
    violation.  This is exactly the denial-constraint fragment the
    SAT-based CQA line of work (Dixit & Kolaitis) reasons over, minus
    built-in order predicates.
    """

    atoms: tuple[Atom, ...]
    inequalities: tuple[Inequality, ...] = ()
    label: str = "denial"

    def __post_init__(self) -> None:
        if not isinstance(self.atoms, tuple):
            object.__setattr__(self, "atoms", tuple(self.atoms))
        if not isinstance(self.inequalities, tuple):
            object.__setattr__(self, "inequalities", tuple(self.inequalities))
        if not self.atoms:
            raise ConstraintError("a denial constraint needs at least one atom")

    @property
    def name(self) -> str:
        return f"dc:{self.label}"

    def as_query(self) -> Query:
        """The boolean violation query (empty head; witnesses = violations)."""
        return Query(
            head=(),
            atoms=self.atoms,
            inequalities=self.inequalities,
            name=self.name,
        )

    def __str__(self) -> str:
        parts = [str(a) for a in self.atoms] + [str(e) for e in self.inequalities]
        return f"deny {', '.join(parts)}"


#: Anything the detector accepts as one constraint.
Constraint = Union[FD, ForeignKey, DenialConstraint]


def parse_fd(text: str) -> FD:
    """Parse ``"relation: a, b -> c, d"`` into an :class:`FD`.

    The one-line spelling used by docs, benchmarks, and CSV sidecars::

        parse_fd("games: date -> winner, result")
    """
    head, sep, arrow = text.partition(":")
    if not sep:
        raise ConstraintError(f"FD {text!r} is missing the 'relation:' prefix")
    lhs_text, sep, rhs_text = arrow.partition("->")
    if not sep:
        raise ConstraintError(f"FD {text!r} is missing '->'")
    lhs = tuple(a.strip() for a in lhs_text.split(",") if a.strip())
    rhs = tuple(a.strip() for a in rhs_text.split(",") if a.strip())
    return FD(head.strip(), lhs, rhs)


def as_constraints(
    specs: Union[Constraint, str, Iterable[Union[Constraint, str]]]
) -> tuple[Constraint, ...]:
    """Normalize user input: one constraint/string or an iterable of them."""
    if isinstance(specs, (FD, ForeignKey, DenialConstraint, str)):
        specs = (specs,)
    out: list[Constraint] = []
    for spec in specs:
        if isinstance(spec, str):
            out.append(parse_fd(spec))
        elif isinstance(spec, (FD, ForeignKey, DenialConstraint)):
            out.append(spec)
        else:
            raise ConstraintError(f"not a constraint: {spec!r}")
    return tuple(out)


def fd_violation_queries(fd: FD, schema: Schema) -> list[Query]:
    """One boolean CQ per RHS attribute: two rows agree on X, differ there.

    ``R(x̄, y₁), R(x̄, y₂), y₁ != y₂`` with the LHS positions sharing
    variables between the two atoms.  Every satisfying assignment's
    witness is a violating *pair* of facts (the two atoms may also bind
    the same fact, but then the inequality fails, so witnesses are
    genuine pairs).
    """
    rel = schema.relation(fd.relation)
    lhs_positions, rhs_positions = fd.positions(schema)
    queries = []
    for rhs_position in rhs_positions:
        first = []
        second = []
        for position in range(rel.arity):
            if position in lhs_positions:
                shared = Var(f"x{position}")
                first.append(shared)
                second.append(shared)
            elif position == rhs_position:
                first.append(Var(f"a{position}"))
                second.append(Var(f"b{position}"))
            else:
                first.append(Var(f"u{position}"))
                second.append(Var(f"v{position}"))
        queries.append(
            Query(
                head=(),
                atoms=(Atom(fd.relation, tuple(first)), Atom(fd.relation, tuple(second))),
                inequalities=(Inequality(Var(f"a{rhs_position}"), Var(f"b{rhs_position}")),),
                name=f"{fd.name}@{rel.attributes[rhs_position]}",
            )
        )
    return queries


__all__ = [
    "Constraint",
    "ConstraintError",
    "DenialConstraint",
    "FD",
    "ForeignKey",
    "as_constraints",
    "fd_violation_queries",
    "parse_fd",
]
