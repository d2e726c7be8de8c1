"""Cleaning queries with safe negation (the §9 "negation" extension).

Negation makes the two target actions two-sided:

* a **wrong answer** can be removed by *deleting* a false positive fact
  (Section 4) **or** by *inserting* a true fact that a negated atom
  should have matched — each valid assignment of the wrong answer
  offers both kinds of options, and the false-options form a hitting
  set over the assignments exactly as before;
* a **missing answer** can be blocked by a *false fact* matching a
  negated atom — deleting the blocker adds the answer — in addition to
  the Section 5 case of missing positive facts.

Three option kinds destroy an assignment of a wrong answer:

* ``delete f`` — a positive witness fact, if the crowd says it is false
  (one closed question);
* ``insert g`` — a fully ground negated atom's fact, if the crowd says
  it is true (one closed question);
* ``complete a`` — a negated atom with local wildcards: the crowd is
  asked to *complete* a matching true fact (one open question; "not
  satisfiable" rules the option out).

The greedy structure, the option-frequency heuristic and the singleton
shortcut of Algorithm 1 carry over with "option" generalizing "fact"
(completion options are never inferred — their values must come from
the crowd).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Literal, Optional

from ..db.database import Database
from ..db.edits import Edit, delete, insert
from ..db.tuples import Fact
from ..oracle.base import AccountingOracle
from ..query.ast import Atom, Query, Var
from ..query.evaluator import Answer, Evaluator, witness_of
from ..query.subquery import embed_answer
from .deletion import DeletionError
from .insertion import (
    InsertionConfig,
    InsertionError,
    answer_present,
    crowd_add_missing_answer,
)
from .split import SplitStrategy


@dataclass(frozen=True)
class Option:
    """One way to destroy an assignment of a wrong answer."""

    action: Literal["delete", "insert", "complete"]
    fact: Optional[Fact] = None
    atom: Optional[Atom] = None  # for "complete": partially ground

    def edit(self) -> Edit:
        """The edit for a decided delete/insert option."""
        assert self.fact is not None and self.action != "complete"
        return delete(self.fact) if self.action == "delete" else insert(self.fact)

    def __str__(self) -> str:
        if self.action == "complete":
            return f"complete {self.atom}"
        sign = "-" if self.action == "delete" else "+"
        return f"{self.fact}{sign}"


def _assignment_options(query: Query, assignment) -> frozenset[Option]:
    """The destroy-options of one valid assignment."""
    options = {
        Option("delete", fact) for fact in witness_of(query, assignment)
    }
    for atom in query.negated_atoms:
        partial = atom.substitute(assignment)
        if partial.is_ground():
            options.add(
                Option("insert", Fact(partial.relation, tuple(partial.terms)))  # type: ignore[arg-type]
            )
        else:
            options.add(Option("complete", atom=partial))
    return frozenset(options)


def _wildcard_query(atom: Atom) -> Query:
    """A one-atom query whose head is the atom's wildcard variables."""
    head = tuple(sorted(atom.variables(), key=lambda v: v.name))
    return Query(head=head, atoms=(atom,), name=f"neg:{atom.relation}")


def _resolve_option(
    option: Option, oracle: AccountingOracle
) -> Optional[Edit]:
    """Ask the crowd about an option; return its edit if it applies."""
    if option.action == "delete":
        assert option.fact is not None
        return None if oracle.verify_fact(option.fact) else option.edit()
    if option.action == "insert":
        assert option.fact is not None
        return option.edit() if oracle.verify_fact(option.fact) else None
    # complete: an open question over the wildcard variables
    assert option.atom is not None
    query = _wildcard_query(option.atom)
    completion = oracle.complete_assignment(query, {})
    if completion is None:
        return None
    ground = option.atom.substitute(completion)
    return insert(Fact(ground.relation, tuple(ground.terms)))  # type: ignore[arg-type]


def remove_wrong_answer_with_negation(
    query: Query,
    database: Database,
    answer: Answer,
    oracle: AccountingOracle,
    rng: Optional[random.Random] = None,
) -> list[Edit]:
    """Generalized Algorithm 1 over delete/insert/complete options.

    Mutates *database*; returns the applied edits.
    """
    rng = rng if rng is not None else random.Random()
    sets: list[frozenset[Option]] = []
    seen: set[frozenset[Option]] = set()
    for assignment in Evaluator(query, database).assignments(
        _answer_partial(query, answer)
    ):
        options = _assignment_options(query, assignment)
        if options not in seen:
            seen.add(options)
            sets.append(options)

    edits: list[Edit] = []
    while sets:
        # Singleton inference (Theorem 4.5 analog): a set reduced to one
        # boolean option must be resolved by it; completion options still
        # need the crowd to supply the values.
        singles = sorted(
            {
                next(iter(s))
                for s in sets
                if len(s) == 1 and next(iter(s)).action != "complete"
            },
            key=str,
        )
        if singles:
            for option in singles:
                edits.append(option.edit())
                oracle.remember_fact(option.fact, option.action == "insert")
            chosen = set(singles)
            sets = [s for s in sets if not (s & chosen)]
            continue
        if any(not s for s in sets):
            raise DeletionError(
                f"answer {answer!r} has an assignment with no applicable option"
            )
        counts: Counter = Counter()
        for s in sets:
            counts.update(s)
        option = max(counts, key=lambda o: (counts[o], str(o)))
        edit = _resolve_option(option, oracle)
        if edit is not None:
            edits.append(edit)
            sets = [s for s in sets if option not in s]
        else:
            sets = [s - {option} for s in sets]
            if any(not s for s in sets):
                raise DeletionError(
                    f"answer {answer!r} has an assignment whose options were "
                    "all rejected"
                )

    database.apply(edits)
    return edits


def add_missing_answer_with_negation(
    query: Query,
    database: Database,
    answer: Answer,
    oracle: AccountingOracle,
    split: Optional[SplitStrategy] = None,
    rng: Optional[random.Random] = None,
    config: Optional[InsertionConfig] = None,
    max_blocker_candidates: int = 16,
) -> list[Edit]:
    """Add a missing answer under negation.

    First hunts for *blocked* witnesses: assignments of the positive
    part already in ``D`` whose negated atoms match (false) facts —
    deleting a false blocker is usually the one-question fix.  Falls
    back to Algorithm 2 for genuinely missing positive facts.
    """
    rng = rng if rng is not None else random.Random()
    embedded = embed_answer(query, answer)
    edits: list[Edit] = []

    if _try_unblock(embedded, database, oracle, edits, max_blocker_candidates):
        return edits

    # Positive facts are missing: run Algorithm 2 (its evaluator and the
    # oracle both respect the negated atoms), then clear any blockers the
    # new witness surfaced.
    edits += crowd_add_missing_answer(
        query, database, answer, oracle, split=split, rng=rng, config=config
    )
    if answer_present(embedded, database):
        return edits
    if _try_unblock(embedded, database, oracle, edits, max_blocker_candidates):
        return edits
    raise InsertionError(f"could not add answer {answer!r} under negation")


def _positive_part(embedded: Query) -> Query:
    return Query(
        head=embedded.head,
        atoms=embedded.atoms,
        inequalities=embedded.inequalities,
        name=f"{embedded.name}+",
    )


def _matching_blockers(
    atom: Atom, assignment, database: Database
) -> list[Fact]:
    """All database facts matching a negated atom under *assignment*
    (wildcards free, repeated wildcards consistent)."""
    partial = atom.substitute(dict(assignment))
    pattern = [
        None if isinstance(term, Var) else term for term in partial.terms
    ]
    wildcards: dict[Var, list[int]] = {}
    for position, term in enumerate(partial.terms):
        if isinstance(term, Var):
            wildcards.setdefault(term, []).append(position)
    matches = []
    for fact in database.match(atom.relation, pattern):
        if all(
            len({fact.values[i] for i in positions}) == 1
            for positions in wildcards.values()
        ):
            matches.append(fact)
    return sorted(matches, key=repr)


def _try_unblock(
    embedded: Query,
    database: Database,
    oracle: AccountingOracle,
    edits: list[Edit],
    cap: int,
) -> bool:
    """Find a positive-supported assignment whose blockers are false."""
    if answer_present(embedded, database):
        return True
    positive = _positive_part(embedded)
    count = 0
    for assignment in Evaluator(positive, database).assignments():
        if count >= cap:
            break
        blockers: list[Fact] = []
        for atom in embedded.negated_atoms:
            blockers += _matching_blockers(atom, assignment, database)
        if not blockers:
            continue  # would already satisfy the embedded query
        count += 1
        if not oracle.verify_candidate(embedded, assignment):
            continue  # not the true witness
        for blocker in sorted(set(blockers), key=repr):
            if not oracle.verify_fact(blocker):
                edit = delete(blocker)
                edit.apply(database)
                edits.append(edit)
        if answer_present(embedded, database):
            return True
    return False


def _answer_partial(query: Query, answer: Answer):
    from ..query.evaluator import answer_to_partial

    partial = answer_to_partial(query, answer)
    if partial is None:
        raise DeletionError(f"answer {answer!r} does not match head of {query.name}")
    return partial
