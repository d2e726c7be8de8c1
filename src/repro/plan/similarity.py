"""Similarity keys for answer reuse across renamed questions.

Two crowd questions can be *textually* different yet logically the same:
``TRUE(Q, t)?`` and ``TRUE(Q', t)?`` where ``Q'`` is ``Q`` with its
variables renamed or its body atoms reordered, or a candidate
verification whose partial assignment grounds ``Q`` into the same
substituted body.  All of them reduce to the same ground-truth
satisfiability check, so one crowd answer settles them all.

:func:`similarity_key` maps a dispatch/broker ``question_key`` to a
canonical ``("sat", body)`` form that is invariant under variable
renaming and body reordering but **keeps constants** — soundness first:
equal keys imply isomorphic substituted bodies, hence the same answer.
The canonicalisation is deliberately incomplete (isomorphic questions
may still get distinct keys when atom shapes tie); a missed reuse is
just a paid question, never a wrong answer.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from ..query.ast import Atom, Query, Var
from ..query.subquery import embed_answer

#: Question kinds whose answers are a pure function of the substituted
#: body's ground-truth satisfiability.
_SAT_KINDS = ("verify_answer", "verify_candidate")


def similarity_key(key: tuple) -> Optional[tuple]:
    """The canonical similarity class of a question key, or ``None``.

    Accepts the tuples produced by ``repro.oracle.questions.question_key``:
    ``("verify_answer", query, answer)`` and ``("verify_candidate",
    query, partial)`` (partial as a mapping or a frozenset of items).
    Other kinds — fact checks are already canonical, completions are
    open-ended — get no similarity class.
    """
    kind = key[0]
    if kind not in _SAT_KINDS:
        return None
    try:
        if kind == "verify_answer":
            _, query, answer = key
            body = canonical_body(embed_answer(query, answer))
        else:
            _, query, partial = key
            if not isinstance(partial, Mapping):
                partial = dict(partial)
            body = canonical_body(query.substitute(partial))
    except Exception:
        return None  # unembeddable answer / malformed partial: no class
    return ("sat", body)


def canonical_body(query: Query) -> tuple:
    """A renaming- and reordering-invariant form of ``body(Q)``.

    Constants stay verbatim (they are the question's payload); variables
    are numbered by first occurrence over the atoms sorted by their
    variable-blind shape.  The head is irrelevant to satisfiability and
    is dropped.
    """
    body = [(a, False) for a in query.atoms] + [
        (a, True) for a in query.negated_atoms
    ]

    def shape(atom: Atom, negated: bool) -> tuple:
        return (
            negated,
            atom.relation,
            tuple(
                ("v",) if isinstance(t, Var) else ("c", repr(t)) for t in atom.terms
            ),
        )

    body.sort(key=lambda pair: shape(*pair))
    ids: dict[Var, int] = {}

    def term(t: Any) -> tuple:
        if isinstance(t, Var):
            return ("v", ids.setdefault(t, len(ids)))
        # repr keeps mixed-type constants comparable in the sorts below
        # and is faithful for the str/int/float payloads queries carry.
        return ("c", repr(t))

    atoms = tuple(
        (negated, atom.relation, tuple(term(t) for t in atom.terms))
        for atom, negated in body
    )
    inequalities = tuple(
        sorted(
            tuple(sorted((term(ineq.left), term(ineq.right))))
            for ineq in query.inequalities
        )
    )
    return (atoms, inequalities)


__all__ = ["canonical_body", "similarity_key"]
