"""Enumeration-order differential test: compiled evaluator vs. the frozen
interpreted backtracker (``tests/reference_evaluator.py``).

The order in which :meth:`Evaluator.assignments` yields assignments is a
contract, not an accident: the perfect oracle's ``COMPL(α, Q)`` returns
the *first* assignment and the noise generator draws ``rng.choice`` over
the assignment list.  So the compiled search must reproduce the
reference's sequence exactly — same assignments, same order, same key
order inside each assignment — along with the same witness lists and
the same ``evaluator.*`` telemetry counts.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_evaluator import ReferenceEvaluator
from repro.db.database import Database
from repro.db.schema import Schema
from repro.db.tuples import Fact
from repro.query.ast import Atom, Inequality, Query, Var
from repro.query.evaluator import Evaluator
from repro.query.planner import PlannedEvaluator, Statistics
from repro.telemetry import telemetry_session
from repro.workloads import Q1, Q2, Q3, Q4, Q5

ARITY = {"r": 2, "s": 3, "t": 1}
SCHEMA = Schema.from_dict({"r": ["a", "b"], "s": ["a", "b", "c"], "t": ["a"]})
CONSTANTS = st.sampled_from([0, 1, 2, "x", "y"])
BODY_VARS = [Var(f"v{i}") for i in range(4)]
EXTRA = Var("extra")  # bound by partials, occurs nowhere in the query

COUNTERS = ("evaluator.index_probes", "evaluator.backtrack_steps", "evaluator.assignments")


@st.composite
def facts(draw) -> Fact:
    relation = draw(st.sampled_from(sorted(ARITY)))
    return Fact(relation, tuple(draw(CONSTANTS) for _ in range(ARITY[relation])))


@st.composite
def atoms(draw, terms) -> Atom:
    relation = draw(st.sampled_from(sorted(ARITY)))
    return Atom(relation, tuple(draw(terms) for _ in range(ARITY[relation])))


@st.composite
def queries(draw) -> Query:
    """Constants, repeated variables, inequalities (constant sides
    included) and negated atoms with local wildcards."""
    body = draw(st.lists(atoms(st.sampled_from(BODY_VARS) | CONSTANTS), min_size=1, max_size=4))
    body_vars = sorted(set().union(*(a.variables() for a in body)))
    term = st.sampled_from(body_vars) | CONSTANTS if body_vars else CONSTANTS
    head = draw(st.lists(term, max_size=3))
    inequalities = draw(
        st.lists(st.builds(Inequality, term, term), max_size=2)
    )
    negated = []
    for k in range(draw(st.integers(0, 2))):
        # wildcards are local to one negated atom and may repeat inside it
        local = st.sampled_from([Var(f"w{k}a"), Var(f"w{k}b")])
        negated.append(draw(atoms(term | local)))
    return Query(tuple(head), tuple(body), tuple(inequalities), "q", tuple(negated))


@st.composite
def partials(draw, query: Query) -> dict:
    names = sorted(query.body_variables()) + [EXTRA]
    for atom in query.negated_atoms:
        names += sorted(atom.variables() - query.body_variables())
    keys = draw(st.lists(st.sampled_from(names), unique=True, max_size=3))
    return {key: draw(CONSTANTS) for key in keys}


@st.composite
def databases(draw) -> Database:
    """A plain database, or a fork of one with add and remove overlays."""
    base = Database(SCHEMA, draw(st.lists(facts(), max_size=14)))
    if not draw(st.booleans()):
        return base
    fork = base.fork()
    if len(base):
        for fact in draw(st.lists(st.sampled_from(sorted(base, key=repr)), max_size=4)):
            fork.delete(fact)
    for fact in draw(st.lists(facts(), max_size=4)):
        fork.insert(fact)
    return fork


def enumerate_with_counts(evaluator, partial=None):
    """The assignment sequence (key order included) and the counters."""
    with telemetry_session() as (tel, _):
        sequence = [list(a.items()) for a in evaluator.assignments(partial)]
        counts = {name: tel.counter(name) for name in COUNTERS}
    return sequence, counts


def witnesses_with_counts(evaluator, answers):
    with telemetry_session() as (tel, _):
        lists = [evaluator.witnesses(answer) for answer in answers]
        counts = {name: tel.counter(name) for name in COUNTERS}
    return lists, counts


PROPERTY = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@PROPERTY
@given(st.data())
def test_assignment_sequence_matches_reference(data):
    query = data.draw(queries())
    database = data.draw(databases())
    partial = data.draw(partials(query))
    for bound in (None, partial):
        compiled = enumerate_with_counts(Evaluator(query, database), bound)
        reference = enumerate_with_counts(ReferenceEvaluator(query, database), bound)
        assert compiled == reference


@PROPERTY
@given(st.data())
def test_witness_lists_match_reference(data):
    query = data.draw(queries())
    database = data.draw(databases())
    reference = ReferenceEvaluator(query, database)
    answers = sorted(reference.answers(), key=repr)
    answers.append(tuple(data.draw(CONSTANTS) for _ in query.head))
    assert witnesses_with_counts(Evaluator(query, database), answers) == (
        witnesses_with_counts(reference, answers)
    )


def test_paper_queries_match_reference(worldcup_gt):
    """Worldcup Q1-Q5 at paper scale: full enumerations and a witness
    probe per answer, where relation-size ties and self-joins occur."""
    for query in (Q1, Q2, Q3, Q4, Q5):
        compiled, reference = Evaluator(query, worldcup_gt), ReferenceEvaluator(query, worldcup_gt)
        assert enumerate_with_counts(compiled) == enumerate_with_counts(reference)
        answers = sorted(reference.answers(), key=repr)[:20]
        assert witnesses_with_counts(compiled, answers) == witnesses_with_counts(
            reference, answers
        )


class _LastAtomFirst(PlannedEvaluator):
    """Overrides the join order: always bind the last remaining atom."""

    def __init__(self, query, database) -> None:
        super().__init__(query, database)
        self.picks = 0

    def _pick_atom(self, assignment, remaining):
        self.picks += 1
        return len(remaining) - 1


class _ReferenceLastAtomFirst(ReferenceEvaluator):
    def _pick_atom(self, assignment, remaining):
        return len(remaining) - 1


class _ReferencePlanned(ReferenceEvaluator):
    """The reference search driven by the cost-based pick."""

    def __init__(self, query, database) -> None:
        super().__init__(query, database)
        self.statistics = Statistics(database)

    _pick_atom = PlannedEvaluator._pick_atom


def test_pick_atom_override_is_honoured(worldcup_gt):
    for query in (Q1, Q2, Q5):
        overridden = _LastAtomFirst(query, worldcup_gt)
        sequence = enumerate_with_counts(overridden)
        assert overridden.picks > 0
        assert sequence == enumerate_with_counts(_ReferenceLastAtomFirst(query, worldcup_gt))
        # the order really changed, the answers did not
        default = enumerate_with_counts(Evaluator(query, worldcup_gt))
        assert sequence != default
        assert Counter(map(frozenset, sequence[0])) == Counter(map(frozenset, default[0]))
        planned = enumerate_with_counts(PlannedEvaluator(query, worldcup_gt))
        assert planned == enumerate_with_counts(_ReferencePlanned(query, worldcup_gt))
