"""Property-based tests for the extension modules (UCQ, constraints,
composite questions, crowd simulation)."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.composite import crowd_remove_wrong_answer_composite
from repro.constraints import FD, ForeignKey, OracleRepairer, find_violations, satisfies
from repro.crowdsim.simulator import CrowdSimulator
from repro.db.database import Database
from repro.db.io import load_json, save_json
from repro.db.schema import RelationSchema, Schema
from repro.db.tuples import Fact
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.oracle.questions import InteractionLog, QuestionKind
from repro.query.parser import parse_query
from repro.query.union import UnionQuery, evaluate_union
from repro.query.evaluator import evaluate

# ---------------------------------------------------------------------------
# strategies (shared with test_properties via re-definition: small schema)
# ---------------------------------------------------------------------------

CONSTANTS = ["a", "b", "c", "d"]

SCHEMA = Schema(
    [
        RelationSchema("r", ("p", "q")),
        RelationSchema("s", ("p",)),
    ]
)

ARITIES = {"r": 2, "s": 1}


@st.composite
def databases(draw):
    facts = draw(
        st.lists(
            st.sampled_from(["r", "s"]).flatmap(
                lambda rel: st.tuples(
                    st.just(rel),
                    st.tuples(*[st.sampled_from(CONSTANTS)] * ARITIES[rel]),
                )
            ),
            max_size=20,
        )
    )
    return Database(SCHEMA, [Fact(rel, values) for rel, values in facts])


DISJUNCT_A = parse_query("u(p) :- r(p, q).")
DISJUNCT_B = parse_query("u(p) :- s(p).")
UNION = UnionQuery((DISJUNCT_A, DISJUNCT_B), "u")

CONSTRAINTS = [FD("r", ("p",), ("q",)), ForeignKey("r", ("p",), "s", ("p",))]


# ---------------------------------------------------------------------------
# UCQ properties
# ---------------------------------------------------------------------------


@given(db=databases())
@settings(max_examples=80, deadline=None)
def test_union_semantics_is_setwise_union(db):
    assert evaluate_union(UNION, db) == evaluate(DISJUNCT_A, db) | evaluate(
        DISJUNCT_B, db
    )


@given(db=databases())
@settings(max_examples=60, deadline=None)
def test_union_witnesses_cover_producing_disjuncts(db):
    for answer in evaluate_union(UNION, db):
        witnesses = UNION.witnesses(db, answer)
        assert witnesses
        producing = UNION.producing_disjuncts(db, answer)
        assert producing


# ---------------------------------------------------------------------------
# constraint properties
# ---------------------------------------------------------------------------


def _make_consistent(gt):
    """Drop violators until the ground truth satisfies the constraints."""
    for violation in find_violations(gt, CONSTRAINTS):
        gt.delete(max(violation.facts, key=repr))
    assert satisfies(gt, CONSTRAINTS)


@given(db=databases(), gt=databases())
@settings(max_examples=50, deadline=None)
def test_constraint_repair_reaches_satisfaction_or_reports(db, gt):
    """With a perfect oracle over a constraint-satisfying ground truth,
    repair either satisfies the constraints or reports the obstruction."""
    _make_consistent(gt)
    report = OracleRepairer(db, AccountingOracle(PerfectOracle(gt)), CONSTRAINTS).run()
    assert report.consistent == satisfies(db, CONSTRAINTS)
    assert report.consistent or not report.converged


@given(db=databases(), gt=databases())
@settings(max_examples=50, deadline=None)
def test_constraint_repair_never_increases_distance(db, gt):
    _make_consistent(gt)
    before = db.distance(gt)
    OracleRepairer(db, AccountingOracle(PerfectOracle(gt)), CONSTRAINTS).run()
    assert db.distance(gt) <= before


# ---------------------------------------------------------------------------
# composite questions agree with single questions
# ---------------------------------------------------------------------------

COMPOSITE_QUERY = parse_query("q(p) :- r(p, q), s(q).")


@given(db=databases(), gt=databases(), batch=st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_composite_deletion_removes_answer(db, gt, batch):
    wrong = sorted(evaluate(COMPOSITE_QUERY, db) - evaluate(COMPOSITE_QUERY, gt))
    if not wrong:
        return
    answer = wrong[0]
    oracle = AccountingOracle(PerfectOracle(gt))
    crowd_remove_wrong_answer_composite(
        COMPOSITE_QUERY, db, answer, oracle, batch, random.Random(0)
    )
    assert answer not in evaluate(COMPOSITE_QUERY, db)


# ---------------------------------------------------------------------------
# persistence round-trip
# ---------------------------------------------------------------------------


@given(db=databases())
@settings(max_examples=40, deadline=None)
def test_json_round_trip(db, tmp_path_factory):
    path = tmp_path_factory.mktemp("io") / "db.json"
    save_json(db, path)
    assert load_json(path) == db


# ---------------------------------------------------------------------------
# crowd simulator invariants
# ---------------------------------------------------------------------------

_KINDS = list(QuestionKind)


@given(
    kinds=st.lists(st.sampled_from(_KINDS), max_size=30),
    n_experts=st.integers(1, 8),
    seed=st.integers(0, 100),
)
@settings(max_examples=60, deadline=None)
def test_simulator_parallel_never_slower(kinds, n_experts, seed):
    log = InteractionLog()
    for kind in kinds:
        log.record(kind, 1)
    seq = CrowdSimulator(n_experts=n_experts, rng=random.Random(seed)).replay(
        log, parallel=False
    )
    par = CrowdSimulator(n_experts=n_experts, rng=random.Random(seed)).replay(
        log, parallel=True
    )
    assert len(seq.completions) == len(par.completions) == len(kinds)
    # With identical draws consumed in potentially different order the
    # comparison is statistical; assert the structural invariants instead.
    assert seq.makespan >= 0 and par.makespan >= 0
    for timeline in (seq, par):
        for event in timeline.answers:
            assert event.end > event.start
