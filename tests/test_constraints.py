"""Tests for key/FK constraints and constraint-driven repair (§9).

Keys are FDs onto every other attribute; foreign keys compile to
``child(…), not parent(…)``.  Both run through the one constraint
language in :mod:`repro.constraints`.
"""

import pytest

from repro.constraints import (
    FD,
    ConstraintError,
    ForeignKey,
    OracleRepairer,
    RepairBudget,
    find_violations,
    satisfies,
)
from repro.db.schema import Schema
from repro.db.tuples import fact
from repro.db.database import Database
from repro.datasets.worldcup import worldcup_constraints
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.query.ast import Atom, Var
from repro.query.backend import available_backends


@pytest.fixture
def schema():
    return Schema.from_dict(
        {"teams": ["team", "continent"], "games": ["date", "winner"]}
    )


@pytest.fixture
def constraints():
    return [
        FD("teams", ("team",), ("continent",)),
        ForeignKey("games", ("winner",), "teams", ("team",)),
    ]


class TestDeclarations:
    def test_key_requires_positions(self):
        with pytest.raises(ConstraintError):
            FD("r", (), ("b",))
        with pytest.raises(ConstraintError):
            FD("r", ("a",), ("a",))

    def test_fk_lengths_must_match(self):
        with pytest.raises(ConstraintError):
            ForeignKey("a", ("x", "y"), "b", ("x",))
        with pytest.raises(ConstraintError):
            ForeignKey("a", (), "b", ())

    def test_validate_against_schema(self, schema, constraints):
        db = Database(schema)
        assert find_violations(db, constraints) == []  # fine
        with pytest.raises(ConstraintError):
            find_violations(db, FD("teams", ("nope",), ("continent",)))
        with pytest.raises(ConstraintError):
            find_violations(db, ForeignKey("games", ("winner",), "teams", ("nope",)))


class TestViolationDetection:
    def test_key_violation_found(self, schema, constraints):
        db = Database(
            schema, [fact("teams", "NED", "EU"), fact("teams", "NED", "SA")]
        )
        violations = find_violations(db, constraints)
        assert len(violations) == 1
        assert violations[0].facts == frozenset(
            {fact("teams", "NED", "EU"), fact("teams", "NED", "SA")}
        )
        assert violations[0].parent is None

    def test_no_violation_on_identical_key_single_fact(self, schema, constraints):
        db = Database(schema, [fact("teams", "NED", "EU")])
        assert find_violations(db, constraints) == []

    def test_three_way_conflict_yields_three_pairs(self, schema, constraints):
        db = Database(
            schema,
            [
                fact("teams", "X", "EU"),
                fact("teams", "X", "SA"),
                fact("teams", "X", "AF"),
            ],
        )
        assert len(find_violations(db, constraints)) == 3

    def test_fk_violation_found(self, schema, constraints):
        db = Database(schema, [fact("games", "d1", "GER")])
        violations = find_violations(db, constraints)
        assert len(violations) == 1
        assert violations[0].facts == frozenset({fact("games", "d1", "GER")})
        assert violations[0].parent == Atom("teams", ("GER", Var("v1")))

    def test_fk_satisfied(self, schema, constraints):
        db = Database(
            schema, [fact("games", "d1", "GER"), fact("teams", "GER", "EU")]
        )
        assert find_violations(db, constraints) == []
        assert satisfies(db, constraints)

    def test_ground_truth_satisfies_worldcup_constraints(self, worldcup_gt):
        for backend in ("naive", "columnar"):
            assert satisfies(worldcup_gt, worldcup_constraints(), backend=backend)

    @pytest.mark.parametrize(
        "backend", [b for b in ("columnar", "sql") if b in available_backends()]
    )
    def test_fk_detection_parity_across_backends(self, worldcup_gt, backend):
        db = worldcup_gt.copy()
        db.insert(fact("goals", "Nobody Special", "13.07.2014"))
        db.insert(fact("players", "Ghost", "XXX", 1990, "GER"))
        db.delete(sorted(db.facts("stages"))[0])
        expected = find_violations(db, worldcup_constraints(), backend="naive")
        assert len(expected) >= 3
        assert find_violations(db, worldcup_constraints(), backend=backend) == expected


class TestConstraintCleaner:
    """Key/FK repair through :class:`OracleRepairer`."""

    def _cleaner(self, db, gt, constraints, **options):
        return OracleRepairer(
            db, AccountingOracle(PerfectOracle(gt)), constraints, **options
        )

    def test_key_conflict_resolved_to_truth(self, schema, constraints):
        gt = Database(schema, [fact("teams", "NED", "EU")])
        db = Database(
            schema, [fact("teams", "NED", "EU"), fact("teams", "NED", "SA")]
        )
        report = self._cleaner(db, gt, constraints).run()
        assert satisfies(db, constraints)
        assert fact("teams", "NED", "EU") in db
        assert fact("teams", "NED", "SA") not in db
        assert report.violations_found == 1
        assert report.converged and report.consistent

    def test_false_child_deleted(self, schema, constraints):
        gt = Database(schema, [fact("teams", "GER", "EU")])
        db = Database(schema, [fact("games", "d9", "XXX")])  # false child
        self._cleaner(db, gt, constraints).run()
        assert fact("games", "d9", "XXX") not in db
        assert satisfies(db, constraints)

    def test_missing_parent_inserted(self, schema, constraints):
        gt = Database(
            schema, [fact("games", "d1", "GER"), fact("teams", "GER", "EU")]
        )
        db = Database(schema, [fact("games", "d1", "GER")])  # true child
        report = self._cleaner(db, gt, constraints).run()
        assert fact("teams", "GER", "EU") in db
        assert fact("games", "d1", "GER") in db
        assert [e.fact for e in report.insertions] == [fact("teams", "GER", "EU")]
        assert report.free_deletions == 0
        assert db == gt

    def test_ground_parent_inserted_without_completion(self):
        schema = Schema.from_dict({"child": ["k"], "parent": ["k"]})
        fk = ForeignKey("child", ("k",), "parent", ("k",))
        gt = Database(schema, [fact("child", "a"), fact("parent", "a")])
        db = Database(schema, [fact("child", "a")])
        report = self._cleaner(db, gt, [fk]).run()
        assert db == gt
        assert report.questions_asked == 1  # TRUE(child)? only — no COMPL

    def test_budget_degrade_deletes_dangling_child(self, schema, constraints):
        gt = Database(
            schema, [fact("games", "d1", "GER"), fact("teams", "GER", "EU")]
        )
        db = Database(schema, [fact("games", "d1", "GER")])
        report = self._cleaner(
            db, gt, constraints, budget=RepairBudget(max_cost=0)
        ).run()
        assert fact("games", "d1", "GER") not in db
        assert report.questions_asked == 0
        assert report.consistent and not report.converged

    def test_budget_degrade_spares_children_already_resolved(self, schema, constraints):
        gt = Database(
            schema,
            [
                fact("teams", "GER", "EU"),
                fact("teams", "ITA", "EU"),
                fact("games", "d1", "GER"),
                fact("games", "d2", "ITA"),
                fact("games", "d3", "GER"),
            ],
        )
        db = Database(
            schema,
            [fact("games", "d1", "GER"), fact("games", "d2", "ITA"), fact("games", "d3", "GER")],
        )
        # enough budget for d1 (ask + complete teams(GER, ·)), none after
        report = self._cleaner(db, gt, constraints, budget=RepairBudget(max_cost=2)).run()
        assert fact("teams", "GER", "EU") in db
        assert fact("games", "d3", "GER") in db  # its parent arrived with d1's
        assert fact("games", "d2", "ITA") not in db  # degraded: deleted unasked
        assert report.cost == 2
        assert report.consistent and not report.converged

    def test_cascading_repairs(self, schema, constraints):
        # Deleting a false teams fact (key conflict) creates no dangling
        # children because the surviving fact carries the key.
        gt = Database(
            schema, [fact("games", "d1", "GER"), fact("teams", "GER", "EU")]
        )
        db = Database(
            schema,
            [
                fact("games", "d1", "GER"),
                fact("teams", "GER", "EU"),
                fact("teams", "GER", "AS"),
            ],
        )
        self._cleaner(db, gt, constraints).run()
        assert satisfies(db, constraints)
        assert db == gt

    def test_worldcup_corruption_repaired(self, worldcup_gt):
        constraints = worldcup_constraints()
        db = worldcup_gt.copy()
        # Plant one violation of each kind.
        db.insert(fact("teams", "GER", "SA"))                 # key conflict
        db.insert(fact("goals", "Nobody Special", "13.07.2014"))  # dangling FK
        report = self._cleaner(db, worldcup_gt, constraints).run()
        assert satisfies(db, constraints)
        assert fact("teams", "GER", "SA") not in db
        assert fact("goals", "Nobody Special", "13.07.2014") not in db
        assert report.converged
        assert db == worldcup_gt

    def test_edits_only_move_towards_truth(self, worldcup_gt):
        constraints = worldcup_constraints()
        db = worldcup_gt.copy()
        db.insert(fact("teams", "BRA", "EU"))
        before = db.distance(worldcup_gt)
        self._cleaner(db, worldcup_gt, constraints).run()
        assert db.distance(worldcup_gt) <= before

    def test_partner_inferred_false(self, schema, constraints):
        # Once one side of a key conflict is certified true, the other is
        # false without asking: even an oracle that affirms everything is
        # asked a single question.
        class YesOracle(PerfectOracle):
            def verify_fact(self, fact):
                return True

        gt = Database(schema, [fact("teams", "NED", "EU")])
        db = Database(
            schema, [fact("teams", "NED", "EU"), fact("teams", "NED", "SA")]
        )
        report = OracleRepairer(
            db, AccountingOracle(YesOracle(gt)), constraints
        ).run()
        assert report.questions_asked == 1
        assert report.inferred == 1
        assert len(db.facts("teams")) == 1
        assert report.consistent
