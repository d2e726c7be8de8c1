"""Tests for materialized views and incremental maintenance."""

import random

import pytest

from repro.db.database import Database
from repro.db.edits import delete, insert
from repro.db.schema import Schema
from repro.db.tuples import fact
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.views.materialized import MaterializedView, ViewManager
from repro.workloads import EX1


@pytest.fixture
def schema():
    return Schema.from_dict({"r": ["a", "b"], "s": ["b"]})


@pytest.fixture
def db(schema):
    return Database(
        schema,
        [fact("r", 1, 2), fact("r", 3, 2), fact("s", 2)],
    )


QUERY = parse_query("q(a) :- r(a, b), s(b).")


class TestMaterializedView:
    def test_initial_materialization(self, db):
        view = MaterializedView(QUERY, db)
        assert view.answers() == {(1,), (3,)}
        assert view.support((1,)) == 1

    def test_insert_adds_answer(self, db):
        view = MaterializedView(QUERY, db)
        db.insert(fact("r", 9, 2))
        added = view.on_insert(fact("r", 9, 2))
        assert added == {(9,)}
        assert view.answers() == {(1,), (3,), (9,)}

    def test_insert_increases_support_without_new_answer(self, db):
        view = MaterializedView(QUERY, db)
        db.insert(fact("s", 5))
        assert view.on_insert(fact("s", 5)) == set()
        db.insert(fact("r", 1, 5))
        added = view.on_insert(fact("r", 1, 5))
        assert added == set()  # (1,) already present
        assert view.support((1,)) == 2

    def test_delete_decrements_support(self, db):
        view = MaterializedView(QUERY, db)
        db.insert(fact("s", 5))
        view.on_insert(fact("s", 5))
        db.insert(fact("r", 1, 5))
        view.on_insert(fact("r", 1, 5))
        removed = view.on_delete(fact("r", 1, 5))
        db.delete(fact("r", 1, 5))
        assert removed == set()
        assert view.support((1,)) == 1

    def test_delete_removes_answer(self, db):
        view = MaterializedView(QUERY, db)
        removed = view.on_delete(fact("r", 1, 2))
        db.delete(fact("r", 1, 2))
        assert removed == {(1,)}
        assert view.answers() == {(3,)}

    def test_shared_fact_deletion_removes_all(self, db):
        view = MaterializedView(QUERY, db)
        removed = view.on_delete(fact("s", 2))
        db.delete(fact("s", 2))
        assert removed == {(1,), (3,)}
        assert view.answers() == set()

    def test_self_join_dedup(self, schema):
        db = Database(schema, [fact("s", 2)])
        q = parse_query("q(a) :- r(a, b), r(a, c), s(b).")
        view = MaterializedView(q, db)
        db.insert(fact("r", 1, 2))
        added = view.on_insert(fact("r", 1, 2))
        assert added == {(1,)}
        # one assignment (b=c=2), counted once despite two atom positions
        assert view.support((1,)) == 1

    def test_contains_and_len(self, db):
        view = MaterializedView(QUERY, db)
        assert (1,) in view
        assert (99,) not in view
        assert len(view) == 2


class TestViewManager:
    def test_register_and_query(self, db):
        manager = ViewManager(db)
        view = manager.register(QUERY)
        assert manager.view("q") is view
        assert manager.names == ("q",)

    def test_duplicate_name_rejected(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        with pytest.raises(ValueError):
            manager.register(QUERY)

    def test_insert_routes_to_views(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        changed = manager.insert(fact("r", 9, 2))
        assert changed == {"q": {(9,)}}
        assert fact("r", 9, 2) in db

    def test_idempotent_insert_noop(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        # no-op edits emit the same per-view shape as real ones
        assert manager.insert(fact("r", 1, 2)) == {"q": set()}

    def test_delete_routes_to_views(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        changed = manager.delete(fact("s", 2))
        assert changed == {"q": {(1,), (3,)}}
        assert fact("s", 2) not in db

    def test_idempotent_delete_noop(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        assert manager.delete(fact("s", 99)) == {"q": set()}

    def test_apply_edit_sequence(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        changed = manager.apply(
            [insert(fact("r", 9, 2)), delete(fact("r", 1, 2))]
        )
        assert changed["q"] == {(9,), (1,)}

    def test_multiple_views(self, db):
        manager = ViewManager(db)
        manager.register(QUERY)
        manager.register(parse_query("p(b) :- s(b)."), name="p")
        changed = manager.insert(fact("s", 7))
        assert changed["p"] == {(7,)}
        assert changed["q"] == set()


class TestNoOpEditDrift:
    """Regression: no-op edits must never drift the support counters."""

    def test_double_on_insert_does_not_double_count(self, db):
        view = MaterializedView(QUERY, db)
        db.insert(fact("r", 9, 2))
        assert view.on_insert(fact("r", 9, 2)) == {(9,)}
        # a second (no-op) notification for the same insert
        assert view.on_insert(fact("r", 9, 2)) == set()
        assert view.support((9,)) == 1
        assert view.answers() == evaluate(QUERY, db)

    def test_on_insert_of_already_present_fact_is_noop(self, db):
        view = MaterializedView(QUERY, db)
        # fact("r", 1, 2) was part of the initial materialization; a
        # redundant insert notification must not bump its support
        assert view.on_insert(fact("r", 1, 2)) == set()
        assert view.support((1,)) == 1

    def test_on_insert_before_database_insert_is_noop(self, db):
        view = MaterializedView(QUERY, db)
        # the insert "never landed": consistent empty delta, no drift
        assert view.on_insert(fact("r", 9, 2)) == set()
        assert view.support((9,)) == 0
        # once the fact actually lands the delta is emitted normally
        db.insert(fact("r", 9, 2))
        assert view.on_insert(fact("r", 9, 2)) == {(9,)}

    def test_double_on_delete_does_not_go_negative(self, db):
        view = MaterializedView(QUERY, db)
        assert view.on_delete(fact("r", 1, 2)) == {(1,)}
        db.delete(fact("r", 1, 2))
        # repeated delete notification: no-op, supports never negative
        assert view.on_delete(fact("r", 1, 2)) == set()
        assert view.support((1,)) == 0
        # re-inserting must resurrect the answer with support exactly 1
        db.insert(fact("r", 1, 2))
        assert view.on_insert(fact("r", 1, 2)) == {(1,)}
        assert view.support((1,)) == 1

    def test_on_delete_of_absent_fact_is_noop(self, db):
        view = MaterializedView(QUERY, db)
        assert view.on_delete(fact("r", 77, 77)) == set()
        assert view.answers() == evaluate(QUERY, db)

    def test_untracked_relation_is_noop(self, schema):
        db = Database(schema, [fact("r", 1, 2), fact("s", 2)])
        q = parse_query("q(a) :- r(a, b).")
        view = MaterializedView(q, db)
        db.insert(fact("s", 5))
        assert view.on_insert(fact("s", 5)) == set()
        assert view.answers() == {(1,)}

    def test_manager_noop_storm_keeps_views_exact(self, db):
        manager = ViewManager(db)
        view = manager.register(QUERY)
        for _ in range(3):
            manager.insert(fact("r", 1, 2))   # already present
            manager.delete(fact("s", 99))     # absent
        assert view.support((1,)) == 1
        assert view.answers() == evaluate(QUERY, db)


class TestNegation:
    """Regression: edits to a negated relation must reach the view."""

    QUERY = parse_query("q(a) :- r(a, b), not s(b).")

    def test_insert_into_negated_relation_revokes_answer(self, schema):
        db = Database(schema, [fact("r", 1, 2), fact("r", 3, 4)])
        manager = ViewManager(db)
        view = manager.register(self.QUERY)
        assert view.answers() == {(1,), (3,)}
        assert manager.insert(fact("s", 2)) == {"q": set()}
        assert view.answers() == evaluate(self.QUERY, db) == {(3,)}

    def test_delete_from_negated_relation_restores_answer(self, schema):
        db = Database(schema, [fact("r", 1, 2), fact("r", 3, 4), fact("s", 2)])
        manager = ViewManager(db)
        view = manager.register(self.QUERY)
        assert view.answers() == {(3,)}
        manager.delete(fact("s", 2))
        assert view.answers() == evaluate(self.QUERY, db) == {(1,), (3,)}

    def test_random_edit_sequences(self, schema):
        rng = random.Random(17)
        db = Database(schema)
        manager = ViewManager(db)
        view = manager.register(self.QUERY)
        pool = [fact("r", a, b) for a in range(3) for b in range(3)] + [
            fact("s", b) for b in range(3)
        ]
        for _ in range(200):
            victim = rng.choice(pool)
            if rng.random() < 0.5:
                manager.insert(victim)
            else:
                manager.delete(victim)
            assert view.answers() == evaluate(self.QUERY, db)


class TestIncrementalMatchesRecompute:
    def test_random_edit_sequences(self, schema):
        rng = random.Random(13)
        db = Database(schema)
        manager = ViewManager(db)
        view = manager.register(QUERY)
        pool = [fact("r", a, b) for a in range(4) for b in range(3)] + [
            fact("s", b) for b in range(3)
        ]
        for _ in range(300):
            victim = rng.choice(pool)
            if rng.random() < 0.5:
                manager.insert(victim)
            else:
                manager.delete(victim)
            assert view.answers() == evaluate(QUERY, db)

    def test_worldcup_cleaning_keeps_view_exact(self, worldcup_gt):
        from repro.datasets.noise import inject_result_errors

        errors = inject_result_errors(
            worldcup_gt, EX1, n_wrong=1, n_missing=1, rng=random.Random(3)
        )
        db = errors.dirty.copy()
        manager = ViewManager(db)
        view = manager.register(EX1)

        # replay a cleaning run's edits through the manager
        from repro.core.qoco import QOCO, QOCOConfig
        from repro.oracle.base import AccountingOracle
        from repro.oracle.perfect import PerfectOracle

        scratch = errors.dirty.copy()
        oracle = AccountingOracle(PerfectOracle(worldcup_gt))
        report = QOCO(scratch, oracle, QOCOConfig(seed=3)).clean(EX1)

        manager.apply(report.edits)
        assert view.answers() == evaluate(EX1, db)
        assert view.answers() == evaluate(EX1, worldcup_gt)
