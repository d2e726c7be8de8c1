"""The queue-driven repairer decides exactly as the recounting one did.

:class:`~repro.constraints.repairer.OracleRepairer` picks through one
:class:`~repro.hitting.hitting_set.DegreeQueue`; ``reference_repairer``
freezes the version that recounted the hypergraph on every question.
Both run on the same input with fresh oracles and must agree on the
edits, the ``(kind, cost, detail)`` question log, the inferred and free
deletions, the applied updates and the final database — on arbitrary
violation hypergraphs (duplicate edges, singletons, pre-known facts,
updates on and off, a cost budget that runs out mid-repair) and on the
CSV noise round trip of ``tests/test_ingest.py``.
"""

from __future__ import annotations

import copy
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_repairer import ReferenceRepairer
from repro.constraints import FD, OracleRepairer, RepairBudget, Violation
from repro.constraints.repairer import RepairReport
from repro.db.database import Database
from repro.db.schema import RelationSchema, Schema
from repro.db.tuples import Fact, fact
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from test_optimal_repair import FDS, ROUND_TRIPS, noisy_pair

SCHEMA = Schema([RelationSchema("r", ("k", "v"))])
FACTS = st.builds(
    lambda k, v: fact("r", k, v),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=3),
)


def log_of(oracle: AccountingOracle) -> list[tuple]:
    return [(r.kind, r.cost, r.detail) for r in oracle.log.records]


def outcome(report: RepairReport, oracle: AccountingOracle, db: Database, relation: str) -> dict:
    return {
        "edits": [(e.kind, e.fact) for e in report.edits],
        "log": log_of(oracle),
        "inferred": report.inferred,
        "free_deletions": report.free_deletions,
        "updates_applied": report.updates_applied,
        "converged": report.converged,
        "consistent": report.consistent,
        "rounds": report.rounds,
        "database": sorted(db.facts(relation)),
    }


@st.composite
def hypergraphs(draw):
    """Violations over ``r(k, v)``: pairs carrying an RHS column (some
    pairs twice, with different columns), singletons and triples."""
    violations = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        facts = frozenset(draw(st.lists(FACTS, min_size=1, max_size=3)))
        position = draw(st.sampled_from([None, 0, 1])) if len(facts) == 2 else None
        violations.append(Violation("c", facts, rhs_position=position))
    if violations and draw(st.booleans()):
        violations.append(draw(st.sampled_from(violations)))  # a duplicate edge
    return violations


class TestResolveAgreesWithRecount:
    @settings(max_examples=120, deadline=None)
    @given(
        violations=hypergraphs(),
        truth=st.sets(FACTS),
        known=st.sets(FACTS),
        updates=st.booleans(),
        max_cost=st.none() | st.integers(min_value=0, max_value=6),
    )
    def test_same_decisions(self, violations, truth, known, updates, max_cost):
        involved = {f for v in violations for f in v.facts}
        truth_db = Database(SCHEMA, truth)
        budget = None if max_cost is None else RepairBudget(max_cost=max_cost)
        results = []
        for cls in (OracleRepairer, ReferenceRepairer):
            db = Database(SCHEMA, involved)
            oracle = AccountingOracle(PerfectOracle(truth_db))
            for f in sorted(known & involved):
                oracle.remember_fact(f, f in truth)
            repairer = cls(db, oracle, FD("r", ("k",), ("v",)), updates=updates, budget=budget)
            report = RepairReport("differential")
            repairer._resolve(violations, report, oracle.log.total_cost, time.perf_counter())
            results.append(outcome(report, oracle, db, "r"))
        assert results[0] == results[1]


def run_both(truth: Database, dirty: Database, **options) -> list[dict]:
    results = []
    for cls in (OracleRepairer, ReferenceRepairer):
        db = copy.deepcopy(dirty)
        oracle = AccountingOracle(PerfectOracle(truth))
        report = cls(db, oracle, FDS, **options).run()
        results.append(outcome(report, oracle, db, "t"))
    return results


class TestRunAgreesWithRecount:
    @settings(max_examples=30, deadline=None)
    @given(
        updates=st.booleans(),
        max_cost=st.none() | st.integers(min_value=0, max_value=8),
        **ROUND_TRIPS,
    )
    def test_noise_round_trip(self, n, seed, picks, updates, max_cost):
        truth, dirty = noisy_pair(n, seed, picks)
        budget = None if max_cost is None else RepairBudget(max_cost=max_cost)
        new, reference = run_both(truth, dirty, updates=updates, budget=budget)
        assert new == reference

    def test_update_repair_log(self):
        """The value-update case of ``tests/test_constraint_repair.py``."""
        schema = Schema([RelationSchema("games", ("date", "winner", "result"))])
        clean = [("1998-07-12", "FRA", "3-0"), ("2002-06-30", "BRA", "2-0"),
                 ("2006-07-09", "ITA", "1-1")]
        truth = Database(schema, [Fact("games", row) for row in
                                  clean + [("1998-07-12", "FRA", "2-1")]])
        dirty = Database(schema, [Fact("games", row) for row in
                                  clean + [("1998-07-12", "BRA", "2-1")]])
        results = []
        for cls in (OracleRepairer, ReferenceRepairer):
            db = copy.deepcopy(dirty)
            oracle = AccountingOracle(PerfectOracle(truth))
            report = cls(db, oracle, "games: date -> winner", updates=True).run()
            results.append((log_of(oracle), [(e.kind, e.fact) for e in report.edits], db == truth))
        assert results[0] == results[1]
        assert results[0][2] and results[0][0]
