"""An optimal subset repair bounds every deletion repair from below.

For a set of FDs sharing one left-hand side X, Livshits, Kimelfeld and
Roy ("Computing Optimal Repairs for Functional Dependencies") show the
optimal subset repair is polynomial: conflicts never cross X-blocks, so
each block independently keeps its largest group of facts agreeing on
every right-hand side, and deletes the rest.  Here that algorithm is a
test oracle.  On the CSV noise round trip of ``tests/test_ingest.py``,
every deletion-only repairer — oracle-guided with updates off, greedy
and exhaustive — must reach a consistent database and delete at least
the optimum.  On small instances the optimum is also checked against
the exact minimum hitting set of the violation hypergraph.
"""

from __future__ import annotations

import copy
from collections import Counter, defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import find_violations, parse_fd, repair, satisfies, violation_hypergraph
from repro.db.database import Database
from repro.db.edits import EditKind
from repro.db.tuples import Fact
from repro.hitting.hitting_set import exact_minimum_hitting_set
from repro.ingest import NoisePipeline, load_table
from repro.oracle.perfect import PerfectOracle
from test_ingest import FDS, HEADER, MODEL_BUILDERS, clean_rows


def optimal_s_repair(db: Database, fds: list[str]) -> set[Fact]:
    """The facts an optimal subset repair deletes, for FDs with one
    common left-hand side (per block, all but the largest RHS group;
    equal groups go to the smallest RHS values, so the result is
    deterministic)."""
    parsed = [parse_fd(text) for text in fds]
    relation = parsed[0].relation
    lhs, _ = parsed[0].positions(db.schema)
    rhs = sorted({p for fd in parsed for p in fd.positions(db.schema)[1]})
    assert all(fd.relation == relation and fd.positions(db.schema)[0] == lhs for fd in parsed)
    blocks: dict[tuple, list[Fact]] = defaultdict(list)
    for f in db.facts(relation):
        blocks[tuple(f.values[i] for i in lhs)].append(f)
    deleted: set[Fact] = set()
    for facts in blocks.values():
        groups = Counter(tuple(f.values[i] for i in rhs) for f in facts)
        keep = max(sorted(groups, key=repr), key=lambda g: groups[g])
        deleted |= {f for f in facts if tuple(f.values[i] for i in rhs) != keep}
    return deleted


def noisy_pair(n: int, seed: int, picks: list[int]) -> tuple[Database, Database]:
    """The ``tests/test_ingest.py`` round trip: *n* clean rows and their
    copy through the picked noise models, both loaded."""
    rows = clean_rows(n)
    truth, _ = load_table("t", HEADER, rows)
    dirty_rows = NoisePipeline(tuple(MODEL_BUILDERS[i]() for i in picks), seed=seed).apply(rows)
    dirty, _ = load_table("t", HEADER, dirty_rows)
    return truth, dirty


#: the hypothesis inputs of ``test_any_noise_stack_round_trips``
ROUND_TRIPS = {
    "n": st.integers(min_value=1, max_value=25),
    "seed": st.integers(min_value=0, max_value=2**31),
    "picks": st.lists(st.integers(min_value=0, max_value=len(MODEL_BUILDERS) - 1),
                      min_size=1, max_size=4),
}


class TestOptimalSRepair:
    def test_keeps_the_largest_agreeing_group(self):
        db, _ = load_table("t", HEADER, [
            ["d1", "a", "1"], ["d1", "a", "1x"], ["d1", "b", "2"],
            ["d2", "c", "3"],
        ])
        db2, _ = load_table("t", ["day", "team", "score", "note"], [
            ["d1", "a", "1", "p"], ["d1", "a", "1", "q"], ["d1", "b", "2", "r"],
        ])
        assert len(optimal_s_repair(db, FDS)) == 2  # three groups of one
        assert {f.values[3] for f in optimal_s_repair(db2, FDS)} == {"r"}

    @settings(max_examples=25, deadline=None)
    @given(**ROUND_TRIPS)
    def test_is_a_minimum_deletion_repair(self, n, seed, picks):
        _, dirty = noisy_pair(n, seed, picks)
        deleted = optimal_s_repair(dirty, FDS)
        kept = copy.deepcopy(dirty)
        for f in deleted:
            kept.delete(f)
        assert satisfies(kept, FDS)
        edges = violation_hypergraph(find_violations(dirty, FDS))
        assert len(deleted) == len(exact_minimum_hitting_set(edges))


class TestRepairsDeleteAtLeastTheOptimum:
    @settings(max_examples=25, deadline=None)
    @given(strategy=st.sampled_from(["oracle", "greedy", "exhaustive"]), **ROUND_TRIPS)
    def test_deletion_repairs(self, strategy, n, seed, picks):
        truth, dirty = noisy_pair(n, seed, picks)
        optimum = len(optimal_s_repair(dirty, FDS))
        report = repair(dirty, FDS, PerfectOracle(truth), strategy=strategy)
        assert report.consistent
        assert satisfies(dirty, FDS)
        assert all(e.kind is EditKind.DELETE for e in report.edits)
        assert len(report.edits) >= optimum
