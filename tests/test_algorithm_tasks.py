"""Algorithms 1 and 2 are written once, as tasks.

The sequential wrappers (``crowd_remove_wrong_answer``,
``crowd_add_missing_answer``) drive the same generators the round
scheduler of the parallel loop advances, so both must ask the same
questions, in the same order, and derive the same edits.
"""

import random

import pytest

from repro.core.deletion import crowd_remove_wrong_answer, removal_task
from repro.core.insertion import (
    InsertionConfig,
    crowd_add_missing_answer,
    insertion_task,
)
from repro.core.parallel import ParallelQOCO, RoundScheduler
from repro.core.registry import REGISTRY
from repro.datasets.noise import inject_result_errors
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.query.evaluator import Evaluator
from repro.workloads import EX1, Q2, Q3

NOISE_SEED = 288545019


def _log(oracle):
    return [(r.kind, r.cost, r.detail) for r in oracle.log.records]


def _edits(edits):
    return [(e.kind, e.fact) for e in edits]


@pytest.fixture(scope="module")
def cases(request):
    """(query, dirty database, ground truth, wrong answers, missing answers)."""
    from repro.datasets.figure1 import figure1_dirty, figure1_ground_truth

    worldcup = request.getfixturevalue("worldcup_gt")
    result = [(EX1, figure1_dirty(), figure1_ground_truth(), [("ESP",)], [("ITA",)])]
    for query in (Q2, Q3):
        errors = inject_result_errors(
            worldcup, query, 3, 3, rng=random.Random(NOISE_SEED)
        )
        result.append(
            (
                query,
                errors.dirty,
                worldcup,
                sorted(errors.wrong_answers, key=repr),
                sorted(errors.missing_answers, key=repr),
            )
        )
    return result


def _primed(truth, facts):
    """An accounting oracle that already knows the answers for *facts*,
    so the tasks' knowledge pruning has something to prune."""
    oracle = AccountingOracle(PerfectOracle(truth))
    for fact in facts:
        oracle.remember_fact(fact, fact in truth)
    return oracle


@pytest.mark.parametrize("deletion", REGISTRY.names("deletion"))
def test_removal_task_matches_sequential_wrapper(cases, deletion):
    for query, dirty, truth, wrong, _missing in cases:
        for answer in wrong:
            witnesses = [
                frozenset(w) for w in Evaluator(query, dirty).witnesses(answer)
            ]
            # prime one fact of every other witness: exercises pruning
            known = [sorted(w, key=repr)[0] for w in witnesses[::2]]

            sequential = _primed(truth, known)
            expected = crowd_remove_wrong_answer(
                query, dirty, answer, sequential,
                strategy=REGISTRY.resolve("deletion", deletion),
                rng=random.Random(5), apply=False, witnesses=witnesses,
            )

            parallel = _primed(truth, known)
            (edits,) = RoundScheduler(parallel).run(
                [
                    removal_task(
                        witnesses,
                        REGISTRY.resolve("deletion", deletion),
                        random.Random(5),
                        parallel.known_fact_value,
                    )
                ]
            )
            assert _edits(edits) == _edits(expected), (query.name, answer)
            assert _log(parallel) == _log(sequential), (query.name, answer)


@pytest.mark.parametrize("split", REGISTRY.names("split"))
def test_insertion_task_matches_sequential_wrapper(cases, split):
    for query, dirty, truth, _wrong, missing in cases:
        for answer in missing:
            sequential_db = dirty.copy()
            sequential = AccountingOracle(PerfectOracle(truth))
            expected = crowd_add_missing_answer(
                query, sequential_db, answer, sequential,
                split=REGISTRY.resolve("split", split),
                rng=random.Random(5), config=InsertionConfig(),
            )

            parallel_db = dirty.copy()
            parallel = AccountingOracle(PerfectOracle(truth))
            (edits,) = RoundScheduler(parallel).run(
                [
                    insertion_task(
                        query, parallel_db, answer,
                        REGISTRY.resolve("split", split),
                        random.Random(5), InsertionConfig(),
                    )
                ]
            )
            assert _edits(edits) == _edits(expected), (query.name, answer)
            assert _log(parallel) == _log(sequential), (query.name, answer)


def test_parallel_loop_honours_deletion_strategy(worldcup_gt):
    errors = inject_result_errors(
        worldcup_gt, Q2, 5, 5, rng=random.Random(NOISE_SEED)
    )
    logs = {}
    for deletion in ("qoco", "random"):
        oracle = AccountingOracle(PerfectOracle(worldcup_gt))
        ParallelQOCO(
            errors.dirty.copy(), oracle, seed=NOISE_SEED, deletion=deletion
        ).clean(Q2)
        logs[deletion] = _log(oracle)
    assert logs["random"] != logs["qoco"]
