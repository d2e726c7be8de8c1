"""Soccer database cleaning at the paper's scale (~5000 tuples).

Generates the World Cup ground truth, dirties it with controlled noise
(80% cleanliness by default), and cleans two of the paper's evaluation
queries with each deletion strategy — printing the question-count
comparison that Figure 3 plots.

Run with::

    python examples/soccer_cleaning.py [cleanliness]
"""

import random
import sys

from repro import AccountingOracle, PerfectOracle, QOCO, QOCOConfig, evaluate
from repro.core import QOCODeletion, QOCOMinusDeletion, RandomDeletion
from repro.datasets import NoiseSpec, make_dirty, worldcup_database
from repro.datasets.noise import measure_cleanliness
from repro.experiments.reporting import render_table
from repro.workloads import Q1, Q3


def main() -> None:
    cleanliness = float(sys.argv[1]) if len(sys.argv) > 1 else 0.8
    print(f"Generating World Cup ground truth and a {cleanliness:.0%}-clean copy...")
    ground_truth = worldcup_database()
    protected = set(ground_truth.facts("stages"))
    dirty_master = make_dirty(
        ground_truth,
        NoiseSpec(cleanliness=cleanliness, skewness=0.5),
        random.Random(7),
        protected=protected,
    )
    print(
        f"  |D_G| = {len(ground_truth)}, |D| = {len(dirty_master)}, "
        f"measured cleanliness = {measure_cleanliness(dirty_master, ground_truth):.2%}"
    )

    rows = []
    for query in (Q1, Q3):
        wrong = evaluate(query, dirty_master) - evaluate(query, ground_truth)
        missing = evaluate(query, ground_truth) - evaluate(query, dirty_master)
        print(
            f"\n{query.name}: {len(wrong)} wrong and {len(missing)} missing "
            f"answers in the dirty result"
        )
        for strategy in (QOCODeletion(), QOCOMinusDeletion(), RandomDeletion()):
            dirty = dirty_master.copy()
            oracle = AccountingOracle(PerfectOracle(ground_truth))
            config = QOCOConfig(deletion=strategy, seed=7, max_iterations=20)
            report = QOCO(dirty, oracle, config).clean(query)
            assert evaluate(query, dirty) == evaluate(query, ground_truth)
            rows.append(
                (
                    query.name,
                    strategy.name,
                    len(report.wrong_answers_removed),
                    len(report.missing_answers_added),
                    oracle.log.question_count,
                    oracle.log.total_cost,
                )
            )

    print("\n" + render_table(
        ["query", "strategy", "wrong fixed", "missing fixed", "questions", "cost"],
        rows,
    ))
    print("\nAll strategies converge; QOCO asks the fewest questions.")


if __name__ == "__main__":
    main()
