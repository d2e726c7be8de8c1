"""Unit tests for cleaning reports (repro.core.report)."""

from repro.core.report import Report
from repro.db.edits import delete, insert
from repro.db.tuples import fact
from repro.oracle.questions import InteractionLog, QuestionKind


class TestCleaningReport:
    def test_edit_partition(self):
        report = Report(query_name="q")
        report.edits = [
            delete(fact("r", 1)),
            insert(fact("r", 2)),
            delete(fact("r", 3)),
        ]
        assert len(report.deletions) == 2
        assert len(report.insertions) == 1

    def test_total_cost_reflects_log(self):
        log = InteractionLog()
        log.record(QuestionKind.VERIFY_FACT, 1)
        log.record(QuestionKind.COMPLETE_ASSIGNMENT, 4)
        report = Report(query_name="q", log=log)
        assert report.total_cost == 5

    def test_summary_fields(self):
        report = Report(query_name="q")
        report.wrong_answers_removed = [("a",)]
        report.missing_answers_added = [("b",), ("c",)]
        report.edits = [delete(fact("r", 1)), insert(fact("r", 2))]
        report.iterations = 2
        text = report.summary()
        assert "q:" in text
        assert "1 wrong removed" in text
        assert "2 missing added" in text
        assert "1-/1+" in text
        assert "2 iteration" in text

    def test_defaults(self):
        report = Report(query_name="q")
        assert report.converged
        assert report.edits == []
        assert report.iterations == 0
        assert report.total_cost == 0
