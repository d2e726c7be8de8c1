"""Direct tests for small helpers exercised only indirectly elsewhere."""

import pytest

from repro.db.database import Database
from repro.db.schema import Schema
from repro.db.tuples import fact
from repro.core.registry import RegistryError
from repro.experiments.harness import make_split, make_strategy
from repro.query.ast import Atom, Var, is_var, term_str
from repro.query.evaluator import atom_pattern, negated_match_exists
from repro.query.planner import PlanExplanation


class TestTermHelpers:
    def test_is_var(self):
        assert is_var(Var("x"))
        assert not is_var("constant")
        assert not is_var(42)

    def test_term_str(self):
        assert term_str(Var("x")) == "x"
        assert term_str("EU") == '"EU"'
        assert term_str(1992) == "1992"
        assert term_str(4.5) == "4.5"


class TestAtomPattern:
    def test_mixes_constants_and_bindings(self):
        atom = Atom("r", (Var("x"), "c", Var("y")))
        pattern = atom_pattern(atom, {Var("x"): 1})
        assert pattern == [1, "c", None]

    def test_all_unbound(self):
        atom = Atom("r", (Var("x"), Var("y")))
        assert atom_pattern(atom, {}) == [None, None]


class TestNegatedMatchExists:
    @pytest.fixture
    def db(self):
        schema = Schema.from_dict({"r": ["a", "b"]})
        return Database(schema, [fact("r", 1, 2), fact("r", 3, 3)])

    def test_bound_match(self, db):
        atom = Atom("r", (Var("x"), Var("y")))
        assert negated_match_exists(atom, {Var("x"): 1, Var("y"): 2}, db)
        assert not negated_match_exists(atom, {Var("x"): 1, Var("y"): 9}, db)

    def test_wildcard_match(self, db):
        atom = Atom("r", (Var("x"), Var("w")))
        assert negated_match_exists(atom, {Var("x"): 1}, db)  # w wildcard
        assert not negated_match_exists(atom, {Var("x"): 9}, db)

    def test_repeated_wildcard_consistency(self, db):
        atom = Atom("r", (Var("w"), Var("w")))
        assert negated_match_exists(atom, {}, db)  # r(3, 3) matches
        db.delete(fact("r", 3, 3))
        assert not negated_match_exists(atom, {}, db)


class TestHarnessFactories:
    def test_make_strategy(self):
        assert make_strategy("QOCO").name == "QOCO"
        assert make_strategy("Random").name == "Random"
        with pytest.raises(RegistryError):
            make_strategy("nope")

    def test_make_split(self):
        assert make_split("Provenance").name == "Provenance"
        assert make_split("Naive").name == "Naive"
        with pytest.raises(RegistryError):
            make_split("nope")


class TestPlanExplanation:
    def test_render(self):
        from repro.query.parser import parse_query

        q = parse_query("q(a) :- r(a, b), s(b).")
        explanation = PlanExplanation(order=(1, 0), estimates=(2.0, 8.0))
        text = explanation.render(q)
        assert "1. s(b)" in text
        assert "est. 2.0" in text
