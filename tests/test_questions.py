"""Unit tests for interaction logging, cost accounting and the one
question format every layer shares (``repro.oracle.questions``)."""

import json
import random
import threading
import time

import pytest

from repro.datasets.figure1 import figure1_ground_truth
from repro.datasets.worldcup import worldcup_database
from repro.db.tuples import fact
from repro.dispatch import DispatchEngine, WorkerPool
from repro.dispatch.dedup import AnswerBoard
from repro.dispatch.policy import RetryPolicy
from repro.oracle.base import AccountingOracle
from repro.oracle.perfect import PerfectOracle
from repro.oracle.questions import (
    CATEGORY_FILL_MISSING,
    CATEGORY_VERIFY_ANSWERS,
    CATEGORY_VERIFY_TUPLES,
    CLOSED_KINDS,
    OPEN_KINDS,
    InteractionLog,
    QuestionKind,
    ask,
    category_of,
    check_reply,
    question_cost,
    question_detail,
    question_key,
)
from repro.query.ast import Var
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.server.sharing import SharedOracle
from repro.service.broker import BrokeredOracle, QuestionBroker
from repro.service.client import answer_question
from repro.shard import wire
from repro.shard.partition import PartitionSpec
from repro.shard.router import QuestionRouter
from repro.shard.worker import ProxyOracle
from repro.workloads import EX1


class TestCategories:
    def test_kinds_partition(self):
        assert CLOSED_KINDS | OPEN_KINDS == set(QuestionKind)
        assert not CLOSED_KINDS & OPEN_KINDS

    def test_category_mapping(self):
        assert category_of(QuestionKind.VERIFY_ANSWER) == CATEGORY_VERIFY_ANSWERS
        assert category_of(QuestionKind.VERIFY_FACT) == CATEGORY_VERIFY_TUPLES
        assert category_of(QuestionKind.VERIFY_CANDIDATE) == CATEGORY_VERIFY_TUPLES
        assert category_of(QuestionKind.COMPLETE_ASSIGNMENT) == CATEGORY_FILL_MISSING
        assert category_of(QuestionKind.COMPLETE_RESULT) == CATEGORY_FILL_MISSING


class TestInteractionLog:
    def test_totals(self):
        log = InteractionLog()
        log.record(QuestionKind.VERIFY_FACT, 1)
        log.record(QuestionKind.COMPLETE_ASSIGNMENT, 4)
        assert log.question_count == 2
        assert log.total_cost == 5
        assert log.closed_cost == 1
        assert log.open_cost == 4

    def test_cost_and_count_of(self):
        log = InteractionLog()
        log.record(QuestionKind.VERIFY_FACT, 1)
        log.record(QuestionKind.VERIFY_FACT, 1)
        log.record(QuestionKind.VERIFY_ANSWER, 1)
        assert log.cost_of([QuestionKind.VERIFY_FACT]) == 2
        assert log.count_of([QuestionKind.VERIFY_FACT]) == 2
        assert log.count_of([QuestionKind.VERIFY_ANSWER]) == 1

    def test_negative_cost_rejected(self):
        log = InteractionLog()
        with pytest.raises(ValueError):
            log.record(QuestionKind.VERIFY_FACT, -1)

    def test_category_costs(self):
        log = InteractionLog()
        log.record(QuestionKind.VERIFY_ANSWER, 1)
        log.record(QuestionKind.VERIFY_CANDIDATE, 1)
        log.record(QuestionKind.COMPLETE_RESULT, 2)
        assert log.category_costs() == {
            CATEGORY_VERIFY_ANSWERS: 1,
            CATEGORY_VERIFY_TUPLES: 1,
            CATEGORY_FILL_MISSING: 2,
        }

    def test_snapshot_measures_delta(self):
        log = InteractionLog()
        log.record(QuestionKind.VERIFY_FACT, 1)
        snap = log.snapshot()
        log.record(QuestionKind.VERIFY_FACT, 1)
        log.record(QuestionKind.COMPLETE_ASSIGNMENT, 3)
        assert snap.total_cost == 4
        assert snap.question_count == 2
        assert snap.cost_of([QuestionKind.VERIFY_FACT]) == 1

    def test_merge(self):
        a, b = InteractionLog(), InteractionLog()
        a.record(QuestionKind.VERIFY_FACT, 1)
        b.record(QuestionKind.VERIFY_ANSWER, 1)
        a.merge(b)
        assert a.question_count == 2


X = Var("x")


class TestRequestFunctions:
    def test_ask_calls_the_method_of_the_kind(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        assert ask(oracle, ("verify_answer", EX1, ("GER",))) is True
        assert oracle.log.count_of([QuestionKind.VERIFY_ANSWER]) == 1

    def test_ask_remember_records_a_free_inference(self, fig1_gt):
        oracle = AccountingOracle(PerfectOracle(fig1_gt))
        esp = fact("teams", "ESP", "EU")
        assert ask(oracle, ("remember", esp, False)) is None
        assert oracle.known_fact_value(esp) is False
        assert oracle.log.question_count == 0

    def test_ask_rejects_unknown_kinds(self, fig1_gt):
        with pytest.raises(ValueError, match="unknown request"):
            ask(PerfectOracle(fig1_gt), ("complete", EX1, {}))

    def test_costs_follow_section_7(self):
        assert question_cost(("verify_fact", fact("teams", "ESP", "EU")), True) == 1
        assert question_cost(("verify_facts", []), {}) == 1
        assert question_cost(("complete_result", EX1, []), ("GER",)) == 1
        assert question_cost(("complete_assignment", EX1, {}), None) == 1
        full = {Var(v): 0 for v in ("d1", "d2", "x", "y", "z", "u1", "u2")}
        assert question_cost(("complete_assignment", EX1, {X: 0}), full) == 6

    def test_details(self):
        esp = fact("teams", "ESP", "EU")
        assert question_detail(("verify_fact", esp)) == str(esp)
        assert question_detail(("verify_facts", [esp, esp])) == "2 facts"
        assert question_detail(("verify_answer", EX1, ("GER",))) == "ex1('GER',)"
        assert question_detail(("verify_candidate", EX1, {})) == "ex1"
        assert question_detail(("complete_result", EX1, [])) == "ex1"

    def test_check_reply(self):
        esp, bra = fact("teams", "ESP", "EU"), fact("teams", "BRA", "EU")
        check_reply(("verify_fact", esp), False)
        check_reply(("verify_facts", [esp, bra]), {esp: True, bra: False})
        check_reply(("complete_result", EX1, []), None)
        for request, reply in [
            (("verify_fact", esp), None),
            (("verify_answer", EX1, ("GER",)), 1),
            (("verify_candidate", EX1, {}), "yes"),
            (("verify_facts", [esp, bra]), None),
            (("verify_facts", [esp, bra]), {esp: True}),
            (("verify_facts", [esp]), {esp: True, bra: True}),
            (("verify_facts", [esp]), {esp: None}),
        ]:
            with pytest.raises(ValueError):
                check_reply(request, reply)


# ---------------------------------------------------------------------------
# one question, every path
# ---------------------------------------------------------------------------
def _requests(truth):
    """One request of each kind over *truth* (true and false verdicts),
    then repeats of the cached kinds, which must cost nothing."""
    answers = sorted(evaluate(EX1, truth))
    home = sorted(truth.facts("teams"), key=repr)[0]
    nowhere = fact("teams", home.values[0], "nowhere")
    requests = [
        ("verify_facts", [home, nowhere]),
        ("verify_fact", home),
        ("verify_answer", EX1, answers[0]),
        ("verify_answer", EX1, ("nowhere",)),
        ("verify_candidate", EX1, {X: answers[0][0]}),
        ("complete_assignment", EX1, {X: answers[0][0]}),
        ("complete_assignment", EX1, {X: "nowhere"}),
        ("complete_result", EX1, answers[:1]),
        ("complete_result", EX1, answers),
    ]
    return requests + [("verify_fact", nowhere), ("verify_answer", EX1, answers[0])]


def _by_method(truth, requests):
    oracle = AccountingOracle(PerfectOracle(truth))
    return [getattr(oracle, r[0])(*r[1:]) for r in requests], oracle


def _by_ask(truth, requests):
    oracle = AccountingOracle(PerfectOracle(truth))
    return [ask(oracle, r) for r in requests], oracle


def _by_engine(truth, requests):
    oracle = AccountingOracle(PerfectOracle(truth))
    engine = DispatchEngine(
        WorkerPool([PerfectOracle(truth)]),
        latency=lambda rng: 1.0,
        rng=random.Random(0),
    ).bind(oracle)
    return [engine.resolve_round([r])[0] for r in requests], oracle


def _by_router(truth, requests):
    router = QuestionRouter(PerfectOracle(truth), PartitionSpec(()), 1)
    router.session_query = EX1
    oracle = AccountingOracle(
        ProxyOracle(lambda obj: router.answer(0, obj), session_query=EX1)
    )
    return [ask(oracle, r) for r in requests], oracle


def _by_board(truth, requests):
    oracle = SharedOracle(PerfectOracle(truth), AnswerBoard())
    replies = [ask(oracle, r) for r in requests]
    # the board holds the verdicts the backend gave, under their keys
    asked = {question_key(q): reply for q, reply in zip(requests, replies)}
    entries = oracle.board.entries()
    assert entries and all(asked[key] == value for key, value in entries)
    return replies, oracle


def _by_broker(truth, requests):
    broker = QuestionBroker(policy=RetryPolicy(timeout=30.0))
    oracle = AccountingOracle(BrokeredOracle(broker))
    member = PerfectOracle(truth)
    replies: list = []
    session = threading.Thread(
        target=lambda: replies.extend(ask(oracle, r) for r in requests),
        daemon=True,
    )
    session.start()
    deadline = time.monotonic() + 60.0
    while session.is_alive() and time.monotonic() < deadline:
        lease = broker.lease("w0", 0.0)
        if lease is None:
            time.sleep(0.001)
            continue
        question = wire.question_from_obj(lease["question"])
        reply = answer_question(member, question)
        value = wire.reply_from_obj(question[0], reply)
        assert broker.answer("w0", lease["qid"], value, 0.0)["status"] == "accepted"
    session.join(5)
    assert not session.is_alive() and len(replies) == len(requests)
    return replies, oracle


PATHS = {
    "ask": _by_ask,
    "engine": _by_engine,
    "router": _by_router,
    "board": _by_board,
    "broker": _by_broker,
}


@pytest.fixture(scope="module", params=["fig1", "worldcup"])
def truth(request):
    return figure1_ground_truth() if request.param == "fig1" else worldcup_database()


class TestOneQuestionEveryPath:
    """Every front end answers, prices, logs and caches a request alike."""

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_path_matches_the_accounting_oracle(self, truth, path):
        requests = _requests(truth)
        expected, reference = _by_method(truth, requests)
        replies, oracle = PATHS[path](truth, requests)
        assert replies == expected
        assert [(r.kind, r.cost, r.detail) for r in oracle.log.records] == [
            (r.kind, r.cost, r.detail) for r in reference.log.records
        ]
        assert oracle._cache == reference._cache

    def test_the_reference_run(self, truth):
        requests = _requests(truth)
        replies, oracle = _by_method(truth, requests)
        home, nowhere = requests[0][1]
        assert replies[:4] == [{home: True, nowhere: False}, True, True, False]
        assert replies[6] is None and replies[8] is None
        # the composite answered both facts; every repeat was free
        assert oracle.log.question_count == len(requests) - 3
        assert len(oracle._cache) == 4
        # a composite re-asks only the facts it does not know yet
        assert oracle.verify_facts([home, fact("teams", "x", "y")]) == {
            home: True, fact("teams", "x", "y"): False
        }
        assert oracle.log.records[-1].detail == "1 facts"


# ---------------------------------------------------------------------------
# pinned wire format (the service feed and the shard pipe)
# ---------------------------------------------------------------------------
FINALS = parse_query('finals(x) :- games(d, x, y, "Final", u), teams(x, "EU").')
ESP, BRA = fact("teams", "ESP", "EU"), fact("teams", "BRA", "EU")
_FINALS_JSON = (
    '{"name": "finals", "head": [{"$var": "x"}], "atoms": [{"relation": '
    '"games", "terms": [{"$var": "d"}, {"$var": "x"}, {"$var": "y"}, "Final", '
    '{"$var": "u"}]}, {"relation": "teams", "terms": [{"$var": "x"}, "EU"]}], '
    '"inequalities": [], "negated": []}'
)
_ESP_JSON = '{"relation": "teams", "values": ["ESP", "EU"]}'
_BRA_JSON = '{"relation": "teams", "values": ["BRA", "EU"]}'

#: request, its JSON with and without the session marker, a reply, its JSON
PINNED = [
    (
        ("verify_fact", ESP),
        '{"kind": "verify_fact", "fact": ' + _ESP_JSON + "}",
        None,
        True,
        '{"value": true}',
    ),
    (
        ("verify_facts", [ESP, BRA]),
        '{"kind": "verify_facts", "facts": [' + _ESP_JSON + ", " + _BRA_JSON + "]}",
        None,
        {ESP: True, BRA: False},
        '{"value": [[' + _ESP_JSON + ", true], [" + _BRA_JSON + ", false]]}",
    ),
    (
        ("verify_answer", FINALS, ("ESP",)),
        '{"kind": "verify_answer", "query": ' + _FINALS_JSON + ', "answer": ["ESP"]}',
        '{"kind": "verify_answer", "query": "@session", "answer": ["ESP"]}',
        False,
        '{"value": false}',
    ),
    (
        ("verify_candidate", FINALS, {X: "ITA"}),
        '{"kind": "verify_candidate", "query": ' + _FINALS_JSON
        + ', "partial": [["x", "ITA"]]}',
        '{"kind": "verify_candidate", "query": "@session", "partial": [["x", "ITA"]]}',
        True,
        '{"value": true}',
    ),
    (
        ("complete_assignment", FINALS, {X: "GER"}),
        '{"kind": "complete_assignment", "query": ' + _FINALS_JSON
        + ', "partial": [["x", "GER"]]}',
        '{"kind": "complete_assignment", "query": "@session", '
        '"partial": [["x", "GER"]]}',
        {X: "GER", Var("d"): "08.07.1990", Var("y"): "ARG", Var("u"): "1:0"},
        '{"value": [["d", "08.07.1990"], ["u", "1:0"], ["x", "GER"], ["y", "ARG"]]}',
    ),
    (
        ("complete_assignment", FINALS, {X: "BRA"}),
        '{"kind": "complete_assignment", "query": ' + _FINALS_JSON
        + ', "partial": [["x", "BRA"]]}',
        '{"kind": "complete_assignment", "query": "@session", '
        '"partial": [["x", "BRA"]]}',
        None,
        '{"value": null}',
    ),
    (
        ("complete_result", FINALS, [("ITA",), ("GER",)]),
        '{"kind": "complete_result", "query": ' + _FINALS_JSON
        + ', "known": [["GER"], ["ITA"]]}',
        '{"kind": "complete_result", "query": "@session", "known": [["GER"], ["ITA"]]}',
        ("ESP",),
        '{"value": ["ESP"]}',
    ),
]


class TestPinnedWireFormat:
    """Byte-for-byte JSON of every question kind and its reply."""

    @pytest.mark.parametrize(
        "request_, plain, marked, reply, reply_json", PINNED,
        ids=[f"{row[0][0]}-{i}" for i, row in enumerate(PINNED)],
    )
    def test_json(self, request_, plain, marked, reply, reply_json):
        kind = request_[0]
        assert json.dumps(wire.question_to_obj(request_)) == plain
        if marked is not None:
            obj = wire.question_to_obj(request_, session_query=FINALS)
            assert json.dumps(obj) == marked
            assert wire.question_from_obj(obj, session_query=FINALS)[1] is FINALS
        decoded = wire.question_from_obj(json.loads(plain))
        assert decoded[0] == kind
        assert decoded[1:] == tuple(
            sorted(part, key=repr) if kind == "complete_result" and i == 1 else part
            for i, part in enumerate(request_[1:])
        )
        assert json.dumps(wire.reply_to_obj(kind, reply)) == reply_json
        assert wire.reply_from_obj(kind, json.loads(reply_json)) == reply

    def test_session_marker(self):
        assert wire.SESSION_QUERY == "@session"

    def test_unknown_kinds_do_not_encode_or_decode(self):
        with pytest.raises(ValueError, match="unknown question kind"):
            wire.question_to_obj(("remember", ESP, True))
        with pytest.raises(ValueError, match="unknown question kind"):
            wire.question_from_obj({"kind": "remember", "fact": json.loads(_ESP_JSON)})
