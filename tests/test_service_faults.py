"""Dispatch under network-shaped faults (ISSUE 8, satellite 3).

Three hostile-client shapes against the live service:

* **slow-loris** — a connection that dribbles (or stalls) its request
  head/body must be dropped with 408 after the read timeout instead of
  pinning a connection slot;
* **duplicate answer POSTs** — at-least-once delivery: a replayed
  answer is acknowledged (``duplicate`` / ``stale``) without double
  counting the vote;
* **worker reconnect after timeout** — a worker that leases a question
  and vanishes costs one lease expiry; after reconnecting it (or a
  peer) re-leases the question and the session still converges at the
  in-process question cost;
* **malformed replies** — a reply that does not fit its question (a
  ``null`` vote, a composite verdict missing an asked fact) is refused
  with 400 instead of counting as a vote.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.db.tuples import fact
from repro.dispatch.policy import RetryPolicy
from repro.oracle.perfect import PerfectOracle
from repro.server.manager import SessionManager
from repro.service.broker import BrokeredOracle, QuestionBroker
from repro.service.client import (
    ServiceClient,
    ServiceError,
    WorkerClient,
    answer_question,
)
from repro.shard import wire
from service_harness import ServiceHarness

from repro.service.cli import build_workload
from test_service import in_process_baseline


def _recv_all(sock: socket.socket, timeout: float = 5.0) -> bytes:
    sock.settimeout(timeout)
    chunks = []
    try:
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
    except socket.timeout:
        pass
    return b"".join(chunks)


class TestSlowLoris:
    def _harness(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        return ServiceHarness(manager, read_timeout=0.5), workload

    def test_stalled_request_head_gets_408(self):
        harness, _ = self._harness()
        with harness:
            with socket.create_connection((harness.host, harness.port)) as sock:
                sock.sendall(b"GET /v1/healthz HT")  # ...and never finish
                data = _recv_all(sock, timeout=3.0)
            assert b"408" in data.split(b"\r\n", 1)[0]

    def test_stalled_request_body_gets_408(self):
        harness, _ = self._harness()
        with harness:
            with socket.create_connection((harness.host, harness.port)) as sock:
                head = (
                    b"POST /v1/sessions HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Type: application/json\r\n"
                    b"Content-Length: 500\r\n\r\n"
                )
                sock.sendall(head + b'{"tenant": "slow', )  # 484 bytes never come
                data = _recv_all(sock, timeout=3.0)
            assert b"408" in data.split(b"\r\n", 1)[0]

    def test_malformed_content_length_gets_400(self):
        harness, _ = self._harness()
        with harness:
            for bad in (b"abc", b"-5"):
                with socket.create_connection((harness.host, harness.port)) as sock:
                    sock.sendall(
                        b"POST /v1/worker/answer HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Length: " + bad + b"\r\n\r\n"
                    )
                    data = _recv_all(sock, timeout=3.0)
                assert b"400" in data.split(b"\r\n", 1)[0], data

    def test_dribbled_second_head_bounded_by_read_timeout_not_idle(self):
        # read_timeout=0.5 but idle_timeout keeps its 120 s default: a
        # keep-alive client that completes one request and then
        # dribbles the next head must be dropped on the *read* deadline
        harness, _ = self._harness()
        with harness:
            with socket.create_connection((harness.host, harness.port)) as sock:
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                sock.settimeout(5.0)
                first = sock.recv(4096)
                assert first.startswith(b"HTTP/1.1 200"), first
                sock.sendall(b"G")  # one byte of the next head, then stall
                start = time.monotonic()
                data = _recv_all(sock, timeout=10.0)
                elapsed = time.monotonic() - start
            assert b"408" in data.split(b"\r\n", 1)[0], data
            assert elapsed < 5.0, f"dribbled head held its slot for {elapsed:.1f}s"

    def test_server_stays_responsive_during_the_attack(self):
        harness, _ = self._harness()
        with harness:
            attackers = [
                socket.create_connection((harness.host, harness.port))
                for _ in range(8)
            ]
            try:
                for sock in attackers:
                    sock.sendall(b"GET /v1/stat")  # all stalled mid-head
                with ServiceClient(harness.host, harness.port) as client:
                    assert client.healthz()["role"] == "primary"
            finally:
                for sock in attackers:
                    sock.close()


class TestDuplicateAnswers:
    def test_replayed_answer_post_is_idempotent(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        oracle = PerfectOracle(workload.ground_truth)
        with ServiceHarness(manager) as harness:
            with ServiceClient(harness.host, harness.port) as client:
                client.open(workload.queries[0])
                # lease the first question by hand
                doc = client._http.request(
                    "GET", "/v1/worker/feed?worker=w0&wait=20"
                )
                lease = doc["question"]
                assert lease is not None
                reply = answer_question(
                    oracle, wire.question_from_obj(lease["question"])
                )
                payload = {"worker": "w0", "qid": lease["qid"], "reply": reply}
                first = client._http.request("POST", "/v1/worker/answer", payload)
                assert first["status"] == "accepted"
                # at-least-once redelivery: same worker, same qid
                second = client._http.request("POST", "/v1/worker/answer", payload)
                assert second["status"] == "duplicate"
                third = client._http.request("POST", "/v1/worker/answer", payload)
                assert third["status"] == "duplicate"
                stats = client.stats()["broker"]
                assert stats["duplicate_answers"] == 2
                # exactly one vote was counted
                assert stats["resolved"] == 1

    def test_answer_after_resolution_is_stale_not_counted(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        oracle = PerfectOracle(workload.ground_truth)
        with ServiceHarness(manager, votes_per_closed=1) as harness:
            with ServiceClient(harness.host, harness.port) as client:
                client.open(workload.queries[0])
                lease = client._http.request(
                    "GET", "/v1/worker/feed?worker=w0&wait=20"
                )["question"]
                reply = answer_question(
                    oracle, wire.question_from_obj(lease["question"])
                )
                accepted = client._http.request(
                    "POST", "/v1/worker/answer",
                    {"worker": "w0", "qid": lease["qid"], "reply": reply},
                )
                assert accepted["status"] == "accepted" and accepted["resolved"]
                # a different worker answering the already-resolved question
                stale = client._http.request(
                    "POST", "/v1/worker/answer",
                    {"worker": "w1", "qid": lease["qid"], "reply": reply},
                )
                assert stale["status"] == "stale"
                assert client.stats()["broker"]["stale_answers"] == 1

    def test_unknown_question_is_acknowledged_not_an_error(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        with ServiceHarness(manager) as harness:
            with ServiceClient(harness.host, harness.port) as client:
                doc = client._http.request(
                    "POST", "/v1/worker/answer",
                    {"worker": "w0", "qid": 424242, "reply": {"value": True}},
                )
                assert doc["status"] == "unknown"


class TestBrokerVoting:
    @pytest.mark.parametrize(
        "votes, verdict", [((True, False), False), ((True, False, True), True)]
    )
    def test_split_vote_resolves_false_like_the_engine(self, votes, verdict):
        # the dispatch engine and MajorityVote need a strict majority of
        # yes votes; a T/F split is "no" in the broker too
        broker = QuestionBroker(
            policy=RetryPolicy(timeout=30.0), votes_per_closed=len(votes)
        )
        question = broker.submit("verify_fact", {"i": 0}, None)
        for index, vote in enumerate(votes):
            outcome = broker.answer(f"w{index}", question.qid, vote, now=0.0)
            assert outcome["status"] == "accepted"
        assert outcome["resolved"]
        assert question.value is verdict


class TestBrokerBoundedMemory:
    """Resolved questions age out of a bounded tombstone window instead
    of accumulating (and being rescanned by every lease) forever."""

    def test_resolved_questions_prune_to_the_tombstone_window(self):
        broker = QuestionBroker(
            policy=RetryPolicy(timeout=30.0), tombstone_limit=4
        )
        qids = []
        for i in range(20):
            question = broker.submit("verify_fact", {"i": i}, None)
            outcome = broker.answer("w0", question.qid, True, now=0.0)
            assert outcome["status"] == "accepted"
            qids.append(question.qid)
        assert broker.pending_count() == 0
        # only the newest tombstone_limit resolutions are remembered
        assert len(broker._questions) == 4
        assert broker.stats()["resolved"] == 20

        # idempotency survives within the window...
        assert broker.answer("w0", qids[-1], True, 0.0)["status"] == "duplicate"
        assert broker.answer("w1", qids[-1], True, 0.0)["status"] == "stale"
        # ...and degrades to an acknowledged 'unknown' beyond it
        assert broker.answer("w0", qids[0], True, 0.0)["status"] == "unknown"

    def test_lease_scan_sees_pending_work_among_tombstones(self):
        broker = QuestionBroker(
            policy=RetryPolicy(timeout=30.0), tombstone_limit=2
        )
        for i in range(10):
            question = broker.submit("verify_fact", {"i": i}, None)
            broker.answer("w0", question.qid, True, now=0.0)
        live = broker.submit("verify_fact", {"i": "live"}, None)
        lease = broker.lease("w1", now=0.0)
        assert lease is not None and lease["qid"] == live.qid
        assert broker.stats()["pending"] == 1
    def test_vanished_worker_lease_expires_and_run_converges_at_parity(self):
        workload = build_workload("figure1")
        query = workload.queries[0]
        expected_digest, expected_cost = in_process_baseline(workload, query)

        manager = SessionManager(workload.dirty.copy(), mode="sync")
        policy = RetryPolicy(
            timeout=0.6, max_retries=5, backoff_base=0.05, backoff_factor=1.0
        )
        with ServiceHarness(manager, policy=policy, tick=0.1) as harness:
            oracle = PerfectOracle(workload.ground_truth)
            with ServiceClient(harness.host, harness.port) as client:
                client.open(query)
                # the worker leases the first question... and vanishes
                ghost_lease = client._http.request(
                    "GET", "/v1/worker/feed?worker=w0&wait=20"
                )["question"]
                assert ghost_lease is not None
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if client.stats()["broker"]["expired_leases"] >= 1:
                        break
                    time.sleep(0.1)
                assert client.stats()["broker"]["expired_leases"] >= 1

                # the same worker reconnects and behaves from now on
                worker = WorkerClient(harness.host, harness.port, "w0", oracle)
                worker.start_thread()
                try:
                    doc = client.wait(0, timeout=120.0)
                    digest = client.digest()["digest"]
                finally:
                    worker.stop()
                assert doc["state"] == "committed", doc
                assert doc["report"]["converged"] is True
                # the timeout cost a retry, never a wrong/extra answer:
                # digest and question cost match the in-process run
                assert digest == expected_digest
                assert doc["cost"] == expected_cost

    def test_reroute_prefers_a_fresh_worker_for_the_retry(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        policy = RetryPolicy(
            timeout=0.5, max_retries=4, backoff_base=0.05, backoff_factor=1.0,
            reroute=True,
        )
        with ServiceHarness(manager, policy=policy, tick=0.1) as harness:
            with ServiceClient(harness.host, harness.port) as client:
                client.open(workload.queries[0])
                ghost = client._http.request(
                    "GET", "/v1/worker/feed?worker=ghost&wait=20"
                )["question"]
                assert ghost is not None
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if client.stats()["broker"]["expired_leases"] >= 1:
                        break
                    time.sleep(0.1)
                # a fresh worker gets the retried question immediately...
                fresh = client._http.request(
                    "GET", "/v1/worker/feed?worker=fresh&wait=20"
                )["question"]
                assert fresh is not None
                assert fresh["qid"] == ghost["qid"]
                assert fresh["attempt"] > ghost["attempt"]
                oracle = PerfectOracle(workload.ground_truth)
                reply = answer_question(
                    oracle, wire.question_from_obj(fresh["question"])
                )
                client._http.request(
                    "POST", "/v1/worker/answer",
                    {"worker": "fresh", "qid": fresh["qid"], "reply": reply},
                )
                worker = WorkerClient(harness.host, harness.port, "fresh", oracle)
                worker.start_thread()
                try:
                    doc = client.wait(0, timeout=120.0)
                finally:
                    worker.stop()
                assert doc["state"] == "committed"


class TestMalformedReplies:
    """A worker reply is vetted against the question it answers."""

    ESP = fact("teams", "ESP", "EU")
    BRA = fact("teams", "BRA", "EU")

    def _ask_in_thread(self, broker, method, *args):
        result: dict = {}

        def run():
            try:
                result["value"] = getattr(BrokeredOracle(broker), method)(*args)
            except Exception as error:  # surfaced by the assertions
                result["error"] = error

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, result

    def _post(self, client, qid, reply):
        return client._http.request(
            "POST", "/v1/worker/answer", {"worker": "w0", "qid": qid, "reply": reply}
        )

    def _lease(self, client):
        lease = client._http.request("GET", "/v1/worker/feed?worker=w0&wait=20")
        assert lease["question"] is not None
        return lease["question"]

    def _service(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        return ServiceHarness(manager, votes_per_closed=1)

    def test_null_vote_is_refused_and_the_question_stays_open(self):
        with self._service() as harness:
            broker = harness.service.broker
            thread, result = self._ask_in_thread(broker, "verify_fact", self.ESP)
            with ServiceClient(harness.host, harness.port) as client:
                lease = self._lease(client)
                with pytest.raises(ServiceError) as refused:
                    self._post(client, lease["qid"], {"value": None})
                assert refused.value.status == 400
                assert broker.pending_count() == 1
                assert broker.stats()["resolved"] == 0
                outcome = self._post(client, lease["qid"], {"value": True})
                assert outcome == {"status": "accepted", "resolved": True}
            thread.join(10)
            assert not thread.is_alive()
        assert result == {"value": True}

    def test_composite_reply_missing_a_fact_is_refused(self):
        with self._service() as harness:
            broker = harness.service.broker
            thread, result = self._ask_in_thread(
                broker, "verify_facts", [self.ESP, self.BRA]
            )
            with ServiceClient(harness.host, harness.port) as client:
                lease = self._lease(client)
                partial = wire.reply_to_obj("verify_facts", {self.ESP: True})
                with pytest.raises(ServiceError) as refused:
                    self._post(client, lease["qid"], partial)
                assert refused.value.status == 400
                assert broker.pending_count() == 1
                full = wire.reply_to_obj(
                    "verify_facts", {self.ESP: True, self.BRA: False}
                )
                outcome = self._post(client, lease["qid"], full)
                assert outcome == {"status": "accepted", "resolved": True}
            thread.join(10)
            assert not thread.is_alive()
        assert result == {"value": {self.ESP: True, self.BRA: False}}
