"""Blocking clients for the crowd service (stdlib ``http.client`` only).

:class:`ServiceClient` is the tenant SDK — open a cleaning session, wait
for its commit (optionally for follower replication), read back the
report and the database digest.  :class:`WorkerClient` is a complete
crowd worker: it long-polls (or stream-tails) the question feed, answers
each question from a local :class:`~repro.oracle.base.Oracle` backend,
and POSTs replies idempotently, retrying through timeouts and
reconnects.

Both retry transient transport errors with a small backoff, so tests
can kill and promote servers under them.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Optional, Union

from ..durability import codec
from ..oracle.base import Oracle
from ..oracle.questions import ask
from ..query.ast import Query
from ..shard import wire


class ServiceError(RuntimeError):
    """A non-success response from the service."""

    def __init__(self, status: int, message: str, *, retry_after: Optional[float] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: parsed ``Retry-After`` seconds on 429/503 responses
        self.retry_after = retry_after


class _Http:
    """One keep-alive connection with JSON helpers and reconnects."""

    def __init__(self, host: str, port: int, *, timeout: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def request(self, method: str, path: str, payload: Any = None) -> dict:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            headers = {"Content-Type": "application/json"}
        for attempt in (1, 2):
            conn = self._connection()
            try:
                conn.request(method, path, body, headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                # a dropped keep-alive connection: reconnect once
                self.close()
                if attempt == 2:
                    raise
        document = json.loads(raw) if raw else {}
        if response.status >= 400:
            retry_after = response.headers.get("Retry-After")
            raise ServiceError(
                response.status,
                document.get("error", raw.decode("utf-8", "replace")),
                retry_after=float(retry_after) if retry_after else None,
            )
        return document


class ServiceClient:
    """The tenant-side SDK for one service endpoint."""

    def __init__(self, host: str, port: int, *, tenant: str = "default") -> None:
        self.tenant = tenant
        self._http = _Http(host, port)

    def close(self) -> None:
        self._http.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- sessions --------------------------------------------------------
    def open(
        self, query: Union[Query, str], *, tenant: Optional[str] = None,
        priority: Optional[float] = None,
    ) -> int:
        """Open (and start) one cleaning session; returns its id.

        ``priority`` weights this tenant in admission ordering and in
        the broker's capacity scheduler (when one is configured).

        Raises :class:`ServiceError` with ``status == 429`` when
        admission control sheds the request — honour ``retry_after``.
        """
        payload = {
            "tenant": tenant if tenant is not None else self.tenant,
            "query": query if isinstance(query, str) else codec.query_to_obj(query),
        }
        if priority is not None:
            payload["priority"] = priority
        return int(self._http.request("POST", "/v1/sessions", payload)["session"])

    def open_when_admitted(
        self, query: Union[Query, str], *, tenant: Optional[str] = None,
        priority: Optional[float] = None,
        deadline: float = 120.0,
    ) -> int:
        """Like :meth:`open`, but sleeps through 429s until admitted."""
        end = time.monotonic() + deadline
        while True:
            try:
                return self.open(query, tenant=tenant, priority=priority)
            except ServiceError as error:
                if error.status != 429 or time.monotonic() >= end:
                    raise
                time.sleep(error.retry_after or 0.2)

    def status(self, session_id: int) -> dict:
        return self._http.request("GET", f"/v1/sessions/{session_id}")

    def wait(
        self,
        session_id: int,
        *,
        timeout: float = 60.0,
        replicated: bool = False,
    ) -> dict:
        """Block until the session reaches a terminal state.

        With ``replicated=True`` the call also waits (within *timeout*)
        for the commit's WAL record to be acked by a follower; the
        returned document then carries ``replicated: true/false``.
        """
        end = time.monotonic() + timeout
        while True:
            slice_timeout = max(0.1, min(30.0, end - time.monotonic()))
            doc = self._http.request(
                "GET",
                f"/v1/sessions/{session_id}/wait?timeout={slice_timeout}"
                + ("&replicated=1" if replicated else ""),
            )
            if doc.get("done") or time.monotonic() >= end:
                return doc

    def abort(self, session_id: int) -> dict:
        return self._http.request("DELETE", f"/v1/sessions/{session_id}")

    def clean(
        self, query: Union[Query, str], *, timeout: float = 120.0,
        replicated: bool = False,
    ) -> dict:
        """Open + wait in one call; returns the terminal session doc."""
        return self.wait(
            self.open_when_admitted(query, deadline=timeout),
            timeout=timeout,
            replicated=replicated,
        )

    # -- observability ---------------------------------------------------
    def digest(self) -> dict:
        return self._http.request("GET", "/v1/digest")

    def stats(self) -> dict:
        return self._http.request("GET", "/v1/stats")

    def healthz(self) -> dict:
        return self._http.request("GET", "/v1/healthz")

    def promote(self) -> dict:
        """Promote a standby node to primary (see the failover runbook)."""
        return self._http.request("POST", "/v1/promote", {})


def answer_question(backend: Oracle, request: tuple) -> dict:
    """Answer one decoded question request with *backend*; returns the
    wire reply."""
    return wire.reply_to_obj(request[0], ask(backend, request))


class WorkerClient:
    """A crowd worker: lease → answer → POST, forever (or until stopped).

    *backend* supplies the answers (tests use
    :class:`~repro.oracle.perfect.PerfectOracle` over the ground truth;
    a real deployment would put a human or a model behind the same
    interface).
    """

    def __init__(
        self,
        host: str,
        port: int,
        worker_id: str,
        backend: Oracle,
        *,
        poll_wait: float = 10.0,
    ) -> None:
        self.host = host
        self.port = port
        self.worker_id = worker_id
        self.backend = backend
        self.poll_wait = poll_wait
        self.answered = 0
        self.duplicates = 0
        self._http = _Http(host, port, timeout=poll_wait + 30.0)
        self._stop = threading.Event()

    def stop(self) -> None:
        self._stop.set()

    def close(self) -> None:
        self.stop()
        self._http.close()

    # ------------------------------------------------------------------
    def answer(self, lease: dict) -> dict:
        """Answer one lease document and POST the reply."""
        request = wire.question_from_obj(lease["question"])
        reply = answer_question(self.backend, request)
        outcome = self._http.request(
            "POST",
            "/v1/worker/answer",
            {"worker": self.worker_id, "qid": lease["qid"], "reply": reply},
        )
        if outcome.get("status") == "accepted":
            self.answered += 1
        elif outcome.get("status") == "duplicate":
            self.duplicates += 1
        return outcome

    def poll_once(self) -> bool:
        """One long-poll iteration; True if a question was answered."""
        doc = self._http.request(
            "GET",
            f"/v1/worker/feed?worker={self.worker_id}&wait={self.poll_wait}",
        )
        lease = doc.get("question")
        if lease is None:
            return False
        self.answer(lease)
        return True

    def run(self) -> None:
        """Long-poll until :meth:`stop`; survives restarts/promotions."""
        while not self._stop.is_set():
            try:
                self.poll_once()
            except (ServiceError, codec.CodecError, ConnectionError, OSError,
                    http.client.HTTPException):
                if self._stop.wait(0.3):
                    return
                self._http.close()

    def run_stream(self) -> None:
        """Tail the chunked NDJSON feed instead of long-polling."""
        while not self._stop.is_set():
            conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
            try:
                conn.request("GET", f"/v1/worker/stream?worker={self.worker_id}")
                response = conn.getresponse()
                if response.status != 200:
                    raise ServiceError(response.status, "stream refused")
                while not self._stop.is_set():
                    line = response.readline()
                    if not line:
                        break
                    message = json.loads(line)
                    if "question" in message:
                        self.answer(message["question"])
            except (ServiceError, codec.CodecError, ConnectionError, OSError,
                    http.client.HTTPException, json.JSONDecodeError):
                if self._stop.wait(0.3):
                    return
            finally:
                conn.close()

    def start_thread(self, *, stream: bool = False) -> threading.Thread:
        """Run this worker on a daemon thread; returns the thread."""
        thread = threading.Thread(
            target=self.run_stream if stream else self.run,
            name=f"qoco-worker-{self.worker_id}",
            daemon=True,
        )
        thread.start()
        return thread


__all__ = ["ServiceClient", "ServiceError", "WorkerClient", "answer_question"]
