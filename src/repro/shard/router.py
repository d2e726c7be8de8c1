"""The parent-side oracle router for sharded cleaning.

Worker processes never talk to the crowd directly: every question they
would ask travels to the parent as a wire object, is answered here
against **one** oracle, and the reply travels back.  That buys three
things at once:

* **Cross-shard dedup.**  The router's oracle is an
  :class:`~repro.oracle.base.AccountingOracle` (or a board-backed
  :class:`~repro.server.sharing.SharedOracle`), so a fact or answer any
  shard already paid for is answered free for every other shard — the
  same "questions are never repeated" guarantee the paper gives one
  session, extended across the worker fleet.
* **One deterministic answer source.**  Open questions
  (``COMPL(α, Q)``) enumerate ground-truth assignments whose order
  depends on the process's hash seed; answering them all in the parent
  makes completions identical whether the clean ran with 1 shard or 8.
* **Scoped completeness.**  ``COMPL(Q(D))`` is a *global* question —
  "name an answer missing from Q(D)" — but each worker only holds its
  shard of ``D``.  The router unions every shard's reported answer set
  into the global ``Q(D)``, and routes each genuinely missing answer to
  its *home shard* (the shard holding the blocking key of its
  ground-truth witness); other shards are told the result is complete.

Workers therefore **register** their initial answer sets before any
``complete_result`` is answered (the driver enforces the barrier), and
each ``complete_result`` call refreshes the asking shard's set.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..db.tuples import Fact
from ..oracle.base import AccountingOracle, Oracle
from ..oracle.questions import ask
from ..query.ast import Query, Var
from ..query.evaluator import Answer, answer_to_partial
from ..telemetry import TELEMETRY as _TELEMETRY
from . import wire
from .partition import PartitionSpec


class QuestionRouter:
    """Answer shard workers' questions from one parent-side oracle."""

    def __init__(
        self,
        oracle: Oracle,
        spec: PartitionSpec,
        shards: int,
        *,
        board=None,
    ) -> None:
        self.spec = spec
        self.shards = shards
        if board is not None:
            from ..server.sharing import SharedOracle

            backend = (
                oracle.backend if isinstance(oracle, AccountingOracle) else oracle
            )
            log = oracle.log if isinstance(oracle, AccountingOracle) else None
            self.oracle = SharedOracle(backend, board, log=log)
        elif isinstance(oracle, AccountingOracle):
            self.oracle = oracle
        else:
            self.oracle = AccountingOracle(oracle)
        #: each shard's latest reported answer set (registration + every
        #: complete_result refresh); the union is the global ``Q(D)``
        self._reported: dict[int, set[Answer]] = {}
        #: per shard: missing answers routed to a different home shard
        self._skip: dict[int, set[Answer]] = {}
        self._home_cache: dict[tuple[Query, Answer], Optional[int]] = {}
        #: wire decoding builds a fresh ``Query`` per question; intern
        #: them so the oracle sees one object per query value and its
        #: ``QueryPlan`` (compiled once per ``Query`` object) is reused
        #: (``PerfectOracle`` memoizes answers by query value already)
        self._query_intern: dict[Query, Query] = {}
        #: resolves the :data:`~repro.shard.wire.SESSION_QUERY` marker
        #: workers send in place of the query they are cleaning
        self.session_query: Optional[Query] = None

    def intern_query(self, query: Query) -> Query:
        """The canonical instance of *query* for oracle calls."""
        return self._query_intern.setdefault(query, query)

    def global_answers(self) -> set[Answer]:
        """The union of every shard's latest reported ``Q(D_shard)``.

        For a shardable query this *is* the merged ``Q(D)`` — every
        witness lives inside one shard — so the driver's convergence
        sweep never has to re-evaluate the merged database.
        """
        out: set[Answer] = set()
        for reported in self._reported.values():
            out |= reported
        return out

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, shard: int, answers: Iterable[Answer]) -> None:
        """Record *shard*'s current ``Q(D_shard)`` for global scoping."""
        self._reported[shard] = set(answers)

    # ------------------------------------------------------------------
    # question dispatch
    # ------------------------------------------------------------------
    def answer(self, shard: int, question_obj: dict) -> dict:
        """Answer one wire-encoded question from *shard*."""
        request = wire.question_from_obj(
            question_obj, session_query=self.session_query
        )
        kind = request[0]
        if isinstance(request[1], Query):
            request = (kind, self.intern_query(request[1]), *request[2:])
        if _TELEMETRY.enabled:
            _TELEMETRY.count("shard.questions_routed")
        if kind == "complete_result":
            value = self._scoped_complete_result(shard, request[1], request[2])
        else:
            value = ask(self.oracle, request)
        return wire.reply_to_obj(kind, value)

    # ------------------------------------------------------------------
    # COMPL(Q(D)) scoping
    # ------------------------------------------------------------------
    def _scoped_complete_result(
        self, shard: int, query: Query, known: Iterable[Answer]
    ) -> Optional[Answer]:
        self._reported[shard] = set(known)
        skip = self._skip.setdefault(shard, set())
        while True:
            global_known = set(skip)
            for reported in self._reported.values():
                global_known |= reported
            missing = self.oracle.complete_result(query, global_known)
            if missing is None:
                return None
            home = self.home_shard(query, missing)
            if home is None or home == shard:
                # the asking shard will repair it; count it as reported so
                # a sibling asking before the repair lands does not race
                # to re-discover it
                self._reported[shard].add(missing)
                return missing
            if _TELEMETRY.enabled:
                _TELEMETRY.count("shard.completions_rerouted")
            skip.add(missing)

    def home_shard(self, query: Query, answer: Answer) -> Optional[int]:
        """The shard holding *answer*'s ground-truth witness.

        Completes the answer's embedded partial assignment against the
        oracle (charged once per distinct answer — the completion is
        exactly the witness an insertion repair needs anyway) and maps
        the first partitioned witness fact's blocking key to its shard.
        ``None`` means the witness touches no partitioned relation, so
        any shard can repair it identically.
        """
        key = (query, answer)
        if key in self._home_cache:
            return self._home_cache[key]
        home: Optional[int] = None
        partial = answer_to_partial(query, answer)
        if partial is not None:
            assignment = self.oracle.complete_assignment(query, partial)
            if assignment is not None:
                for atom in query.atoms:
                    fact = Fact(
                        atom.relation,
                        tuple(
                            assignment.get(t, t) if isinstance(t, Var) else t
                            for t in atom.terms
                        ),
                    )
                    shard = self.spec.shard_of(fact, self.shards)
                    if shard is not None:
                        home = shard
                        break
        self._home_cache[key] = home
        return home
