"""The stable public facade.

One flat module with the half-dozen entry points a user of the
reproduction actually needs, hiding which subpackage currently hosts
which class.  Everything here accepts queries as either parsed
:class:`~repro.query.ast.Query` objects or source strings, takes the
shared :class:`~repro.core.qoco.QOCOConfig`, and returns the unified
:class:`~repro.core.report.Report`::

    import repro.api as qoco

    report = qoco.clean(dirty, 'q(x) :- teams(x, "EU").', oracle, seed=0)
    print(report.summary())

The deeper layers (``repro.core``, ``repro.db``, ``repro.dispatch``,
``repro.server``, ...) remain importable for research use; this module
is the surface the docs teach and the snapshot test in
``tests/test_api_surface.py`` pins.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from .core.parallel import ParallelQOCO
from .core.qoco import QOCO, QOCOConfig
from .core.report import Report
from .core.ucq import UCQCleaner
from .db.database import Database
from .dispatch.engine import dispatch_clean as _dispatch_clean
from .oracle.base import AccountingOracle, Oracle
from .query.ast import Query
from .query.backend import EvalBackend, resolve_backend
from .query.evaluator import Answer
from .query.parser import parse_query
from .query.union import UnionQuery, parse_union
from .server.manager import SessionManager
from .server.session import CleaningSession
from .shard.driver import ShardReport, ShardedQOCO
from .shard.partition import PartitionSpec

__all__ = [
    "clean",
    "clean_parallel",
    "clean_sharded",
    "clean_union",
    "dispatch_clean",
    "evaluate",
    "load_csv",
    "open_session",
    "recover",
    "recover_server",
    "repair",
    "serve",
    "serve_http",
]


def _as_query(query: Union[Query, str]) -> Query:
    return parse_query(query) if isinstance(query, str) else query


def _as_union(union: Union[UnionQuery, str]) -> UnionQuery:
    return parse_union(union) if isinstance(union, str) else union


def evaluate(
    database: Database,
    query: Union[Query, str],
    *,
    backend: Union[str, EvalBackend, None] = None,
) -> set[Answer]:
    """``Q(D)`` on a chosen evaluation substrate.

    ``backend`` is ``"naive"`` (default), ``"columnar"``, ``"sql"``, or
    an :class:`~repro.query.backend.EvalBackend` instance; non-reference
    backends fall back to ``naive`` on unsupported query shapes, so the
    answer set is the same whatever substrate computed it (see
    ``docs/evaluator.md``)::

        answers = qoco.evaluate(db, 'q(x) :- teams(x, "EU").', backend="columnar")
    """
    return resolve_backend(backend).evaluate(_as_query(query), database)


def clean(
    database: Database,
    query: Union[Query, str],
    oracle: Oracle,
    *,
    config: Optional[QOCOConfig] = None,
    **overrides,
) -> Report:
    """Clean *database* w.r.t. one conjunctive query (Algorithm 3).

    Equivalent to ``QOCO(database, oracle, config, **overrides).clean(query)``;
    keyword overrides are :class:`QOCOConfig` fields (``seed=0``,
    ``max_iterations=5``, ...).
    """
    return QOCO(database, oracle, config, **overrides).clean(_as_query(query))


def clean_union(
    database: Database,
    union: Union[UnionQuery, str],
    oracle: Oracle,
    *,
    config: Optional[QOCOConfig] = None,
    **overrides,
) -> Report:
    """Clean w.r.t. a union of conjunctive queries (the §2 extension)."""
    return UCQCleaner(database, oracle, config, **overrides).clean(_as_union(union))


def clean_parallel(
    database: Database,
    query: Union[Query, str],
    oracle: Oracle,
    *,
    config: Optional[QOCOConfig] = None,
    **overrides,
) -> Report:
    """Clean with the round-structured parallel loop (Appendix B)."""
    return ParallelQOCO(database, oracle, config, **overrides).clean(
        _as_query(query)
    )


def clean_sharded(
    database: Database,
    query: Union[Query, str],
    oracle: Oracle,
    *,
    spec: "PartitionSpec",
    shards: int = 2,
    mode: str = "process",
    config: Optional[QOCOConfig] = None,
    **overrides,
) -> "ShardReport":
    """Clean in parallel worker processes, one per blocking-key shard.

    *spec* (a :class:`~repro.shard.partition.PartitionSpec`) names the
    blocking-key column of each partitioned relation; the query must be
    shardable under it (raises
    :class:`~repro.shard.partition.ShardingError` otherwise).  The merge
    applies every shard's exported edit log back onto *database*,
    producing a ``state_digest`` identical to a single-process
    :func:`clean` — see ``docs/sharding.md``::

        from repro.datasets.worldcup import worldcup_partition_spec

        report = qoco.clean_sharded(
            db, Q3, oracle, spec=worldcup_partition_spec(), shards=4
        )

    ``mode="inline"`` runs the shards sequentially in-process (same
    codec path, no worker processes) for debugging and tests.
    """
    return ShardedQOCO(
        database, oracle, config, spec=spec, shards=shards, mode=mode, **overrides
    ).clean(_as_query(query))


def dispatch_clean(
    database: Database,
    query: Union[Query, str],
    members: Sequence[Oracle],
    *,
    oracle: Optional[AccountingOracle] = None,
    **kwargs,
):
    """Clean through the live crowd-dispatch engine (§6.2).

    Returns ``(report, engine)`` — see
    :func:`repro.dispatch.engine.dispatch_clean` for the full knob set
    (retry/fault/budget policies, vote width, latency model, ...).
    """
    return _dispatch_clean(
        database, _as_query(query), members, oracle=oracle, **kwargs
    )


def serve(database: Database, **kwargs) -> SessionManager:
    """A multi-tenant session manager over *database* (``repro.server``).

    Keyword arguments are :class:`~repro.server.manager.SessionManager`
    options (``mode=``, ``share_answers=``, ``max_concurrent=``, ...).
    Pass ``durable_path="some/dir"`` for a crash-safe server: every
    commit is written (and fsynced, per ``sync=``) to a write-ahead log
    before it is acknowledged, and :func:`recover` /
    :func:`recover_server` rebuild the database, tenant ledgers, and
    answer board after a restart.  See ``docs/durability.md``.
    """
    return SessionManager(database, **kwargs)


def serve_http(manager: SessionManager, **kwargs):
    """The network front end over *manager* (``repro.service``).

    Returns an (unstarted) :class:`~repro.service.app.CrowdService`:
    a stdlib-asyncio HTTP/JSON server with the tenant REST surface,
    streaming crowd-worker feeds, admission control, and — for durable
    managers — WAL log shipping to a warm follower.  Keyword arguments
    are :class:`CrowdService` options (``votes_per_closed=``,
    ``max_inflight_total=``, ``policy=``, ...)::

        service = qoco.serve_http(qoco.serve(db, durable_path="state"))
        host, port = await service.start("127.0.0.1", 8300)

    See ``docs/service.md`` for the API reference and the failover
    runbook, and ``qoco-serve --help`` for the command-line wrapper.
    """
    from .service.app import CrowdService

    return CrowdService(manager, **kwargs)


def recover(durable_path):
    """Rebuild the durable state under *durable_path* (read-only).

    Returns a :class:`~repro.durability.RecoveredState` — the database,
    the per-tenant ledger, and the answer board of already-paid crowd
    verdicts — from the latest checkpoint plus the WAL suffix, with any
    torn tail discarded.
    """
    from .durability.recovery import recover as _recover

    return _recover(durable_path)


def recover_server(durable_path, **kwargs) -> SessionManager:
    """Recover *durable_path* and resume serving from it.

    The returned :class:`SessionManager` carries the recovered
    database/ledgers/board and keeps appending to the same write-ahead
    log.  Keyword arguments are forwarded to the manager (plus the
    durability knobs ``sync=``, ``checkpoint_every=``,
    ``checkpoint_interval=``).
    """
    from .durability.recovery import recover_manager as _recover_manager

    return _recover_manager(durable_path, **kwargs)


def load_csv(path, *, relation=None, noise=None) -> Database:
    """Load one bare headerful CSV into a single-relation database.

    The schema is sniffed from the data (``repro.ingest``); *noise* — a
    seeded :class:`~repro.ingest.NoisePipeline` — corrupts the table
    reproducibly before loading, which is how the benchmarks fabricate
    dirty workloads::

        from repro.ingest import standard_noise

        dirty = qoco.load_csv("games.csv", noise=standard_noise(seed=7))

    Distinct from :func:`repro.db.io.load_csv`, which loads a CSV
    *directory* with an explicit ``_schema.json`` sidecar.
    """
    from .ingest.loader import load_csv as _load_csv

    return _load_csv(path, relation=relation, noise=noise)


def repair(
    database: Database,
    constraints,
    oracle: Oracle,
    *,
    strategy: str = "oracle",
    **options,
):
    """Repair *database* until *constraints* hold, asking the oracle.

    *constraints* are FD strings (``"games: date -> winner"``),
    :class:`~repro.constraints.FD` / ``ForeignKey`` / ``DenialConstraint``
    objects, or an iterable of them; *strategy* is a ``"repair"``-kind registry name
    (``"oracle"`` default, ``"exhaustive"``, ``"greedy"``); remaining
    keywords (``budget=``, ``updates=``, ``backend=``, ``max_rounds=``)
    reach the repairer.  Returns a
    :class:`~repro.constraints.RepairReport`::

        report = qoco.repair(db, "games: date -> winner, result", oracle)
        print(report.summary())

    See ``docs/constraints.md``.
    """
    from .constraints.repairer import repair as _repair

    return _repair(database, constraints, oracle, strategy=strategy, **options)


def open_session(
    target: Union[Database, SessionManager],
    query: Union[Query, str],
    oracle: Oracle,
    **kwargs,
) -> CleaningSession:
    """Queue one cleaning session against *target*.

    *target* may be an existing :class:`SessionManager` (multi-tenant:
    sessions share its base, board, and commit log) or a bare
    :class:`Database` (a fresh single-purpose manager is created and
    attached).  Either way the returned session's ``manager`` attribute
    drains the queue::

        session = repro.api.open_session(db, query, oracle)
        session.manager.run_all()
        print(session.report.summary())
    """
    manager = target if isinstance(target, SessionManager) else serve(target)
    session = manager.open_session(_as_query(query), oracle, **kwargs)
    session.manager = manager
    return session
