"""QOCO — query-oriented data cleaning with oracles.

A full reproduction of Bergman, Milo, Novgorodov and Tan,
"Query-Oriented Data Cleaning with Oracles", SIGMOD 2015.

Quickstart — the stable facade is :mod:`repro.api`::

    import repro.api as qoco
    from repro import Database, PerfectOracle, worldcup_database

    ground_truth = worldcup_database()
    dirty = ...                       # your scraped/dirty instance
    report = qoco.clean(
        dirty,
        'q(x) :- games(d, x, y, "Final", u), teams(x, "EU").',
        PerfectOracle(ground_truth),
    )
    print(report.summary())
"""

from . import api
from .core import (
    QOCO,
    REGISTRY,
    DeletionError,
    InsertionError,
    MinCutSplit,
    NaiveSplit,
    ParallelQOCO,
    ProvenanceSplit,
    QOCOConfig,
    QOCODeletion,
    QOCOMinusDeletion,
    RandomDeletion,
    RandomSplit,
    RegistryError,
    Report,
    ReportLike,
    StrategyRegistry,
    UCQCleaner,
    crowd_add_missing_answer,
    crowd_remove_wrong_answer,
    resolve_strategy,
)
from .plan import (
    BanditPlanner,
    CapacityScheduler,
    CostModel,
    QuestionPlanner,
    query_signature,
)
from .db import (
    Database,
    DatabaseFork,
    Edit,
    Fact,
    ForkError,
    RelationSchema,
    Schema,
    delete,
    fact,
    insert,
)
from .constraints import (
    FD,
    DenialConstraint,
    ForeignKey,
    OracleRepairer,
    RepairBudget,
    RepairReport,
    Violation,
    find_violations,
    parse_fd,
)
from .ingest import (
    DuplicateRows,
    MixedFormats,
    NoisePipeline,
    Outliers,
    TypePollution,
    standard_noise,
)
from .server import (
    AnswerBoard,
    CleaningSession,
    RepairSession,
    ServerReport,
    SessionManager,
    SessionState,
    TenantPolicy,
)
from .oracle import (
    AccountingOracle,
    Chao92Estimator,
    Crowd,
    ExactCompletion,
    ImperfectOracle,
    InteractionLog,
    MajorityVote,
    Oracle,
    PerfectOracle,
    QuestionKind,
)
from .query import Atom, Inequality, Query, Var, evaluate, parse_query, witnesses_for
from .shard import KeySpec, PartitionSpec, ShardedQOCO
from .telemetry import TELEMETRY, InMemorySink, JSONLSink, Telemetry, telemetry_session
from .datasets import (
    NoiseSpec,
    dbgroup_database,
    inject_result_errors,
    make_dirty,
    worldcup_database,
)

__version__ = "1.1.0"

__all__ = [
    "REGISTRY",
    "TELEMETRY",
    "AccountingOracle",
    "AnswerBoard",
    "Atom",
    "BanditPlanner",
    "CapacityScheduler",
    "Chao92Estimator",
    "CostModel",
    "CleaningSession",
    "Crowd",
    "Database",
    "DatabaseFork",
    "DeletionError",
    "DenialConstraint",
    "DuplicateRows",
    "Edit",
    "ExactCompletion",
    "FD",
    "ForeignKey",
    "Fact",
    "ForkError",
    "ImperfectOracle",
    "InMemorySink",
    "Inequality",
    "InsertionError",
    "InteractionLog",
    "JSONLSink",
    "KeySpec",
    "MajorityVote",
    "MinCutSplit",
    "MixedFormats",
    "NaiveSplit",
    "NoisePipeline",
    "NoiseSpec",
    "Oracle",
    "OracleRepairer",
    "Outliers",
    "ParallelQOCO",
    "PartitionSpec",
    "PerfectOracle",
    "ProvenanceSplit",
    "QOCO",
    "QOCOConfig",
    "QOCODeletion",
    "QOCOMinusDeletion",
    "Query",
    "QuestionKind",
    "QuestionPlanner",
    "RandomDeletion",
    "RandomSplit",
    "RegistryError",
    "RelationSchema",
    "RepairBudget",
    "RepairReport",
    "RepairSession",
    "Report",
    "ReportLike",
    "Schema",
    "ServerReport",
    "SessionManager",
    "SessionState",
    "ShardedQOCO",
    "StrategyRegistry",
    "Telemetry",
    "TenantPolicy",
    "TypePollution",
    "UCQCleaner",
    "Var",
    "Violation",
    "api",
    "crowd_add_missing_answer",
    "crowd_remove_wrong_answer",
    "dbgroup_database",
    "delete",
    "evaluate",
    "fact",
    "find_violations",
    "inject_result_errors",
    "insert",
    "make_dirty",
    "parse_fd",
    "parse_query",
    "query_signature",
    "resolve_strategy",
    "standard_noise",
    "telemetry_session",
    "witnesses_for",
    "worldcup_database",
]
