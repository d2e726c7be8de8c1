"""Oracles, crowds, aggregation, and interaction accounting."""

from .aggregator import Aggregator, FirstAnswer, MajorityVote
from .base import AccountingOracle, Oracle
from .crowd import Crowd, CrowdStats
from .enumeration import Chao92Estimator, CompletionEstimator, ExactCompletion
from .imperfect import ImperfectOracle
from .interactive import InteractiveOracle
from .perfect import PerfectOracle
from .questions import (
    CATEGORY_FILL_MISSING,
    CATEGORY_VERIFY_ANSWERS,
    CATEGORY_VERIFY_TUPLES,
    CLOSED_KINDS,
    OPEN_KINDS,
    Interaction,
    InteractionLog,
    LogSnapshot,
    QuestionKind,
    category_of,
    open_question_cost,
    result_question_cost,
)

__all__ = [
    "AccountingOracle",
    "Aggregator",
    "CATEGORY_FILL_MISSING",
    "CATEGORY_VERIFY_ANSWERS",
    "CATEGORY_VERIFY_TUPLES",
    "CLOSED_KINDS",
    "Chao92Estimator",
    "CompletionEstimator",
    "Crowd",
    "CrowdStats",
    "ExactCompletion",
    "FirstAnswer",
    "ImperfectOracle",
    "Interaction",
    "InteractionLog",
    "InteractiveOracle",
    "LogSnapshot",
    "MajorityVote",
    "OPEN_KINDS",
    "Oracle",
    "PerfectOracle",
    "QuestionKind",
    "category_of",
    "open_question_cost",
    "result_question_cost",
]
