"""QOCO's cleaning algorithms (Algorithms 1-3) and split strategies."""

from .deletion import (
    DeletionError,
    DeletionStrategy,
    QOCODeletion,
    QOCOMinusDeletion,
    RandomDeletion,
    crowd_remove_wrong_answer,
)
from .insertion import InsertionConfig, InsertionError, crowd_add_missing_answer
from .composite import crowd_remove_wrong_answer_composite
from .heuristics import ResponsibilityDeletion, TrustScoreDeletion, frequency_trust
from .negation import (
    add_missing_answer_with_negation,
    remove_wrong_answer_with_negation,
)
from .parallel import ParallelQOCO, RoundScheduler
from .qoco import QOCO, QOCOConfig, resolve_config, resolve_planner
from .registry import REGISTRY, RegistryError, StrategyRegistry, resolve_strategy
from .report import Report, ReportLike
from .ucq import (
    UCQCleaner,
    add_missing_answer_union,
    remove_wrong_answer_union,
)
from .split import (
    MinCutSplit,
    NaiveSplit,
    ProvenanceSplit,
    RandomSplit,
    SplitStrategy,
)

__all__ = [
    "ResponsibilityDeletion",
    "TrustScoreDeletion",
    "crowd_remove_wrong_answer_composite",
    "frequency_trust",
    "DeletionError",
    "DeletionStrategy",
    "InsertionConfig",
    "InsertionError",
    "MinCutSplit",
    "NaiveSplit",
    "ParallelQOCO",
    "ProvenanceSplit",
    "RoundScheduler",
    "QOCO",
    "QOCOConfig",
    "QOCODeletion",
    "QOCOMinusDeletion",
    "RandomDeletion",
    "RandomSplit",
    "REGISTRY",
    "RegistryError",
    "Report",
    "ReportLike",
    "SplitStrategy",
    "StrategyRegistry",
    "UCQCleaner",
    "resolve_config",
    "resolve_planner",
    "resolve_strategy",
    "add_missing_answer_union",
    "add_missing_answer_with_negation",
    "remove_wrong_answer_with_negation",
    "crowd_add_missing_answer",
    "crowd_remove_wrong_answer",
    "remove_wrong_answer_union",
]
