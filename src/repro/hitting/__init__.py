"""Hitting-set machinery for the deletion algorithm (Section 4)."""

from .hitting_set import (
    DegreeQueue,
    all_minimal_hitting_sets,
    exact_minimum_hitting_set,
    greedy_hitting_set,
    is_hitting_set,
    is_minimal_hitting_set,
    most_frequent_element,
    normalize,
    singleton_elements,
    unique_minimal_hitting_set,
)

__all__ = [
    "DegreeQueue",
    "all_minimal_hitting_sets",
    "exact_minimum_hitting_set",
    "greedy_hitting_set",
    "is_hitting_set",
    "is_minimal_hitting_set",
    "most_frequent_element",
    "normalize",
    "singleton_elements",
    "unique_minimal_hitting_set",
]
