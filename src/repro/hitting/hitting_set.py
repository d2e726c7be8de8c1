"""Hitting sets (Definition 4.3, Theorem 4.5).

The deletion algorithm views the witnesses of a wrong answer as a set
system; the false tuples it must find form a hitting set of that system.
This module provides:

* :func:`unique_minimal_hitting_set` — the Theorem 4.5 test: a unique
  minimal hitting set exists iff the elements of the singleton sets
  already hit every set; when it does, no crowd questions are needed.
* :class:`DegreeQueue` — the most-frequent element of a hypergraph whose
  edges resolve one pick at a time, kept incrementally: the one picker
  behind :func:`greedy_hitting_set` and the constraint repairer.
* :func:`greedy_hitting_set` — the classic most-frequent-element greedy
  (ln n approximation), used by baselines and tests.
* :func:`exact_minimum_hitting_set` — branch-and-bound exact solver used
  as a test oracle and to validate the NP-hardness reduction.
* :func:`all_minimal_hitting_sets` — exhaustive enumeration on small
  instances (test oracle for the uniqueness condition).
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Callable, Generic, Hashable, Iterable, Optional, Sequence, TypeVar

Element = TypeVar("Element", bound=Hashable)
SetSystem = Sequence[frozenset]


def normalize(sets: Iterable[Iterable[Element]]) -> list[frozenset]:
    """Freeze and deduplicate a set system, dropping nothing else.

    An empty member set is kept: it makes the system unhittable and every
    consumer must see that.
    """
    seen: set[frozenset] = set()
    result: list[frozenset] = []
    for s in sets:
        frozen = frozenset(s)
        if frozen not in seen:
            seen.add(frozen)
            result.append(frozen)
    return result


def is_hitting_set(candidate: Iterable[Element], sets: Iterable[Iterable[Element]]) -> bool:
    """Whether *candidate* intersects every member of *sets*."""
    chosen = set(candidate)
    return all(chosen & set(s) for s in sets)


def is_minimal_hitting_set(
    candidate: Iterable[Element], sets: Iterable[Iterable[Element]]
) -> bool:
    """Hitting set from which no element can be dropped (Definition 4.3)."""
    chosen = set(candidate)
    frozen_sets = normalize(sets)
    if not is_hitting_set(chosen, frozen_sets):
        return False
    return all(not is_hitting_set(chosen - {e}, frozen_sets) for e in chosen)


def singleton_elements(sets: Iterable[Iterable[Element]]) -> set:
    """Elements of the singleton sets of the system."""
    singles: set = set()
    for s in sets:
        frozen = frozenset(s)
        if len(frozen) == 1:
            singles |= frozen
    return singles


def unique_minimal_hitting_set(sets: Iterable[Iterable[Element]]) -> Optional[set]:
    """The unique minimal hitting set, or ``None`` if not unique.

    Theorem 4.5: a unique minimal hitting set exists iff the elements of
    the singleton sets form a hitting set — in which case they *are* it.
    An empty system has the (unique) empty hitting set.
    """
    frozen_sets = normalize(sets)
    if not frozen_sets:
        return set()
    if any(not s for s in frozen_sets):
        return None  # an empty set can never be hit
    singles = singleton_elements(frozen_sets)
    if is_hitting_set(singles, frozen_sets):
        return singles
    return None


def most_frequent_element(sets: Iterable[Iterable[Element]]) -> Optional[Element]:
    """The element occurring in the largest number of sets.

    Ties break deterministically by (count, repr) so experiments are
    reproducible.  Returns ``None`` for an empty system.
    """
    edges = [s for s in map(frozenset, sets) if s]
    return DegreeQueue(edges).top() if edges else None


class DegreeQueue(Generic[Element]):
    """The most-frequent element of a shrinking hypergraph, kept incrementally.

    Edges keep their position in the input list (duplicates included)
    and resolve in two ways: :meth:`hit` drops every edge containing an
    element, :meth:`shrink` removes the element from its edges.
    :meth:`top` is the element on the most live edges, ties broken by
    ``known(element)`` (true first, when a *known* predicate is given)
    and then by ``repr`` (largest first) — the pick of
    ``max(counts, key=lambda e: (counts[e], known(e), repr(e)))`` over
    the live edges, where distinct elements with equal ``repr`` go to
    the one seen first.

    Each ``repr`` is computed once, as a rank.  Degrees only fall, so a
    lazy max-heap suffices: an entry whose degree or *known* flag moved
    since it was pushed is re-pushed when it surfaces.  *known* is read
    at construction and re-read at the top; a flag that flips for an
    element buried in the heap is seen when that element surfaces.  A
    full resolution costs O(edge sizes · log n) instead of one recount
    of every edge per pick.
    """

    def __init__(
        self,
        edges: Iterable[Iterable[Element]],
        known: Optional[Callable[[Element], bool]] = None,
    ) -> None:
        frozen = [frozenset(edge) for edge in edges]
        if any(not edge for edge in frozen):
            raise ValueError("system with an empty set has no hitting set")
        first_seen: dict = {}
        for edge in frozen:
            for element in edge:
                first_seen.setdefault(element, len(first_seen))
        #: elements by rank: ascending repr, the first seen last on ties
        self._elements: list = sorted(first_seen, key=lambda e: (repr(e), -first_seen[e]))
        self._rank: dict = {element: rank for rank, element in enumerate(self._elements)}
        #: live edges as sets of ranks (None once hit), in input order
        self._edges: list[Optional[set[int]]] = [
            {self._rank[element] for element in edge} for edge in frozen
        ]
        self._index: list[list[int]] = [[] for _ in self._elements]
        for edge_id, edge in enumerate(self._edges):
            for rank in edge:
                self._index[rank].append(edge_id)
        self._degree = [len(ids) for ids in self._index]
        self._live = len(self._edges)
        self._known = known
        self._heap = [
            (-degree, -self._is_known(rank), -rank) for rank, degree in enumerate(self._degree)
        ]
        heapq.heapify(self._heap)
        self._singletons = [i for i, edge in enumerate(self._edges) if len(edge) == 1]

    def __bool__(self) -> bool:
        """Whether any edge is still live."""
        return self._live > 0

    def _is_known(self, rank: int) -> int:
        return 1 if self._known is not None and self._known(self._elements[rank]) else 0

    def top(self) -> Element:
        """The element on the most live edges (see the class docstring).

        Raises :class:`IndexError` when no edge is live.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            rank = -entry[2]
            degree = self._degree[rank]
            if degree == 0:
                heapq.heappop(heap)
                continue
            current = (-degree, -self._is_known(rank), entry[2])
            if current != entry:
                heapq.heapreplace(heap, current)
                continue
            return self._elements[rank]
        raise IndexError("no live edge")

    def first_singleton(self) -> Optional[Element]:
        """The element of the first live one-element edge, in input order."""
        singletons = self._singletons
        while singletons:
            edge = self._edges[singletons[0]]
            if edge is None:
                heapq.heappop(singletons)
                continue
            (rank,) = edge
            return self._elements[rank]
        return None

    def hit(self, element: Element) -> None:
        """Drop every live edge containing *element*."""
        for edge_id in self._index[self._rank[element]]:
            edge = self._edges[edge_id]
            if edge is None:
                continue
            self._edges[edge_id] = None
            self._live -= 1
            for member in edge:
                self._degree[member] -= 1

    def shrink(self, element: Element) -> list[Element]:
        """Remove *element* from its live edges.

        Returns the sole remaining element of each edge that became a
        singleton, in edge order (an element once per such edge).
        Raises :class:`ValueError` if that would empty an edge.
        """
        rank = self._rank[element]
        partners: list[Element] = []
        for edge_id in self._index[rank]:
            edge = self._edges[edge_id]
            if edge is None:
                continue
            if len(edge) == 1:
                raise ValueError("shrinking would leave an empty edge")
            edge.discard(rank)
            if len(edge) == 1:
                heapq.heappush(self._singletons, edge_id)
                partners.extend(self._elements[member] for member in edge)
        self._degree[rank] = 0
        return partners

    def edges(self) -> list[frozenset]:
        """The live edges, in input order."""
        return [
            frozenset(self._elements[rank] for rank in edge)
            for edge in self._edges
            if edge is not None
        ]


def greedy_hitting_set(sets: Iterable[Iterable[Element]]) -> set:
    """Greedy cover: repeatedly take the most frequent element.

    Raises :class:`ValueError` if the system contains an empty set.
    """
    queue = DegreeQueue(normalize(sets))
    chosen: set = set()
    while queue:
        element = queue.top()
        chosen.add(element)
        queue.hit(element)
    return chosen


def exact_minimum_hitting_set(sets: Iterable[Iterable[Element]]) -> set:
    """A minimum-cardinality hitting set by branch and bound.

    Exponential in the worst case — a test oracle, not a production path.
    Raises :class:`ValueError` on unhittable systems.
    """
    frozen_sets = normalize(sets)
    if any(not s for s in frozen_sets):
        raise ValueError("system with an empty set has no hitting set")
    if not frozen_sets:
        return set()
    best: set = greedy_hitting_set(frozen_sets)

    def branch(remaining: list[frozenset], chosen: set) -> None:
        nonlocal best
        if len(chosen) >= len(best):
            return
        if not remaining:
            best = set(chosen)
            return
        # Branch on the smallest uncovered set: one child per element.
        target = min(remaining, key=len)
        for element in sorted(target, key=repr):
            rest = [s for s in remaining if element not in s]
            chosen.add(element)
            branch(rest, chosen)
            chosen.discard(element)

    branch(frozen_sets, set())
    return best


def all_minimal_hitting_sets(sets: Iterable[Iterable[Element]]) -> list[set]:
    """Every minimal hitting set (exhaustive; small instances only)."""
    frozen_sets = normalize(sets)
    if not frozen_sets:
        return [set()]
    if any(not s for s in frozen_sets):
        return []
    universe = sorted(set().union(*frozen_sets), key=repr)
    minimal: list[set] = []
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            candidate = set(combo)
            if not is_hitting_set(candidate, frozen_sets):
                continue
            if any(known <= candidate for known in minimal):
                continue
            minimal.append(candidate)
    return minimal
