"""Unit tests for the hitting-set machinery (Definition 4.3, Theorem 4.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_repairer import reference_greedy_hitting_set, reference_most_frequent_element
from repro.hitting.hitting_set import (
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


class TestBasics:
    def test_is_hitting_set(self):
        sets = [{1, 2}, {2, 3}]
        assert is_hitting_set({2}, sets)
        assert is_hitting_set({1, 3}, sets)
        assert not is_hitting_set({1}, sets)

    def test_is_minimal_hitting_set(self):
        sets = [{1, 2}, {2, 3}]
        assert is_minimal_hitting_set({2}, sets)
        assert not is_minimal_hitting_set({1, 2}, sets)  # 1 droppable
        assert is_minimal_hitting_set({1, 3}, sets)

    def test_normalize_dedups(self):
        assert len(normalize([{1}, {1}, {2}])) == 2

    def test_normalize_keeps_empty_sets(self):
        assert frozenset() in normalize([set(), {1}])

    def test_singleton_elements(self):
        assert singleton_elements([{1}, {1, 2}, {3}]) == {1, 3}


class TestUniqueMinimal:
    def test_paper_example_unique(self):
        # Example 4.4: {t1} and {t1, t2} -> unique minimal {t1}.
        assert unique_minimal_hitting_set([{1}, {1, 2}]) == {1}

    def test_paper_example_not_unique(self):
        # Example 4.4: {t1,t2} and {t1,t3} -> two minimal hitting sets.
        assert unique_minimal_hitting_set([{1, 2}, {1, 3}]) is None

    def test_empty_system(self):
        assert unique_minimal_hitting_set([]) == set()

    def test_unhittable_system(self):
        assert unique_minimal_hitting_set([set(), {1}]) is None

    def test_singletons_must_cover_everything(self):
        # Singletons {1}, {2} hit {1,2} too => unique minimal {1, 2}.
        assert unique_minimal_hitting_set([{1}, {2}, {1, 2}]) == {1, 2}

    def test_agrees_with_exhaustive_enumeration(self):
        systems = [
            [{1}, {1, 2}],
            [{1, 2}, {1, 3}],
            [{1}, {2}, {1, 2}],
            [{1, 2}, {3}],
            [{1, 2, 3}],
            [{1}, {2}, {3}],
        ]
        for sets in systems:
            expected = all_minimal_hitting_sets(sets)
            unique = unique_minimal_hitting_set(sets)
            if len(expected) == 1:
                assert unique == expected[0]
            else:
                assert unique is None


class TestGreedy:
    def test_result_is_hitting_set(self):
        sets = [{1, 2}, {2, 3}, {3, 4}, {1, 4}]
        assert is_hitting_set(greedy_hitting_set(sets), sets)

    def test_most_frequent_first(self):
        sets = [{1, 2}, {1, 3}, {1, 4}]
        assert greedy_hitting_set(sets) == {1}

    def test_unhittable_raises(self):
        with pytest.raises(ValueError):
            greedy_hitting_set([set()])

    def test_empty_system(self):
        assert greedy_hitting_set([]) == set()

    def test_most_frequent_element_deterministic(self):
        assert most_frequent_element([{1, 2}, {2}]) == 2

    def test_most_frequent_element_empty(self):
        assert most_frequent_element([]) is None


class TestExact:
    def test_optimal_on_greedy_trap(self):
        # Greedy picks the high-degree element and needs 3; optimum is 2.
        sets = [
            {0, 1}, {0, 2}, {0, 3},
            {1, 4}, {2, 4}, {3, 4},
        ]
        exact = exact_minimum_hitting_set(sets)
        assert is_hitting_set(exact, sets)
        assert len(exact) == 2

    def test_never_worse_than_greedy(self):
        import random

        rng = random.Random(5)
        for _ in range(25):
            sets = [
                frozenset(rng.sample(range(8), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 6))
            ]
            exact = exact_minimum_hitting_set(sets)
            greedy = greedy_hitting_set(sets)
            assert is_hitting_set(exact, sets)
            assert len(exact) <= len(greedy)

    def test_unhittable_raises(self):
        with pytest.raises(ValueError):
            exact_minimum_hitting_set([frozenset()])


class TestAllMinimal:
    def test_example(self):
        minimal = all_minimal_hitting_sets([{1, 2}, {1, 3}])
        assert {1} in minimal
        assert {2, 3} in minimal
        assert len(minimal) == 2

    def test_every_result_minimal(self):
        sets = [{1, 2}, {2, 3}, {1, 3}]
        for candidate in all_minimal_hitting_sets(sets):
            assert is_minimal_hitting_set(candidate, sets)

    def test_empty_system(self):
        assert all_minimal_hitting_sets([]) == [set()]

    def test_unhittable(self):
        assert all_minimal_hitting_sets([set()]) == []


class TestDegreeQueue:
    def test_top_is_most_frequent_then_largest_repr(self):
        assert DegreeQueue([{1, 2}, {2, 3}, {3}]).top() == 3
        assert DegreeQueue([{1, 2}, {2, 3}, {9}]).top() == 2

    def test_known_breaks_degree_ties_before_repr(self):
        assert DegreeQueue([{1, 2}], known=lambda x: x == 1).top() == 1
        assert DegreeQueue([{1, 2}, {2, 3}], known=lambda x: x == 1).top() == 2

    def test_known_is_reread_at_the_top(self):
        known = {1}
        queue = DegreeQueue([{1, 2}], known=known.__contains__)
        assert queue.top() == 1
        known.clear()
        assert queue.top() == 2

    def test_hit_drops_every_edge_of_the_element(self):
        queue = DegreeQueue([{1, 2}, {2, 3}, {3, 4}])
        queue.hit(2)
        assert queue.edges() == [frozenset({3, 4})]
        assert queue.top() == 4
        queue.hit(4)
        assert not queue
        with pytest.raises(IndexError):
            queue.top()

    def test_shrink_returns_new_singletons_in_edge_order(self):
        queue = DegreeQueue([{1, 9}, {2, 9}, {1, 3, 9}])
        assert queue.shrink(9) == [1, 2]
        assert queue.edges() == [frozenset({1}), frozenset({2}), frozenset({1, 3})]
        assert queue.first_singleton() == 1
        assert queue.top() == 1

    def test_edges_shrunk_into_duplicates_count_twice(self):
        queue = DegreeQueue([{1, 8}, {1, 9}, {5, 6}, {5, 7}, {6, 7}])
        assert queue.shrink(8) == [1]
        assert queue.shrink(9) == [1]
        queue.hit(queue.first_singleton())
        # 1 was on two live edges; the 5/6/7 triangle gives each degree 2
        assert queue.top() == 7

    def test_first_singleton_follows_input_order(self):
        queue = DegreeQueue([{1, 2}, {5}, {3}])
        assert queue.first_singleton() == 5
        queue.shrink(2)
        assert queue.first_singleton() == 1
        queue.hit(1)
        queue.hit(5)
        assert queue.first_singleton() == 3
        queue.hit(3)
        assert queue.first_singleton() is None

    def test_equal_reprs_go_to_the_first_seen(self):
        class Same:
            def __repr__(self):
                return "same"

        a, b = Same(), Same()
        assert DegreeQueue([{a}, {b}]).top() is a
        assert most_frequent_element([{b}, {a}]) is reference_most_frequent_element([{b}, {a}])

    def test_empty_edge_raises(self):
        with pytest.raises(ValueError):
            DegreeQueue([{1}, set()])
        queue = DegreeQueue([{1}])
        with pytest.raises(ValueError):
            queue.shrink(1)

    @settings(max_examples=60, deadline=None)
    @given(
        edges=st.lists(
            st.sets(st.integers(min_value=0, max_value=12), min_size=1, max_size=4),
            max_size=14,
        ),
        known=st.sets(st.integers(min_value=0, max_value=12)),
        data=st.data(),
    )
    def test_matches_a_recount_over_the_shrinking_system(self, edges, known, data):
        """Every top equals ``max(counts, key=(count, known, repr))`` and
        every first singleton the first one-element edge, over any mix of
        hits and shrinks (duplicate edges kept, as the repairer keeps them)."""
        queue = DegreeQueue(edges, known=known.__contains__)
        live = [frozenset(e) for e in edges]
        while live:
            assert queue.edges() == live
            single = next((e for e in live if len(e) == 1), None)
            assert queue.first_singleton() == (None if single is None else next(iter(single)))
            if single is not None:
                (x,) = single
                queue.hit(x)
                live = [e for e in live if x not in e]
                continue
            counts: dict = {}
            for edge in live:
                for x in edge:
                    counts[x] = counts.get(x, 0) + 1
            x = max(counts, key=lambda e: (counts[e], e in known, repr(e)))
            assert queue.top() == x
            if data.draw(st.booleans()):
                queue.hit(x)
                live = [e for e in live if x not in e]
            else:
                queue.shrink(x)
                live = [e - {x} if x in e else e for e in live]
        assert not queue

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sets(st.integers(min_value=0, max_value=15), min_size=1, max_size=5),
                 max_size=16)
    )
    def test_greedy_and_most_frequent_match_the_recount(self, sets):
        assert greedy_hitting_set(sets) == reference_greedy_hitting_set(sets)
        assert most_frequent_element(sets) == reference_most_frequent_element(sets)
