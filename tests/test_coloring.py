"""Bad edges, the one-class rule, and validity."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nearcolor import (
    Coloring,
    InvalidColoringError,
    RuleMode,
    adjacent_class_count,
    bad_edges,
    complete,
    cycle,
    is_valid,
    join,
    path,
    Graph,
)


def test_bad_edges_on_five_cycle_near_alternation():
    c = Coloring((1, 2, 1, 2, 2), 2)
    count, edges = bad_edges(cycle(5), c)
    assert count == 1
    assert edges == ((3, 4),)


def test_all_same_color_makes_every_edge_bad():
    for g in [path(4), cycle(6), complete(5)]:
        c = Coloring((1,) * g.n, 1)
        assert bad_edges(g, c).count == g.m


def test_proper_two_coloring_of_even_cycle_has_no_bad_edges():
    c = Coloring((1, 2, 1, 2, 1, 2), 2)
    assert bad_edges(cycle(6), c).count == 0


def test_bad_edges_rejects_length_mismatch():
    with pytest.raises(InvalidColoringError):
        bad_edges(cycle(5), Coloring((1, 2, 1), 2))


def test_coloring_rejects_out_of_range_entries():
    with pytest.raises(InvalidColoringError):
        Coloring((1, 3), 2)
    with pytest.raises(InvalidColoringError):
        Coloring((0, 1), 2)


def test_adjacent_class_count_on_k4():
    k4 = complete(4)
    assert adjacent_class_count(k4, Coloring((1, 1, 1, 2), 2)) == 1
    assert adjacent_class_count(k4, Coloring((1, 1, 2, 2), 2)) == 2
    assert adjacent_class_count(k4, Coloring((1, 2, 3, 4), 4)) == 0


def test_is_valid_rule_and_surjectivity():
    k4 = complete(4)
    split = Coloring((1, 1, 2, 2), 2)
    assert not is_valid(k4, split, RuleMode.ONE_CLASS)
    assert is_valid(k4, split, RuleMode.UNRESTRICTED)
    mono = Coloring((1, 1, 1, 1, 1), 2)
    assert not is_valid(cycle(5), mono, RuleMode.UNRESTRICTED, surjective=True)
    assert is_valid(cycle(5), mono, RuleMode.UNRESTRICTED, surjective=False)
    assert is_valid(k4, split, "unrestricted")  # string rule names are accepted


def test_bad_edge_free_means_proper_and_no_adjacent_classes():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 7)
        pairs = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5)
        g = Graph(n, pairs)
        k = rng.randint(1, 3)
        c = Coloring(tuple(rng.randint(1, k) for _ in range(n)), k)
        count = bad_edges(g, c).count
        proper = all(c.assignment[u] != c.assignment[v] for u, v in g.edges)
        assert (count == 0) == proper
        assert (adjacent_class_count(g, c) == 0) == (count == 0)


def test_on_cliques_adjacent_classes_are_exactly_the_repeated_colors():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 7)
        k = rng.randint(1, 4)
        g = complete(n)
        c = Coloring(tuple(rng.randint(1, k) for _ in range(n)), k)
        repeated = sum(1 for color in set(c.assignment) if c.assignment.count(color) >= 2)
        assert adjacent_class_count(g, c) == repeated


@st.composite
def graph_and_coloring(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if possible:
        edges = tuple(draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))))
    else:
        edges = ()
    k = draw(st.integers(min_value=1, max_value=4))
    assignment = tuple(draw(st.integers(min_value=1, max_value=k)) for _ in range(n))
    return Graph(n, edges), Coloring(assignment, k)


@given(graph_and_coloring(), st.randoms(use_true_random=False))
def test_bad_edge_count_is_invariant_under_color_permutation(gc, rnd):
    g, c = gc
    perm = list(range(1, c.k + 1))
    rnd.shuffle(perm)
    permuted = Coloring(tuple(perm[x - 1] for x in c.assignment), c.k)
    assert bad_edges(g, permuted).count == bad_edges(g, c).count
    assert adjacent_class_count(g, permuted) == adjacent_class_count(g, c)


def test_join_coloring_decomposes_into_sides_plus_cross_term():
    pairs = [(path(3), cycle(3)), (complete(2), path(4)), (cycle(4), complete(3))]
    for g, h in pairs:
        combined, _ = join(g, h)
        for assign in itertools.product((1, 2), repeat=combined.n):
            c = Coloring(assign, 2)
            left = Coloring(assign[: g.n], 2)
            right = Coloring(assign[g.n :], 2)
            total = bad_edges(combined, c).count
            split = (
                bad_edges(g, left).count
                + bad_edges(h, right).count
                # every cross pair is adjacent, so color i adds left(i) * right(i)
                + sum(left.assignment.count(i) * right.assignment.count(i) for i in (1, 2))
            )
            assert total == split
