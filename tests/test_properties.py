"""Metamorphic properties of the exact solver, checked on generated graphs."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nearcolor import (
    Graph,
    RuleMode,
    chromatic_number,
    count_optimal,
    disjoint_union,
    enumerate_oracle,
    solve,
)
from partition_oracle import partition_oracle
from test_solver import NEAR_MISS_K2, NEAR_MISS_K3

SETTINGS = [(rule, surjective) for rule in RuleMode for surjective in (True, False)]


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return Graph(n, tuple(edges))


def min_and_count(g, k, rule, surjective):
    res = solve(g, k, rule, surjective, count_optimal=True)
    return res.min_bad, res.optimal_count


@settings(deadline=None)
@given(small_graphs(), st.integers(min_value=1, max_value=4))
def test_solve_matches_the_enumeration_oracle(g, k):
    for rule, surjective in SETTINGS:
        if surjective and k > g.n:
            continue
        o = enumerate_oracle(g, k, rule, surjective)
        s = solve(g, k, rule, surjective, count_optimal=True)
        assert (s.min_bad, s.optimal_count, s.witness) == (o.min_bad, o.optimal_count, o.witness)
        s = solve(g, k, rule, surjective)  # from the witness census when g is connected
        assert (s.min_bad, s.witness) == (o.min_bad, o.witness)


@settings(deadline=None)
@given(small_graphs(), st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_min_and_count_invariant_under_vertex_relabelling(g, k, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabelled = Graph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))
    for rule, surjective in SETTINGS:
        if surjective and k > g.n:
            continue
        assert min_and_count(relabelled, k, rule, surjective) == min_and_count(g, k, rule, surjective)


@settings(deadline=None)
@given(small_graphs(max_n=6), st.integers(min_value=1, max_value=4))
def test_isolated_vertex_multiplies_count_by_k_without_surjectivity(g, k):
    bigger = Graph(g.n + 1, g.edges)
    for rule in RuleMode:
        best, count = min_and_count(g, k, rule, False)
        assert min_and_count(bigger, k, rule, False) == (best, count * k)


@settings(deadline=None)
@given(small_graphs(), st.integers(min_value=1, max_value=6))
def test_min_bad_does_not_increase_with_one_more_color(g, k):
    if k + 1 > g.n:
        return
    for rule, surjective in SETTINGS:
        assert solve(g, k + 1, rule, surjective).min_bad <= solve(g, k, rule, surjective).min_bad


@settings(deadline=None)
@given(small_graphs(), st.integers(min_value=1, max_value=7))
def test_no_bad_edge_exactly_when_k_reaches_the_chromatic_number(g, k):
    if k > g.n:
        return
    chi = chromatic_number(g)
    for rule, surjective in SETTINGS:
        assert (solve(g, k, rule, surjective).min_bad == 0) == (k >= chi)


# The split at connected components rests on the next three properties.


@settings(deadline=None)
@given(small_graphs(), st.integers(min_value=1, max_value=7))
def test_surjectivity_never_raises_the_minimum(g, k):
    if k > g.n:
        return
    for rule in RuleMode:
        assert solve(g, k, rule, True).min_bad == solve(g, k, rule, False).min_bad


@settings(deadline=None)
@given(small_graphs(max_n=4), small_graphs(max_n=4), st.integers(min_value=1, max_value=4))
def test_union_minimum_is_the_sum_of_the_sides(g, h, k):
    union, _ = disjoint_union(g, h)
    for rule, surjective in SETTINGS:
        if surjective and k > union.n:
            continue
        expect = solve(g, k, rule, False).min_bad + solve(h, k, rule, False).min_bad
        assert solve(union, k, rule, surjective).min_bad == expect


@settings(deadline=None)
@given(small_graphs(max_n=4), small_graphs(max_n=4), st.integers(min_value=1, max_value=4))
def test_unrestricted_union_counts_multiply_without_surjectivity(g, h, k):
    union, _ = disjoint_union(g, h)
    rule = RuleMode.UNRESTRICTED
    (a, x), (b, y) = min_and_count(g, k, rule, False), min_and_count(h, k, rule, False)
    assert min_and_count(union, k, rule, False) == (a + b, x * y)


@st.composite
def unions(draw, max_n=6, max_parts=4, isolated=0):
    """Disjoint unions of graphs on 1-4 vertices, isolated vertices among them, labels shuffled.

    Up to ``isolated`` more isolated vertices are added before the shuffle,
    which interleaves the components in index order.
    """
    edges, n = [], 0
    for size in draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=max_parts)):
        if n + size > max_n:
            break
        possible = [(u + n, v + n) for u in range(size) for v in range(u + 1, size)]
        if possible:
            edges += draw(st.lists(st.sampled_from(possible), unique=True))
        n += size
    n += draw(st.integers(min_value=0, max_value=min(isolated, max_n - n)))
    label = draw(st.permutations(range(n)))
    return Graph(n, tuple((label[u], label[v]) for u, v in edges))


# Each component's bound phase starts from the greedy coloring's bad edges:
# it beats them, proves them optimal, or is skipped when there are none.


@settings(deadline=None)
@given(unions(), st.integers(min_value=1, max_value=4))
@example(disjoint_union(Graph(1), NEAR_MISS_K2)[0], 2)
@example(disjoint_union(NEAR_MISS_K3, Graph(1))[0], 3)
def test_seeded_search_matches_both_oracles_on_unions(g, k):
    for rule, surjective in SETTINGS:
        if surjective and k > g.n:
            continue
        o = enumerate_oracle(g, k, rule, surjective)
        s = solve(g, k, rule, surjective, count_optimal=True)
        assert (s.min_bad, s.optimal_count, s.witness) == (o.min_bad, o.optimal_count, o.witness)
        s = solve(g, k, rule, surjective)  # from the witness census when g is connected
        assert (s.min_bad, s.witness) == (o.min_bad, o.witness)
        assert solve(g, k, rule, surjective).witness == o.witness
        assert partition_oracle(g, k, rule, surjective) == (o.min_bad, o.optimal_count)


# Counting searches each component on its own, in degree order, and combines
# the counts in closed form; the witness still comes from the index-order
# walk.  Components that interleave in index order separate the two orders.


@settings(deadline=None)
@given(unions(max_n=7, max_parts=5, isolated=2), st.integers(min_value=1, max_value=4))
@example(Graph(7, ((0, 3), (3, 6), (0, 6), (1, 4), (2, 5))), 2)
def test_count_walk_matches_both_oracles_on_interleaved_unions(g, k):
    for rule, surjective in SETTINGS:
        if surjective and k > g.n:
            continue
        o = enumerate_oracle(g, k, rule, surjective)
        s = solve(g, k, rule, surjective, count_optimal=True)
        assert (s.min_bad, s.optimal_count, s.witness) == (o.min_bad, o.optimal_count, o.witness)
        s = solve(g, k, rule, surjective)  # from the witness census when g is connected
        assert (s.min_bad, s.witness) == (o.min_bad, o.witness)
        assert solve(g, k, rule, surjective).witness == o.witness
        assert partition_oracle(g, k, rule, surjective) == (o.min_bad, o.optimal_count)


@settings(deadline=None, max_examples=50)
@given(unions(max_n=9, max_parts=6, isolated=3), st.integers(min_value=1, max_value=4))
def test_count_walk_matches_the_partition_oracle_on_larger_unions(g, k):
    for rule, surjective in SETTINGS:
        if surjective and k > g.n:
            continue
        assert min_and_count(g, k, rule, surjective) == partition_oracle(g, k, rule, surjective)


# count_optimal runs one census per component but no witness walk.


@settings(deadline=None, max_examples=60)
@given(unions(max_n=9, max_parts=6, isolated=3), st.integers(min_value=1, max_value=4))
@example(Graph(7, ((0, 3), (3, 6), (0, 6), (1, 4), (2, 5))), 2)
def test_count_optimal_without_a_witness_matches_solve_and_both_oracles(g, k):
    assume(not g.is_connected())
    for rule, surjective in SETTINGS:
        if surjective and k > g.n:
            continue
        count = count_optimal(g, k, rule, surjective)
        assert count == min_and_count(g, k, rule, surjective)[1]
        assert count == partition_oracle(g, k, rule, surjective)[1]
        if k**g.n <= 20_000:
            assert count == enumerate_oracle(g, k, rule, surjective).optimal_count


# Under the one-class rule the components with a positive minimum must put
# their bad edges in one shared color, while the others color properly, and
# isolated vertices take any color: unions of all three kinds exercise every
# factor of the closed form.


@st.composite
def clean_and_dirty_unions(draw):
    """(g, k): a tree (proper with k >= 2 colors), one or two copies of
    K_{k+1} (never proper), some with a pendant vertex, and isolated
    vertices, labels shuffled."""
    k = draw(st.integers(min_value=2, max_value=3))
    size = draw(st.integers(min_value=2, max_value=3))
    edges = [(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, size)]
    n = size
    for _ in range(draw(st.integers(min_value=1, max_value=4 - k))):
        edges += [(n + u, n + v) for u in range(k + 1) for v in range(u + 1, k + 1)]
        n += k + 1
        if draw(st.booleans()):
            edges.append((n - 1, n))
            n += 1
    n += draw(st.integers(min_value=1, max_value=2))
    label = draw(st.permutations(range(n)))
    return Graph(n, tuple((label[u], label[v]) for u, v in edges)), k


@settings(deadline=None, max_examples=40)
@given(clean_and_dirty_unions())
@example((Graph(10, ((0, 1), (2, 3), (2, 4), (3, 4), (5, 6), (5, 7), (6, 7))), 2))
def test_counts_of_clean_and_dirty_components_match_both_oracles(case):
    g, k = case
    for rule, surjective in SETTINGS:
        o = enumerate_oracle(g, k, rule, surjective)
        assert count_optimal(g, k, rule, surjective) == o.optimal_count
        assert min_and_count(g, k, rule, surjective) == partition_oracle(g, k, rule, surjective) == (
            o.min_bad,
            o.optimal_count,
        )
