"""Graph construction, family generators, operations, and chromatic number."""

import random
import tracemalloc

import pytest

from nearcolor import (
    Graph,
    InvalidParameterError,
    RuleMode,
    SizeLimitError,
    chromatic_number,
    complete,
    corona,
    cycle,
    disjoint_union,
    enumerate_oracle,
    helm,
    join,
    path,
    wheel,
)


def mycielski(order: int) -> Graph:
    """Mycielski graph M_order: triangle-free with chromatic number ``order``."""
    g = path(2)
    for _ in range(order - 2):
        n = g.n
        edges = list(g.edges)
        edges += [(u + n, v) for u, v in g.edges] + [(v + n, u) for u, v in g.edges]
        edges += [(i + n, 2 * n) for i in range(n)]
        g = Graph(2 * n + 1, tuple(edges))
    return g


def test_graph_normalizes_and_validates():
    g = Graph(4, ((3, 1), (0, 1), (2, 0)))
    assert g.edges == ((0, 1), (0, 2), (1, 3))
    assert g.m == 3
    assert g.degree(0) == 2
    assert g.adj[1] == frozenset({0, 3})


def test_graph_rejects_self_loop():
    with pytest.raises(InvalidParameterError):
        Graph(2, ((0, 0),))


def test_graph_rejects_duplicate_edges():
    with pytest.raises(InvalidParameterError):
        Graph(3, ((0, 1), (1, 0)))


def test_graph_rejects_out_of_range():
    with pytest.raises(InvalidParameterError):
        Graph(2, ((0, 2),))


def test_isolated_vertices_share_one_empty_neighbor_set():
    tracemalloc.start()
    try:
        g = Graph(10**6, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A set of its own per vertex costs over 200 bytes; the shared one costs a pointer.
    assert peak < 32 * 10**6
    assert g.adj[0] is g.adj[-1] and not g.adj[0]
    h = Graph(4, ((1, 2),))
    assert h.adj == (frozenset(), frozenset({2}), frozenset({1}), frozenset())


def test_adjacency_is_symmetric_and_degree_sum_is_twice_m():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 10)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, tuple(pairs))
        for u in range(n):
            for v in g.adj[u]:
                assert u in g.adj[v]
        assert sum(g.degree(v) for v in range(n)) == 2 * g.m


# --- generators -----------------------------------------------------------

def test_path_examples():
    assert path(2).m == 1
    g = path(5)
    assert (g.n, g.m) == (5, 4)
    assert sorted(g.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]
    assert chromatic_number(path(10)) == 2
    with pytest.raises(InvalidParameterError):
        path(1)


def test_cycle_examples():
    assert chromatic_number(cycle(3)) == 3
    assert chromatic_number(cycle(6)) == 2
    assert chromatic_number(cycle(7)) == 3
    assert all(cycle(5).degree(v) == 2 for v in range(5))
    with pytest.raises(InvalidParameterError):
        cycle(2)


def test_wheel_examples():
    g3, _ = wheel(3)
    assert g3.edges == complete(4).edges  # triangle rim plus hub is a 4-clique
    g4, labels = wheel(4)
    assert (g4.n, g4.m) == (5, 8)
    assert chromatic_number(g4) == 3
    assert g4.degree(labels["hub"]) == 4
    assert all(g4.degree(labels[f"rim[{i}]"]) == 3 for i in range(1, 5))
    assert chromatic_number(wheel(5)[0]) == 4
    with pytest.raises(InvalidParameterError):
        wheel(2)


def test_helm_examples():
    g3, labels = helm(3)
    assert (g3.n, g3.m) == (7, 9)
    g4, _ = helm(4)
    assert (g4.n, g4.m) == (9, 12)
    assert chromatic_number(helm(5)[0]) == 4
    for i in range(1, 4):
        pendant = labels[f"pendant[{i}]"]
        assert g3.degree(pendant) == 1
        assert g3.adj[pendant] == frozenset({labels[f"rim[{i}]"]})


def test_complete_examples():
    assert complete(1).m == 0
    assert complete(4).m == 6
    assert chromatic_number(complete(6)) == 6


def test_generators_are_connected_and_valid():
    gs = [path(6), cycle(8), wheel(5)[0], helm(4)[0], complete(5)]
    for g in gs:
        assert g.is_connected()


# --- operations -----------------------------------------------------------

def test_disjoint_union_counts_and_chromatic():
    u, _ = disjoint_union(complete(3), complete(3))
    assert (u.n, u.m) == (6, 6)
    assert not u.is_connected()
    assert chromatic_number(u) == max(chromatic_number(complete(3)), chromatic_number(complete(3)))
    v, _ = disjoint_union(path(2), cycle(5))
    assert (v.n, v.m) == (7, 6)


def test_join_of_triangles_is_six_clique():
    j, labels = join(complete(3), complete(3))
    assert j.edges == complete(6).edges
    assert chromatic_number(j) == 6
    assert labels["G[0]"] == 0 and labels["H[2]"] == 5


def test_join_chromatic_is_sum_on_small_cases():
    for g, h in [(path(3), cycle(5)), (complete(2), complete(3)), (cycle(4), path(2))]:
        j, _ = join(g, h)
        assert chromatic_number(j) == chromatic_number(g) + chromatic_number(h)


def test_wheel_is_join_of_hub_and_cycle():
    for n in range(3, 8):
        w, _ = wheel(n)
        j, _ = join(complete(1), cycle(n))
        assert w.edges == j.edges
        assert w.degree_sequence() == j.degree_sequence()


def test_corona_examples():
    k4, _ = corona(complete(1), complete(3))
    assert k4.edges == complete(4).edges
    sun, labels = corona(cycle(3), complete(1))
    assert (sun.n, sun.m) == (6, 6)
    assert sun.degree(labels["H[1][0]"]) == 1
    assert chromatic_number(corona(cycle(4), complete(1))[0]) == 2


def test_corona_edge_count_formula_random_pairs():
    rng = random.Random(11)
    builders = [path, cycle, complete, lambda n: wheel(n)[0]]
    for _ in range(20):
        g = rng.choice(builders)(rng.randint(3, 5))
        h = rng.choice(builders)(rng.randint(3, 4))
        c, _ = corona(g, h)
        assert c.n == g.n * (1 + h.n)
        assert c.m == g.m + g.n * (h.m + h.n)
        assert c.is_connected() == g.is_connected()


def test_role_maps_are_bijections_onto_the_vertices():
    operands = [(path(2), cycle(5)), (complete(1), complete(3)), (wheel(4)[0], path(3)), (Graph(0), cycle(3))]
    built = [wheel(n) for n in range(3, 7)] + [helm(n) for n in range(3, 7)]
    built += [op(g, h) for op in (disjoint_union, join, corona) for g, h in operands]
    for g, roles in built:
        assert isinstance(roles, dict)
        assert sorted(roles.values()) == list(range(g.n))


def test_components_are_ascending_and_ordered_by_smallest_vertex():
    g = Graph(7, ((0, 4), (4, 2), (1, 5), (5, 6)))
    assert g.components() == [[0, 2, 4], [1, 5, 6], [3]]
    assert not g.is_connected()
    assert Graph(0).components() == [] and Graph(0).is_connected()
    assert Graph(1).is_connected() and cycle(5).components() == [list(range(5))]
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(1, 12)
        g = Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.15))
        parts = g.components()
        assert sorted(v for part in parts for v in part) == list(range(n))
        assert [part[0] for part in parts] == sorted(part[0] for part in parts)
        for part in parts:
            assert part == sorted(part)
            sub, _ = g.induced_subgraph(part)
            assert sub.is_connected()
        where = {v: i for i, part in enumerate(parts) for v in part}
        assert all(where[u] == where[v] for u, v in g.edges)


def test_induced_subgraph_relabels_densely():
    g = cycle(5)
    sub, kept = g.induced_subgraph([1, 2, 3, 4])
    assert kept == (1, 2, 3, 4)
    assert sub.edges == ((0, 1), (1, 2), (2, 3))  # the path left after removing vertex 0


# --- chromatic number -----------------------------------------------------

def test_chromatic_number_cycle_parity():
    for n in range(3, 16):
        assert chromatic_number(cycle(n)) == (2 if n % 2 == 0 else 3)


def test_chromatic_number_cliques():
    for n in range(1, 8):
        assert chromatic_number(complete(n)) == n
    # triangle-free, so the chromatic number exceeds the clique number
    assert (mycielski(4).n, chromatic_number(mycielski(4))) == (11, 4)
    assert (mycielski(5).n, chromatic_number(mycielski(5))) == (23, 5)


def test_chromatic_number_is_smallest_k_without_bad_edges_in_the_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 8)
        p = rng.choice([0.2, 0.5, 0.8])
        g = Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))
        smallest = next(
            k for k in range(1, n + 1)
            if enumerate_oracle(g, k, RuleMode.UNRESTRICTED, surjective=False).min_bad == 0
        )
        assert chromatic_number(g) == smallest


def test_chromatic_number_is_the_largest_over_the_components(monkeypatch):
    u, _ = disjoint_union(complete(5), path(40))
    assert chromatic_number(u) == 5
    assert chromatic_number(disjoint_union(path(3), cycle(7))[0]) == 3
    assert chromatic_number(Graph(6, ((4, 5),))) == 2
    # K5 tries k = 1..5 for 35 placements; the path is then tried at k = 5
    # only, for 117.  All of it draws on one budget.
    monkeypatch.setattr("nearcolor.solver.DEFAULT_WORK_BUDGET", 152)
    assert chromatic_number(u) == 5
    monkeypatch.setattr("nearcolor.solver.DEFAULT_WORK_BUDGET", 151)
    with pytest.raises(SizeLimitError):
        chromatic_number(u)


def test_chromatic_number_helm5_needs_four_colors():
    assert chromatic_number(helm(5)[0]) == 4


def test_chromatic_number_size_limit():
    with pytest.raises(SizeLimitError):
        chromatic_number(mycielski(6))  # 47 vertices: the search for chi = 6 runs over the work budget
    # no vertex limit: only work counts
    assert chromatic_number(path(21)) == 2
    assert chromatic_number(cycle(41)) == 3
