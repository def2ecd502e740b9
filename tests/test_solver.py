"""The enumeration oracle, the branch-and-bound engine, and their agreement."""

import itertools
import math
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from nearcolor import (
    Coloring,
    Graph,
    InfeasibleError,
    InvalidParameterError,
    RuleMode,
    SizeLimitError,
    bad_edge_vertex_cover,
    bad_edges,
    chromatic_number,
    complete,
    corona,
    corona_formula,
    count_optimal,
    cycle,
    disjoint_union,
    enumerate_oracle,
    greedy_heuristic,
    helm,
    is_valid,
    join_bound,
    k_chromatic_subgraph,
    optimal_colorings,
    path,
    solve,
    union_bound,
    wheel,
)
from nearcolor import solver
from nearcolor.verify import random_connected_graph
from partition_oracle import partition_oracle


def brute_force(g, k, rule, surjective):
    """Dead-simple reference: filter all assignments through the public
    validity predicate, then minimize.  Guards the oracle itself."""
    best, count, witness = None, 0, None
    for assign in itertools.product(range(1, k + 1), repeat=g.n):
        c = Coloring(assign, k)
        if not is_valid(g, c, rule, surjective):
            continue
        bad = bad_edges(g, c).count
        if best is None or bad < best:
            best, count, witness = bad, 1, assign
        elif bad == best:
            count += 1
    return best, count, witness


@pytest.mark.parametrize("rule", [RuleMode.ONE_CLASS, RuleMode.UNRESTRICTED])
def test_oracle_matches_predicate_level_brute_force(rule):
    for g, k in [(cycle(5), 2), (complete(4), 2), (wheel(4)[0], 2), (path(5), 3)]:
        expect = brute_force(g, k, rule, True)
        got = enumerate_oracle(g, k, rule, True)
        assert (got.min_bad, got.optimal_count, got.witness.assignment) == expect


def test_oracle_known_values():
    res = enumerate_oracle(cycle(5), 2, RuleMode.ONE_CLASS, True)
    assert (res.min_bad, res.optimal_count) == (1, 10)
    assert enumerate_oracle(path(4), 1).min_bad == 3
    assert enumerate_oracle(complete(4), 2, RuleMode.UNRESTRICTED).min_bad == 2
    assert enumerate_oracle(complete(4), 2, RuleMode.ONE_CLASS).min_bad == 3


def test_oracle_witness_is_valid_and_achieves_minimum():
    for g, k in [(cycle(7), 2), (wheel(5)[0], 3), (complete(5), 3)]:
        res = enumerate_oracle(g, k)
        assert is_valid(g, res.witness, res.rule, res.surjective)
        assert bad_edges(g, res.witness).count == res.min_bad


def test_solve_known_values():
    assert solve(wheel(4)[0], 2, RuleMode.ONE_CLASS).min_bad == 2
    assert solve(helm(5)[0], 3, RuleMode.ONE_CLASS).min_bad == 1
    assert solve(complete(7), 4, RuleMode.ONE_CLASS).min_bad == 6
    rng = random.Random(23)
    for _ in range(5):
        g = random_connected_graph(rng, rng.randint(2, 8))
        assert solve(g, 1).min_bad == g.m  # one class: every edge is bad


def test_count_optimal_known_values():
    assert count_optimal(cycle(7), 2, RuleMode.ONE_CLASS) == 14
    assert count_optimal(wheel(4)[0], 2, RuleMode.ONE_CLASS) == 4
    assert count_optimal(complete(5), 3, RuleMode.ONE_CLASS) == 60


def phases(searches):
    """The phases of the ``searches`` fixture's record, in order."""
    return [phase for phase, _ in searches]


def test_count_optimal_runs_no_witness_walk(searches):
    g = disjoint_union(cycle(5), wheel(4)[0])[0]
    for rule, surjective in itertools.product(RuleMode, (True, False)):
        searches.clear()
        count = count_optimal(g, 2, rule, surjective)
        assert phases(searches) == ["census", "census"]  # one search per component, no bound phase
        searches.clear()
        assert solve(g, 2, rule, surjective, count_optimal=True).optimal_count == count
        assert phases(searches) == ["census", "census", "witness walk"]


def test_solve_agrees_with_oracle_on_seeded_instances(monkeypatch, searches):
    # Dense graphs and k = 4 are where the look-ahead bound prunes most.  A
    # witness-only solve takes the witness from the witness census; outside
    # index order, with its tie cap at 1 or 0 it leaves more of them to the
    # index-order walk.
    settled = Counter()  # (tie cap, degree order is index order, the searches a witness-only solve ran)
    cap = solver._TIES
    rng = random.Random(99)
    for p in [0.3] * 8 + [0.6] * 8 + [0.9] * 8:
        g = random_connected_graph(rng, rng.randint(4, 8), p)
        identity = solver._degree_order(g) == list(range(g.n))
        for k in (1, 2, 3, 4):
            for rule in RuleMode:
                for surjective in (True, False):
                    o = enumerate_oracle(g, k, rule, surjective)
                    s = solve(g, k, rule, surjective, count_optimal=True)
                    assert (o.min_bad, o.optimal_count, o.witness) == (
                        s.min_bad,
                        s.optimal_count,
                        s.witness,
                    )
                    for ties in (cap, 1, 0):
                        monkeypatch.setattr(solver, "_TIES", ties)
                        searches.clear()
                        s = solve(g, k, rule, surjective)
                        assert (s.min_bad, s.witness) == (o.min_bad, o.witness)
                        settled[ties, identity, tuple(phases(searches))] += 1
                    optima = [c.assignment for c in optimal_colorings(g, k, rule, surjective)]
                    assert optima == sorted(optima)
                    assert len(optima) == o.optimal_count
                    assert optima[0] == o.witness.assignment
    # Outside index order, cap 0 leaves every census's witness to the walk,
    # and the lower the cap, the more it leaves there.  In index order the
    # census settles the witness at every cap.
    census, both = ("witness census",), ("witness census", "witness walk")
    walked = [settled[ties, False, both] for ties in (cap, 1, 0)]
    assert settled[0, False, census] == 0 < walked[0] < walked[1] < walked[2]
    assert settled[0, True, census] > 0 == sum(settled[ties, True, both] for ties in (cap, 1, 0))


def test_identity_order_families_take_the_least_optimum_from_the_census(searches):
    # Degree order is index order on these graphs, so the witness census
    # keeps no ties and no walk follows.  Each is past the oracle's reach;
    # optimal_colorings walks its optima in index order, least first.
    ring = corona(cycle(6), complete(3))[0]
    cases = [(cycle(101), 2, RuleMode), (wheel(41)[0], 2, [RuleMode.ONE_CLASS]), (wheel(41)[0], 3, RuleMode),
             (helm(31)[0], 2, [RuleMode.ONE_CLASS]), (ring, 2, RuleMode)]
    for g, k, rules in cases:
        assert solver._degree_order(g) == list(range(g.n))
        for rule, surjective in itertools.product(rules, (True, False)):
            least = next(optimal_colorings(g, k, rule, surjective))
            searches.clear()
            s = solve(g, k, rule, surjective)
            assert phases(searches) == ["witness census"]
            assert (s.min_bad, s.witness) == (bad_edges(g, least).count, least)


def relabeled(g, new):
    """g with each vertex v renamed ``new[v]``."""
    return Graph(g.n, tuple((new[u], new[v]) for u, v in g.edges))


def test_identity_and_prefix_orders_agree_with_oracle(monkeypatch, searches):
    # Each seeded graph is relabeled two ways: by its degree order, which
    # then equals index order, and with its last vertex in degree order
    # moved to position p >= 1, so that degree order and index order agree
    # on their first p positions only.  At every tie cap a witness-only solve
    # gives the oracle's minimum and witness.  In index order a census level
    # keeps no tie and settles the witness, so at every cap no walk follows.
    rng = random.Random(61)
    relabelings = Counter()
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(4, 8), rng.choice((0.2, 0.5)))
        order = solver._degree_order(g)
        same = relabeled(g, {v: i for i, v in enumerate(order)})
        assert solver._degree_order(same) == list(range(g.n))
        degree = [len(a) for a in same.adj]
        tail = [p for p in range(1, g.n - 1) if degree[p] > degree[-1]]
        graphs = [(same, True)]
        if tail:
            p = rng.choice(tail)
            moved = list(range(p)) + [g.n - 1] + list(range(p, g.n - 1))
            prefix = relabeled(same, {v: i for i, v in enumerate(moved)})
            agree = [i == v for i, v in enumerate(solver._degree_order(prefix))]
            assert agree[:p + 1] == [True] * p + [False]
            graphs.append((prefix, False))
        for h, identity in graphs:
            relabelings[identity] += 1
            for k in (1, 2, 3, 4):
                for rule, surjective in itertools.product(RuleMode, (True, False)):
                    o = enumerate_oracle(h, k, rule, surjective)
                    seeded = solver._greedy(h, k, rule, False, list(range(h.n)))[0] > 0
                    for ties in (0, 1, 6):
                        monkeypatch.setattr(solver, "_TIES", ties)
                        searches.clear()
                        s = solve(h, k, rule, surjective)
                        assert (s.min_bad, s.witness) == (o.min_bad, o.witness)
                        if identity and seeded:
                            assert phases(searches) == ["witness census"]
    assert relabelings == {True: 10, False: 10}


def test_witness_walk_follows_a_census_whose_tie_cap_fires(monkeypatch, searches):
    # Ten pendants at indices 0-9 hang on a K4 at 10-13, which degree order
    # puts first, so the census order is not index order.  At k = 3 the
    # minimum is 1 with 6,144 canonical optima, so the census passes its tie
    # cap and the walk finds the witness at the proven minimum.
    g = Graph(14, tuple((i, 10 + i % 4) for i in range(10)) + tuple(itertools.combinations(range(10, 14), 2)))
    capped = (solver._TIES, ["witness census", "witness walk"])
    for rule, surjective in itertools.product(RuleMode, (True, False)):
        least = next(optimal_colorings(g, 3, rule, surjective))
        for ties, want in (capped, (10**4, ["witness census"])):
            monkeypatch.setattr(solver, "_TIES", ties)
            searches.clear()
            s = solve(g, 3, rule, surjective)
            assert phases(searches) == want
            assert (s.min_bad, s.witness) == (1, least)


def test_the_one_census_rule_agrees_with_the_oracle():
    # ``_census`` in index order from bound m, keyed by ``_relabel``.  At
    # every tie limit the incumbent is the minimum, and the record holds the
    # first ``ties + 1`` canonical optima, or all of them; in index order a
    # level's first key is its least, so the least key is the witness.  With
    # every tie kept, each key stands for perm(k, colors used) optima.
    rng = random.Random(33)
    graphs = [random_connected_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8))) for _ in range(12)]
    graphs += [disconnected_graph(rng, rng.randint(2, 8)) for _ in range(6)]
    limited = Counter()  # whether the tie limit left out some optima, over the finite limits
    for g in graphs:
        for k, rule, surjective in itertools.product((1, 2, 3, 4), RuleMode, (True, False)):
            if surjective and k > g.n:
                continue
            o = enumerate_oracle(g, k, rule, surjective)
            for ties in (math.inf, 6, 1, 0):
                found, seen = solver._census(g, k, rule, surjective, range(g.n), g.m, solver._Budget(),
                                             solver._relabel, ties)
                assert found == o.min_bad
                assert min(seen) == o.witness.assignment
                if ties == math.inf:
                    optima = seen
                    assert sum(math.perm(k, max(key)) for key in seen) == o.optimal_count
                else:
                    assert len(seen) == min(ties + 1, len(optima)) and seen.keys() <= optima.keys()
                    limited[len(seen) < len(optima)] += 1
    assert limited[True] and limited[False]


def test_search_shares_one_row_among_vertices_without_neighbours():
    # A 3000 x 3000 counter table would take about 70 MiB before the first
    # placement; the isolated vertices share one row instead.
    g = Graph(3000)
    tracemalloc.start()
    try:
        res = solve(g, 3000, surjective=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.min_bad == 0 and res.witness.assignment == (1,) * 3000
    assert peak < 8 * 2**20


def test_partition_oracle_agrees_with_solve_and_enumeration():
    # The subset DP shares no code with either DFS.  It reaches n = 10, where
    # enumerating k**n assignments is too slow; enumeration joins below that.
    rng = random.Random(8)
    for p in (0.3, 0.6, 0.9):
        for n in (1, 3, 5, 7, 8, 9, 10):
            g = random_connected_graph(rng, n, p)
            for k in (1, 2, 3, 4):
                for rule in RuleMode:
                    for surjective in (True, False):
                        if surjective and k > n:
                            continue
                        expect = partition_oracle(g, k, rule, surjective)
                        s = solve(g, k, rule, surjective, count_optimal=True)
                        assert (s.min_bad, s.optimal_count) == expect
                        if k**n <= 20_000:
                            o = enumerate_oracle(g, k, rule, surjective)
                            assert (o.min_bad, o.optimal_count) == expect


def disconnected_graph(rng, n):
    """Two to four random components (some maybe single vertices) on n vertices, labels shuffled."""
    cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(1, 3))))
    edges, start = [], 0
    for end in cuts + [n]:
        part = random_connected_graph(rng, end - start, rng.choice((0.3, 0.6, 0.9)))
        edges += [(u + start, v + start) for u, v in part.edges]
        start = end
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, tuple((label[u], label[v]) for u, v in edges))


def test_split_at_components_agrees_with_both_oracles():
    # Shuffled labels interleave the components in the index-order walk.
    rng = random.Random(12)
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 10):
        g = disconnected_graph(rng, n)
        assert not g.is_connected()
        for k in (1, 2, 3, 4):
            for rule in RuleMode:
                for surjective in (True, False):
                    if surjective and k > n:
                        continue
                    counted = solve(g, k, rule, surjective, count_optimal=True)
                    witness = solve(g, k, rule, surjective)
                    assert witness.min_bad == counted.min_bad
                    assert witness.witness == counted.witness
                    assert is_valid(g, witness.witness, rule, surjective)
                    assert bad_edges(g, witness.witness).count == witness.min_bad
                    expect = partition_oracle(g, k, rule, surjective)
                    assert (counted.min_bad, counted.optimal_count) == expect
                    if k**n <= 20_000:
                        o = enumerate_oracle(g, k, rule, surjective)
                        assert (o.min_bad, o.optimal_count, o.witness) == (
                            counted.min_bad,
                            counted.optimal_count,
                            witness.witness,
                        )


# Graphs on which the greedy coloring misses the one-class minimum by one
# bad edge: at k = 2 it finds 5 of 4, at k = 3 it finds 1 of 0.
NEAR_MISS_K2 = Graph(7, ((0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5),
                         (3, 5), (4, 5), (5, 6)))
NEAR_MISS_K3 = Graph(7, ((0, 1), (0, 2), (0, 3), (0, 6), (1, 2), (1, 4), (1, 5), (2, 5), (2, 6), (3, 4), (3, 5),
                         (3, 6)))


def test_greedy_seed_bounds_each_component_from_above():
    # The bound phase of each component starts from the greedy coloring's bad
    # edges, H: the search beats H, proves it optimal, or is skipped at H = 0.
    rng = random.Random(21)
    graphs = [disconnected_graph(rng, rng.randint(2, 8)) for _ in range(30)]
    graphs += [disjoint_union(Graph(1), g)[0] for g in (NEAR_MISS_K2, NEAR_MISS_K3)]
    seen = set()
    for g in graphs:
        for k in (1, 2, 3, 4):
            for rule in RuleMode:
                for part in g.components():
                    sub, _ = g.induced_subgraph(part)
                    h, colors, _ = solver._greedy(sub, k, rule, False, solver._degree_order(sub))
                    seed = Coloring(tuple(colors), k)
                    assert is_valid(sub, seed, rule, False) and bad_edges(sub, seed).count == h
                    best = partition_oracle(sub, k, rule, False)[0]
                    assert h >= best
                    beaten = f"{min(h, 2)} beaten by {min(h - best, 2)}"
                    seen.add("skipped" if h == 0 else "proved" if h == best else beaten)
                for surjective in (True, False):
                    if surjective and k > g.n:
                        continue
                    s = solve(g, k, rule, surjective, count_optimal=True)
                    assert (s.min_bad, s.optimal_count) == partition_oracle(g, k, rule, surjective)
                    assert solve(g, k, rule, surjective).witness == s.witness
    assert seen == {"skipped", "proved", "1 beaten by 1", "2 beaten by 1", "2 beaten by 2"}


def test_polish_keeps_a_valid_coloring_between_the_minimum_and_the_greedy_bound():
    # Under the unrestricted rule the polish leaves a coloring in place and
    # returns its bad edges: never more than the greedy's H, never fewer
    # than the minimum with surjectivity off.  A witness-only solve, whose
    # census starts from that count (from H under the one-class rule),
    # still gives the oracle's minimum and witness under both rules.
    rng = random.Random(29)
    outcomes = Counter()
    for p in (0.3, 0.6, 0.9) * 6:
        g = random_connected_graph(rng, rng.randint(4, 8), p)
        for k, rule in itertools.product((1, 2, 3, 4), RuleMode):
            if rule is RuleMode.UNRESTRICTED:
                h, colors, tab = solver._greedy(g, k, rule, False, solver._degree_order(g))
                polished = solver._polish(g, colors, tab, h)
                assert bad_edges(g, Coloring(tuple(colors), k)).count == polished
            for surjective in (False, True) if k <= g.n else (False,):
                o = enumerate_oracle(g, k, rule, surjective)
                s = solve(g, k, rule, surjective)
                assert (s.min_bad, s.witness) == (o.min_bad, o.witness)
                if not surjective and rule is RuleMode.UNRESTRICTED:
                    assert o.min_bad <= polished <= h
                    outcomes[polished < h, polished == o.min_bad] += 1
    assert outcomes == {(False, True): 68, (True, True): 4}


def test_only_the_witness_census_polishes_its_seed(monkeypatch):
    """A witness-only unrestricted solve of a connected graph with H > 0
    polishes its greedy seed once; no other search polishes one.  Under the
    one-class rule the polish lowered none of the benchmark's 96 golden
    one-class seeds, so a one-class witness census starts from H.
    Polishing every component's seed made a best-of-5 replay of the
    benchmark's golden count-union calls 16-17% slower: their components
    have 3 to 15 vertices, and the greedy seed is already the minimum for
    216 of the 321 distinct ones, so the polish there costs more than it
    saves."""
    polished = []
    polish = solver._polish
    monkeypatch.setattr(solver, "_polish", lambda g, *args: polished.append(g.n) or polish(g, *args))
    g = random_connected_graph(random.Random(5), 12, 0.4)
    for rule, surjective in itertools.product(RuleMode, (True, False)):
        polished.clear()
        solve(g, 2, rule, surjective)
        assert polished == ([12] if rule is RuleMode.UNRESTRICTED else [])
    h = path(4)
    calls = [
        lambda: solve(h, 2),  # H = 0: no census
        lambda: solve(disjoint_union(g, g)[0], 2),  # disconnected: bound phases and the walk
        lambda: count_optimal(g, 2),
        lambda: solve(g, 2, count_optimal=True),
        lambda: union_bound(g, h, 2),
        lambda: join_bound(cycle(5), h, 2),
        lambda: corona_formula(cycle(5), complete(2), 2),
        lambda: chromatic_number(g),
        lambda: greedy_heuristic(g, 2),
    ]
    polished.clear()
    for call in calls:
        call()
    assert polished == []


def test_split_builds_the_induced_subgraphs_without_checks():
    rng = random.Random(22)
    for _ in range(40):
        g = disconnected_graph(rng, rng.randint(2, 12))
        parts = g.components()
        split = solver._split(g, parts)
        assert [part for part, _ in split] == [part for part in parts if len(part) > 1]
        for part, sub in split:
            want, _ = g.induced_subgraph(part)
            assert (sub, sub.adj, repr(sub)) == (want, want.adj, repr(want))


def test_components_without_an_edge_are_never_searched(monkeypatch):
    # An isolated vertex has minimum 0 and chromatic number 1, so only the
    # triangle and the edge get a greedy seed, a bound phase and a chi search.
    g = Graph(9, ((1, 2), (1, 3), (2, 3), (5, 7)))
    seeded, searched = [], []
    greedy, search = solver._greedy, solver._search
    monkeypatch.setattr(solver, "_greedy", lambda sub, *args: seeded.append(sub.n) or greedy(sub, *args))
    monkeypatch.setattr(solver, "_search", lambda sub, *args: searched.append(sub.n) or search(sub, *args))
    for rule in RuleMode:
        for surjective in (True, False):
            seeded.clear()
            s = solve(g, 2, rule, surjective, count_optimal=True)
            assert (s.min_bad, s.optimal_count) == partition_oracle(g, 2, rule, surjective)
            assert seeded == [3, 2]
    searched.clear()
    assert chromatic_number(g) == 3
    assert set(searched) == {3, 2}
    searched.clear()
    assert solve(Graph(1000), 2).min_bad == 0 and chromatic_number(Graph(1000)) == 1
    assert searched == [1000]  # the optimum walk alone


def random_graph(seed, n=16, p=0.3):
    rng = random.Random(seed)
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))


def test_union_of_two_16_vertex_graphs_fits_a_small_work_budget():
    # Counting each unentered component at its minimum keeps the index-order
    # walk small; a walk bounded by placed neighbours alone makes 617,847.
    # The seeded bound phases make 151 placements and the walk 345, down
    # from 456 before the walk's clique credit.
    g, h = random_graph(1), random_graph(2)
    assert union_bound(g, h, 3).exact == 2
    u, _ = disjoint_union(g, h)
    assert solve(u, 3, work_budget=496).min_bad == 2
    with pytest.raises(SizeLimitError):
        solve(u, 3, work_budget=495)


def credit_instances():
    """Seeded graphs on 6 to 8 vertices with each component's minimum under
    ``rule`` as ``drop`` at its first vertex, for k = 1..3: unions of dense
    parts, with several (k + 1)-cliques, and of isolated vertices."""
    rng = random.Random(47)
    for _ in range(40):
        g = Graph(0)
        while g.n < 6:
            n = rng.choice((1, 3, 5, 7, 8))
            part = Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.7))
            g, _ = disjoint_union(g, part)
        if g.n > 8:
            continue
        parts = g.components()
        for k in (1, 2, 3):
            for rule in RuleMode:
                for surjective in (True, False):
                    whole = surjective and len(parts) == 1
                    drop = [0] * g.n
                    for part in parts:
                        sub, _ = g.induced_subgraph(part)
                        drop[part[0]] = enumerate_oracle(sub, k, rule, whole).min_bad if sub.m else 0
                    if sum(drop) and k <= g.n:
                        yield g, k, rule, surjective, parts, drop


def test_clique_credit_keeps_each_minimum_and_is_admissible():
    moved = 0
    for g, k, _, _, parts, drop in credit_instances():
        credited = list(drop)
        solver._cliques(g, k, parts, credited)
        assert min(credited) >= 0
        for part in parts:
            f = part[0]
            assert sum(credited[v] for v in part) == drop[f]
            for i in part[1:]:
                suffix = [v for v in part if v >= i]
                sub, _ = g.induced_subgraph(suffix)
                floor = enumerate_oracle(sub, k, RuleMode.UNRESTRICTED, False).min_bad
                assert sum(credited[v] for v in suffix) <= floor
                moved += credited[i] > 0
    assert moved > 50  # positions that the credit reaches


def test_clique_credit_reaches_the_same_first_leaf_in_fewer_placements():
    fewer = 0
    for g, k, rule, surjective, parts, drop in credit_instances():
        credited = list(drop)
        solver._cliques(g, k, parts, credited)
        walks = []
        for d in (drop, credited):
            budget, first = solver._Budget(), []

            def leaf(colors, bad, used):
                first.append((tuple(colors), bad))
                return -1

            solver._search(g, k, rule, surjective, range(g.n), sum(drop), leaf, budget, d)
            walks.append((first, budget.spent))
        (plain, plain_spent), (fast, fast_spent) = walks
        assert fast == plain and len(plain) == 1
        assert fast_spent <= plain_spent
        fewer += fast_spent < plain_spent
    assert fewer > 20


def test_clique_credit_stays_linear_on_large_sparse_graphs():
    # The walk meets a path's minimum at k = 1 in about n placements, so the
    # credit set-up must cost no more than that: masks indexed by vertex
    # number would hold about n^2 / 16 bytes, 625 MB at this size.
    assert solve(path(100_000), 1).min_bad == 99_999
    # The packing's memory stays linear too, also when every edge reaches
    # the last vertex, where vertex-indexed masks would hold 25-50 MB.
    n = 20_000
    for g in (path(n), Graph(n, tuple((v, n - 1) for v in range(n - 1)))):
        parts, drop = g.components(), [n - 1] + [0] * (n - 1)
        tracemalloc.start()
        solver._cliques(g, 1, parts, drop)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 600 * n
        assert drop[0] == 1 and sum(drop) == n - 1


def test_union_of_two_16_vertex_graphs_counts_within_a_small_work_budget():
    # Each component is counted on its own and the counts are combined in
    # closed form, so the count does not visit the product of the two
    # components' optima: its censuses make 1,932 and 6,114 placements,
    # where walking that product in index order made 990,478 and 1,235,638.
    u, _ = disjoint_union(random_graph(1), random_graph(2))
    for rule, expect in ((RuleMode.ONE_CLASS, 40608), (RuleMode.UNRESTRICTED, 235872)):
        res = solve(u, 3, rule, work_budget=100_000, count_optimal=True)
        assert (res.min_bad, res.optimal_count) == (2, expect)


def test_disconnected_g15_counts_fit_the_default_work_budget():
    # The one disconnected G(15, 0.2) of seeds 0-19 whose k = 4 counts ran
    # past the default budget when the count walked the product of its
    # components' optima: a 7- and a 6-vertex component and two isolated
    # vertices.  Counting each component on its own makes 337 placements
    # in each setting.
    g = random_graph(0, n=15, p=0.2)
    assert [len(part) for part in g.components()] == [1, 7, 6, 1]
    for rule in RuleMode:
        for surjective, expect in ((True, 44_686_176), (False, 45_349_632)):
            assert count_optimal(g, 4, rule, surjective) == expect


def test_deep_searches_fit_the_interpreter_stack():
    # The search goes one Python frame deeper per vertex.
    limit = sys.getrecursionlimit()
    assert solve(path(3000), 1).min_bad == 2999
    matching = Graph(3000, tuple((v, v + 1) for v in range(0, 3000, 2)))
    assert solve(matching, 2).witness.assignment == (1, 2) * 1500
    # The greedy seed colors a path properly, so no bound phase runs and the
    # index-order walk makes 1 + 2 * 2999 placements.  One fewer runs out
    # at the last vertex, 3000 frames deep, past the default recursion limit.
    assert solve(path(3000), 2, work_budget=5999).min_bad == 0
    with pytest.raises(SizeLimitError):
        solve(path(3000), 2, work_budget=5998)
    # The census of one component goes as deep as that component: 3000
    # frames on the path, 2 on each of the matching's 1500 edges.
    assert count_optimal(path(3000), 2, RuleMode.UNRESTRICTED) == 2
    assert count_optimal(matching, 2, RuleMode.ONE_CLASS, False) == 2**1500
    assert count_optimal(matching, 2, RuleMode.UNRESTRICTED) == 2**1500
    assert sys.getrecursionlimit() == limit


def brute_force_optima(g, k, rule, surjective):
    """Every optimal assignment, in lexicographic order, by a plain scan."""
    best, optima = None, []
    for assign in itertools.product(range(1, k + 1), repeat=g.n):
        if surjective and len(set(assign)) != k:
            continue
        dirty = {assign[u] for u, v in g.edges if assign[u] == assign[v]}
        if rule is RuleMode.ONE_CLASS and len(dirty) > 1:
            continue
        bad = sum(1 for u, v in g.edges if assign[u] == assign[v])
        if best is None or bad < best:
            best, optima = bad, []
        if bad == best:
            optima.append(assign)
    return optima


def test_optima_with_unused_colors_agree_with_oracle_and_brute_force():
    # k = 4, 5 on small graphs with isolated vertices: optima that leave
    # colors unused stand for fewer than k! labelled copies each.
    rng = random.Random(2024)
    short_optima = 0
    for _ in range(10):
        n = rng.randint(1, 6)
        p = rng.choice((0.2, 0.5, 0.8))
        g = Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p))
        for k in (4, 5):
            for rule in RuleMode:
                for surjective in (True, False):
                    if surjective and k > n:
                        with pytest.raises(InfeasibleError):
                            solve(g, k, rule, surjective)
                        continue
                    o = enumerate_oracle(g, k, rule, surjective)
                    s = solve(g, k, rule, surjective, count_optimal=True)
                    assert (s.min_bad, s.optimal_count, s.witness) == (
                        o.min_bad,
                        o.optimal_count,
                        o.witness,
                    )
                    expect = brute_force_optima(g, k, rule, surjective)
                    got = [c.assignment for c in optimal_colorings(g, k, rule, surjective)]
                    assert got == expect
                    short_optima += sum(1 for a in expect if len(set(a)) < k)
    assert short_optima > 0


def test_solve_is_deterministic():
    g = random_connected_graph(random.Random(5), 8)
    results = [
        solve(g, 2, RuleMode.ONE_CLASS, True, count_optimal=True)
        for _ in range(3)
    ]
    assert all(r == results[0] for r in results)


def test_optimal_colorings_are_lexicographic_valid_and_complete():
    g = cycle(5)
    colorings = list(optimal_colorings(g, 2))
    assert len(colorings) == 10
    assignments = [c.assignment for c in colorings]
    assert assignments == sorted(assignments)
    assert all(bad_edges(g, c).count == 1 for c in colorings)


def test_infeasible_and_invalid_parameters():
    with pytest.raises(InfeasibleError):
        enumerate_oracle(path(2), 3, surjective=True)
    with pytest.raises(InfeasibleError):
        solve(path(2), 3, surjective=True)
    with pytest.raises(InvalidParameterError):
        solve(path(2), 0)
    # with surjectivity off, spare colors are allowed
    assert solve(path(2), 3, surjective=False).min_bad == 0


def test_surjective_count_of_1000_isolated_vertices_onto_100_colors():
    # The surjections of 1000 items onto 100 colors number 100! * S(1000, 100),
    # S the Stirling number of the second kind: S(n, j) = j S(n-1, j) + S(n-1, j-1).
    stirling = [1] + [0] * 100
    for _ in range(1000):
        stirling = [0] + [j * stirling[j] + stirling[j - 1] for j in range(1, 101)]
    assert count_optimal(Graph(1000), 100) == math.factorial(100) * stirling[100]


def test_surjective_count_with_k_times_n_over_the_budget_is_refused_up_front(monkeypatch):
    g = disjoint_union(complete(3), Graph(97))[0]  # k * n = 5000 at k = 50
    assert solve(g, 50, work_budget=5000, count_optimal=True).optimal_count == count_optimal(g, 50)
    monkeypatch.setattr(solver, "_search", None)  # refused before any search
    with pytest.raises(SizeLimitError, match=r"^exact search exceeds its work budget of 4999 "):
        solve(g, 50, work_budget=4999, count_optimal=True)
    with pytest.raises(SizeLimitError):
        count_optimal(Graph(2001), 1000)
    monkeypatch.undo()
    assert solve(g, 50, surjective=False, work_budget=4999, count_optimal=True).optimal_count
    assert solve(g, 50, work_budget=4999).min_bad == 0


def test_spare_colors_beyond_n_add_no_setup_cost():
    # A canonical assignment of n vertices uses at most n colors, so the
    # kernel's and the heuristic's color tables stop growing at n.
    k = 10**5
    result = solve(path(3), k, surjective=False, count_optimal=True)
    assert result.optimal_count == k * (k - 1) ** 2
    assert solve(path(3), 10**7, surjective=False).witness.assignment == (1, 2, 1)
    assert greedy_heuristic(path(3), 10**7, surjective=False).min_bad == 0


def test_enumeration_cap(monkeypatch):
    class ColorCount(int):
        def __pow__(self, n):
            raise AssertionError("k**n was computed")

    # 4**14 assignments are above the 10**8 cap, so the oracle raises before it scans.
    monkeypatch.setattr(solver, "itertools", None)
    with pytest.raises(SizeLimitError, match=r"^enumerating 4\*\*14 assignments exceeds cap 100000000$"):
        enumerate_oracle(complete(14), 4)
    # (10**6)**(10**6) has 20 million bits; the cap refuses it without building it.
    with pytest.raises(SizeLimitError, match=r"^enumerating 1000000\*\*1000000 assignments exceeds cap 100000000$"):
        enumerate_oracle(Graph(10**6), ColorCount(10**6), surjective=False)


def test_every_exact_entry_point_honours_the_cap():
    rng = random.Random(0)  # 40 vertices, p = 0.3: k = 3 runs over the default work budget
    g = Graph(40, tuple((u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.3))
    with pytest.raises(SizeLimitError):
        solve(g, 3)
    with pytest.raises(SizeLimitError):
        list(optimal_colorings(g, 3))


def test_optimal_colorings_count_their_optima_before_building_them(monkeypatch):
    # helm(9) at k = 3 has 55,296 labeled optima: counting them takes 27,857
    # placements and the whole call 55,714, on one budget.  A budget that
    # cannot count them raises before any optimum is built, and one that
    # can count them raises if there are more optima than it allows.
    g = helm(9)[0]
    monkeypatch.setattr(solver, "DEFAULT_WORK_BUDGET", 20_000)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=r"^exact search exceeds its work budget of 20000 "):
            list(optimal_colorings(g, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    for budget in (50_000, 55_713):
        monkeypatch.setattr(solver, "DEFAULT_WORK_BUDGET", budget)
        with pytest.raises(SizeLimitError, match=f"^exact search exceeds its work budget of {budget} "):
            next(optimal_colorings(g, 3))
    monkeypatch.setattr(solver, "DEFAULT_WORK_BUDGET", 55_714)
    assert sum(1 for _ in optimal_colorings(g, 3)) == 55_296


def test_optimal_colorings_prove_their_minimum_once(searches):
    # The census that counts the optima also proves the minimum, so the
    # walk follows it with no bound phase between them.
    for g, k in ((cycle(5), 2), (helm(5)[0], 3), (complete(5), 3)):
        for rule, surjective in itertools.product(RuleMode, (True, False)):
            searches.clear()
            optima = list(optimal_colorings(g, k, rule, surjective))
            assert phases(searches) == ["census", "witness walk"]
            assert len(optima) == count_optimal(g, k, rule, surjective)


def test_optimal_colorings_refuse_a_large_output_before_walking():
    # 20 isolated vertices have 3**20 optima under 3 colors; their census
    # costs nothing, and the walk that would build them never starts.
    g = Graph(20)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=r"^exact search exceeds its work budget of 2000000 "):
            next(optimal_colorings(g, 3, surjective=False))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_one_work_budget_covers_every_search_of_a_call(monkeypatch):
    # Counting K10 with 4 colors makes 1409 candidate placements in the
    # census and 22 in the witness walk (up to its first leaf); the call is
    # charged for both.
    assert solve(complete(10), 4, work_budget=1431, count_optimal=True).optimal_count == 2880
    with pytest.raises(SizeLimitError):
        solve(complete(10), 4, work_budget=1430, count_optimal=True)
    # chi(K6) tries k = 2..6 for 55 placements in all, at most 21 for one k.
    monkeypatch.setattr("nearcolor.solver.DEFAULT_WORK_BUDGET", 55)
    assert chromatic_number(complete(6)) == 6
    monkeypatch.setattr("nearcolor.solver.DEFAULT_WORK_BUDGET", 54)
    with pytest.raises(SizeLimitError):
        chromatic_number(complete(6))
    # k_chromatic_subgraph(K5, 3) makes 43 placements to solve K5 (one
    # witness census, no walk), is charged 12 for the vertex cover of the
    # witness's 3 bad edges (four subsets tested, 3 each) and makes 9
    # placements for the chromatic number of the K3 left; one budget covers
    # all three.
    monkeypatch.setattr("nearcolor.solver.DEFAULT_WORK_BUDGET", 64)
    assert k_chromatic_subgraph(complete(5), 3).chromatic == 3
    monkeypatch.setattr("nearcolor.solver.DEFAULT_WORK_BUDGET", 63)
    with pytest.raises(SizeLimitError):
        k_chromatic_subgraph(complete(5), 3)


def test_reference_instance_r22_fits_the_default_work_budget():
    # R22: random.Random(1) draws 98 of the 231 edges of K22; k = 3, surjective.
    # Pruning on placed bad edges alone spends 1,222,682 placements on the
    # unrestricted bound phase and runs out in the optimum walk.
    edges = random.Random(1).sample(list(itertools.combinations(range(22), 2)), 98)
    g = Graph(22, tuple(edges))
    for rule, expect in ((RuleMode.UNRESTRICTED, (13, 96)), (RuleMode.ONE_CLASS, (25, 30))):
        res = solve(g, 3, rule, True, count_optimal=True)
        assert (res.min_bad, res.optimal_count) == expect


def test_bad_edge_vertex_cover():
    g = cycle(5)
    proper = Coloring((1, 2, 1, 2, 3), 3)
    assert bad_edge_vertex_cover(g, proper) == ()
    one_bad = Coloring((1, 2, 1, 2, 2), 2)  # bad edge between vertices 3 and 4
    assert bad_edge_vertex_cover(g, one_bad) == (3,)
    k4 = complete(4)
    assert bad_edge_vertex_cover(k4, Coloring((1, 1, 1, 2), 2)) == (0, 1)


def test_bad_edge_vertex_cover_honours_the_work_budget(monkeypatch):
    # K4 colored (1, 1, 1, 2): 3 bad edges; subsets (0,), (1,), (2,), (0, 1) are tested.
    k4, coloring = complete(4), Coloring((1, 1, 1, 2), 2)
    monkeypatch.setattr("nearcolor.solver.DEFAULT_WORK_BUDGET", 12)
    assert bad_edge_vertex_cover(k4, coloring) == (0, 1)
    monkeypatch.setattr("nearcolor.solver.DEFAULT_WORK_BUDGET", 11)
    with pytest.raises(SizeLimitError, match="exceeds its work budget of 11 candidate placements"):
        bad_edge_vertex_cover(k4, coloring)
    monkeypatch.undo()
    # R22 with one color: 98 bad edges over 22 endpoints, cover 17; the full
    # scan runs for seconds, so the default budget must stop it.
    edges = random.Random(1).sample(list(itertools.combinations(range(22), 2)), 98)
    g = Graph(22, tuple(edges))
    with pytest.raises(SizeLimitError):
        bad_edge_vertex_cover(g, Coloring((1,) * 22, 1))


def test_bad_edge_vertex_cover_is_minimum_on_random_colorings():
    rng = random.Random(17)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(3, 7))
        k = rng.randint(1, 3)
        c = Coloring(tuple(rng.randint(1, k) for _ in range(g.n)), k)
        cover = bad_edge_vertex_cover(g, c)
        bad = bad_edges(g, c).edges
        assert all(u in cover or v in cover for u, v in bad)
        # no smaller subset of bad-edge endpoints covers everything
        verts = sorted({x for e in bad for x in e})
        for size in range(len(cover)):
            assert not any(
                all(u in set(sub) or v in set(sub) for u, v in bad)
                for sub in itertools.combinations(verts, size)
            )


def test_k_chromatic_subgraph_contract():
    res = k_chromatic_subgraph(cycle(5), 2)
    assert res.chromatic == 2
    assert res.subgraph.n == 4
    assert len(res.removed) == 1
    res = k_chromatic_subgraph(complete(5), 3)
    assert res.chromatic == 3
    assert res.subgraph.edges == complete(3).edges
    # k must stay below the chromatic number, and below n
    for g, k in ((cycle(5), 3), (cycle(6), 0), (cycle(5), 6), (complete(4), 4), (cycle(6), 2)):
        with pytest.raises(InvalidParameterError):
            k_chromatic_subgraph(g, k)


def test_heuristic_returns_valid_upper_bound():
    rng = random.Random(31)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(4, 9))
        for k in range(1, 5):
            for rule in RuleMode:
                for surjective in (True, False):
                    res = greedy_heuristic(g, k, rule, surjective)
                    assert res.exact is False
                    assert is_valid(g, res.witness, rule, surjective)
                    assert bad_edges(g, res.witness).count == res.min_bad
                    assert res.min_bad >= solve(g, k, rule, surjective).min_bad


def test_heuristic_handles_larger_graph_than_enumeration_cap():
    rng = random.Random(3000)
    edges = set()
    while len(edges) < 7500:
        edges.add(tuple(sorted(rng.sample(range(3000), 2))))
    for g in (random_connected_graph(random.Random(41), 40, extra_edge_prob=0.15), Graph(3000, tuple(edges))):
        res = greedy_heuristic(g, 3, RuleMode.ONE_CLASS, True)
        assert res.exact is False
        assert is_valid(g, res.witness, RuleMode.ONE_CLASS, True)
        assert bad_edges(g, res.witness).count == res.min_bad


def cascade_graph(length):
    """A chain 0..length-1 whose greedy coloring is repaired one vertex per pass.

    Posts p1 and p1b take color 1 and p2 color 2 (four leaves each put p1 and
    p1b first in degree order).  Each chain vertex j >= 1 has two anchors
    that the construction gives j's own color, one bad edge each: next to
    p2 for odd j, next to p1 and p1b for even j.  The chain alternates, so
    every chain vertex ties between its two colors except the last, which
    moves in the first pass.  Each move tips the chain vertex below, which
    the index-order pass has already left behind, so it moves in the next.
    """
    p1, p1b, p2 = length, length + 1, length + 2
    edges = [(j, j + 1) for j in range(length - 1)] + [(p1, p2), (p1b, p2)]
    v = length + 3
    for j in range(1, length):
        for _ in range(2):
            edges += [(j, v), (p2, v)] if j % 2 else [(j, v), (p1, v), (p1b, v)]
            v += 1
    for p in (p1, p1b):
        edges += [(p, v + i) for i in range(4)]
        v += 4
    return Graph(v, tuple(edges))


def test_heuristic_pins_its_repair_and_its_pass_cap():
    # The construction leaves a color unused only on a proper coloring, and
    # the repair keeps it proper, so no one input reaches both steps.  The
    # repair moves the smallest vertex of a class of two or more.
    assert greedy_heuristic(path(4), 3).witness.assignment == (3, 1, 2, 1)
    assert greedy_heuristic(path(4), 4).witness.assignment == (3, 4, 2, 1)
    # The chain needs 22 improving passes and GREEDY_MAX_ROUNDS = 20 stops
    # two short: 19 passes leave 5 bad edges, 20 leave 3, 21 would leave 1.
    g = cascade_graph(22)
    res = greedy_heuristic(g, 2, RuleMode.UNRESTRICTED, False)
    assert res.min_bad == 3 == bad_edges(g, res.witness).count
    chain, posts, anchors, leaves = "2112121212121212121212", "112", "1122" * 10 + "11", "2" * 8
    assert "".join(map(str, res.witness.assignment)) == chain + posts + anchors + leaves
