"""Exact minimization of bad edges for a fixed color budget.

Two independent engines realize the same contract.  ``enumerate_oracle``
scans every assignment and is the ground truth the test suite is built on;
``solve`` is a pruned branch-and-bound search that must agree with the
oracle exactly on the minimum, the count of optimal colorings, and the
lexicographically smallest witness.

One search kernel, ``_search``, serves every exact entry point (``solve``,
``count_optimal``, ``optimal_colorings``), in up to three phases.  The
bound phase visits the vertices of each connected component in static
degree-descending order and prunes on the incumbent.  The witness walk
re-walks the tree in vertex-index order with the proven optimum as the
bound, so the first leaf it reaches is the lexicographically smallest
witness; ``solve`` stops it there, while ``optimal_colorings`` lets it
visit every canonical optimum exactly once.  When ``solve`` counts, a
count walk follows: it places the components one after another, each in
degree order, and counts the optima without listing them (see below).
``count_optimal`` returns no witness, so it runs no witness walk and spends
less of its budget than a counting ``solve``.

The kernel breaks color symmetry: a vertex may only take a color at most
one above the number of colors its prefix uses, so the colors in use are
always ``1..used`` in order of first appearance.  Renaming colors keeps the
bad-edge count, one-class validity and surjectivity, so every class of
color relabelings keeps exactly one canonical member and the minimum is
unchanged.  Relabeling an optimum by first appearance never makes it
lexicographically larger, so the smallest optimum is canonical and stays
the first leaf of the index-order walk.  A canonical optimum using ``j``
colors stands for ``math.perm(k, j)`` labeled optima, which is how counts
and the full list of optima are formed.

The kernel also prunes on an admissible look-ahead bound, in the style of
forward checking.  For each vertex w not yet placed it keeps ``cnt[w][c]``,
the placed neighbors of w with color c, and ``low[w] = min_c cnt[w][c]``.
Whatever color w takes, it adds at least ``low[w]`` bad edges against the
vertices already placed, and each edge is counted once, at its later
endpoint, so the bad edges of any completion are at least the placed ones
plus ``sum(low)`` over the unplaced vertices.  A branch is cut only when
that sum exceeds the bound.  The symmetry rule, the one-class rule and
surjectivity only remove choices, so the bound stays admissible in all four
rule and surjectivity settings: every leaf within the bound is still
reached, in the same order.

The search splits at connected components.  No edge crosses a component,
so the minimum is the sum of the components' minima with surjectivity off,
under both rules: each component's dirty class can be renamed to one shared
color, and with k <= n a vertex moved from a class of two or more into an
unused color adds no bad edge and no dirty class, so surjectivity costs
nothing.  The bound phase therefore runs once per component with an edge.
The walks still run over the whole graph, and their look-ahead bound also
counts the minimum of every component they have not yet entered.

The count walk caches at component boundaries, as exact model counters
cache independent components (Sang, Bacchus, Beame, Kautz and Pitassi,
SAT 2004).  When one component is finished and the next not yet entered,
no placed vertex has an unplaced neighbor, so every ``cnt``/``low`` row of
the rest is zero, and the look-ahead bound is the sum of the remaining
components' minima.  The bound is the optimum, the sum of all the minima,
and each finished component costs at least its own, so the placed bad
edges are exactly the finished components' minima.  What lies below is
then fixed by the position, the colors in use and whether a class is dirty
yet, not by which one: renaming the colors in use keeps every choice
below.  The weighted count of that subtree is computed once per such state
and reused; counting does not depend on the order of the vertices, so the
count is the one the index-order walk would sum.

Each component's bound phase is seeded with an incumbent, as exact coloring
codes start from a DSATUR coloring (Brelaz 1979): H, the bad edges of the
coloring that ``greedy_heuristic`` builds for the component with
surjectivity off.  That coloring is valid, so H bounds the minimum from
above, and by the argument above surjectivity does not change the minimum.
The search starts at bound H - 1, so it only has to beat H or prove it
optimal, and it does not run at all when H is 0.  The heuristic makes no
placements and its polynomial work is not charged to the work budget.

The chromatic number comes from the same kernel: it is the smallest k for
which a search with bound 0 and surjectivity off reaches a leaf, and the
largest over the connected components, each searched on its own.

One deterministic work budget bounds every exact entry point.  Each search
node charges the number of colors it is about to try, so the budget counts
candidate placements; one public call shares one budget across all its
searches and raises :class:`SizeLimitError` when it runs out.  Results are
deterministic.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Callable, Iterator, NamedTuple, Sequence

from ._record import Record
from .coloring import Coloring, RuleMode, bad_edges
from .errors import InfeasibleError, InvalidParameterError, SizeLimitError, _excerpt
from .graph import Edge, Graph

# Candidate placements one public exact call may make (``--cap``).
DEFAULT_WORK_BUDGET = 2 * 10**6
# Assignments enumerate_oracle may scan; its own cap, apart from the work budget.
DEFAULT_ENUM_CAP = 10**8
# Local-search passes of greedy_heuristic; it stops earlier once a pass improves nothing.
GREEDY_MAX_ROUNDS = 20


class SolverConfig(Record):
    """Search knobs; defaults match the documented limits."""

    __slots__ = _fields = ("work_budget", "count_optimal")
    work_budget: int
    count_optimal: bool

    def __init__(self, work_budget: int = DEFAULT_WORK_BUDGET, count_optimal: bool = False) -> None:
        if work_budget < 1:
            raise InvalidParameterError(f"work budget --cap must be positive, got {_excerpt(work_budget)}")
        self._set(work_budget=work_budget, count_optimal=count_optimal)


class SolveResult(NamedTuple):
    """Outcome of a bad-edge minimization.

    ``witness`` achieves ``min_bad`` and is the lexicographically smallest
    optimal assignment; ``optimal_count`` is present only when counting was
    requested.  ``exact`` is False only for heuristic results.
    """

    min_bad: int
    witness: Coloring
    rule: RuleMode
    surjective: bool
    optimal_count: int | None = None
    exact: bool = True


def _check_instance(g: Graph, k: int, surjective: bool) -> None:
    if not isinstance(k, int) or k < 1:
        raise InvalidParameterError(f"color count must be a positive integer, got {_excerpt(k)}")
    if surjective and k > g.n:
        raise InfeasibleError(
            f"no surjective coloring exists: {_excerpt(k)} colors onto {g.n} vertices"
        )


def enumerate_oracle(
    g: Graph,
    k: int,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    surjective: bool = True,
    *,
    cap: int = DEFAULT_ENUM_CAP,
) -> SolveResult:
    """Ground-truth result by full enumeration of all k**n assignments.

    Returns the exact minimum, the exact count of optimal colorings, and the
    lexicographically smallest witness.  Instances with k**n above ``cap``
    raise :class:`SizeLimitError`; enumeration never falls back to
    heuristics.
    """
    rule = RuleMode(rule)
    _check_instance(g, k, surjective)
    if k**g.n > cap:
        raise SizeLimitError(f"enumerating {_excerpt(k)}**{g.n} assignments exceeds cap {_excerpt(cap)}")
    edges = g.edges
    one_class = rule is RuleMode.ONE_CLASS
    best: int | None = None
    count = 0
    witness: tuple[int, ...] | None = None
    for assign in itertools.product(range(1, k + 1), repeat=g.n):
        if surjective and len(set(assign)) != k:
            continue
        bad = 0
        if best is None:
            for u, v in edges:
                if assign[u] == assign[v]:
                    bad += 1
        else:
            over = False
            for u, v in edges:
                if assign[u] == assign[v]:
                    bad += 1
                    if bad > best:
                        over = True
                        break
            if over:
                continue
        if one_class:
            touched = {assign[u] for u, v in edges if assign[u] == assign[v]}
            if len(touched) > 1:
                continue
        if best is None or bad < best:
            best, count, witness = bad, 1, assign
        elif bad == best:
            count += 1
    if witness is None or best is None:
        raise InfeasibleError("no valid coloring exists for this instance")
    return SolveResult(
        min_bad=best,
        witness=Coloring(witness, k),
        rule=rule,
        surjective=surjective,
        optimal_count=count,
    )


def _search(
    g: Graph,
    k: int,
    rule: RuleMode,
    surjective: bool,
    order: Sequence[int],
    bound: int,
    leaf: Callable[[list[int], int, int], int] | None,
    budget: int,
    spent: int,
    drop: Sequence[int] | None = None,
    memo: dict[tuple[int, int, bool], int] | None = None,
) -> int:
    """DFS over canonical assignments, vertices in ``order`` and colors ascending.

    A vertex takes only colors ``<= used + 1``, where ``used`` counts the
    distinct colors of the prefix, so the colors in use are ``1..used`` in
    order of first appearance along ``order``: one assignment per class of
    color relabelings.  A branch is cut when its bad-edge count plus the
    look-ahead bound exceeds ``bound``, when it can no longer use all k
    colors (surjective) or when it would make a second class dirty
    (one-class rule).

    The look-ahead bound is ``sum(low)`` over the vertices not yet placed
    (see the module docstring).  It is admissible: an unplaced w gains at
    least ``low[w]`` bad edges whatever color it takes, and the rules only
    remove colors.  Placing v at color c takes ``low[v]`` out of the sum and
    adds one to ``cnt[w][c]`` for each later neighbor w, which raises
    ``low[w]`` by one when c was w's only least color; both tables are
    undone on backtrack.  The conflicts of v at c are ``cnt[v][c]``.

    ``drop[i]`` (all 0 when omitted) is the proven minimum of the connected
    component whose first vertex in ``order`` is at position i, and 0 at
    every other position; the look-ahead bound starts at ``sum(drop)`` and
    sheds ``drop[i]`` when position i is placed.  It stays admissible: a
    component not yet started has no placed vertex, so its vertices have
    ``low = 0`` and its edges are none of those ``low`` counts, and under
    every rule and surjectivity setting its own edges still cost at least
    its minimum with surjectivity off.

    Each valid complete assignment goes to ``leaf(colors, bad, used)`` as
    the search's own list, indexed by vertex, which a leaf must copy to
    keep; it stands for ``math.perm(k, used)`` labeled assignments.  The
    leaf's return value is the new bound; a negative bound cuts every
    remaining branch.

    With ``memo`` the search counts instead, and ``leaf`` is not called:
    each leaf adds ``math.perm(k, used)``.  ``bound`` must then be
    ``sum(drop)`` and ``drop`` the component minima.  At each cut of
    ``order``, a position where no placed vertex has an unplaced neighbor,
    the weighted count of the subtree goes into ``memo`` under
    ``(position, used, dirty > 0)``, and a state seen before adds its stored
    count without a search (see the module docstring); the whole count ends
    up under ``(0, 0, False)``.

    Each node adds the number of colors it tries to ``spent``, the candidate
    placements made so far by the calling entry point; past ``budget`` the
    search raises :class:`SizeLimitError`.  Returns the new ``spent``.

    The DFS goes one Python frame deeper per vertex in every walk: the cache
    is looked up by the node above a cut, not by a frame of its own.  So the
    interpreter's recursion limit is raised by n for the duration of the
    search.
    """
    n = g.n
    if drop is None:
        drop = [0] * n
    one_class = rule is RuleMode.ONE_CLASS
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    later = [tuple(u for u in g.adj[v] if pos[u] > i) for i, v in enumerate(order)]
    colors = [0] * n
    # A canonical assignment uses at most min(k, n) colors, and past n every
    # row keeps a zero among its first n colors, so wider rows change nothing.
    width = min(k, n)
    # cnt[w][c]: placed neighbors of w with color c.  Slot 0 is a sentinel
    # above every count, so ``x not in cnt[w]`` asks whether no color holds x.
    cnt = [[n + 1] + [0] * width for _ in range(n)]
    low = [0] * n  # low[w] = min over colors c of cnt[w][c]
    # cached[i]: the count walk caches the subtree at position i, a cut.
    cached = [False] * (n + 1)
    total = 0  # weighted leaves counted so far, cached subtrees included

    def dfs(i: int, bad: int, used: int, dirty: int, lb: int) -> None:
        # ``dirty`` is the one class allowed to hold a bad edge; 0 = none yet.
        # ``lb`` is the sum of ``low`` over the vertices not yet placed.
        nonlocal bound, spent, total
        if i == n:
            if not surjective or used == k:
                bound = leaf(colors, bad, used)
            return
        if surjective and k - used > n - i:
            return
        top = used + 1 if used < k else k
        spent += top
        if spent > budget:
            raise SizeLimitError(f"exact search exceeds its work budget of {budget} candidate placements")
        v = order[i]
        row = cnt[v]
        rest = lb - low[v] - drop[i]
        ahead = later[i]
        cut = cached[i + 1]
        for c in range(1, top + 1):
            conflicts = row[c]
            nb = bad + conflicts
            if nb + rest > bound:
                continue
            nd = dirty
            if conflicts and one_class:
                if dirty and dirty != c:
                    continue
                nd = c
            raised = 0
            for w in ahead:
                r = cnt[w]
                x = r[c]
                r[c] = x + 1
                if x == low[w] and x not in r:
                    low[w] = x + 1
                    raised += 1
            if nb + rest + raised <= bound:
                colors[v] = c
                nu = used + (c > used)
                if not cut:
                    dfs(i + 1, nb, nu, nd, rest + raised)
                elif (key := (i + 1, nu, nd > 0)) in memo:
                    total += memo[key]
                else:
                    before = total
                    dfs(i + 1, nb, nu, nd, rest + raised)
                    memo[key] = total - before
            for w in ahead:
                r = cnt[w]
                x = r[c] - 1
                r[c] = x
                if x < low[w]:
                    low[w] = x

    if memo is not None:
        weight = [math.perm(k, j) for j in range(width + 1)]
        # A cut is a position where no placed vertex has an unplaced neighbor.
        reach = 0
        for i in range(n - 1):
            reach = max(reach, i, *(pos[w] for w in later[i]))
            cached[i + 1] = reach == i

        def leaf(colors: list[int], bad: int, used: int) -> int:
            nonlocal total
            total += weight[used]
            return bound

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n)
    try:
        dfs(0, 0, 0, 0, sum(drop))
    finally:
        sys.setrecursionlimit(limit)
    if memo is not None:
        memo[0, 0, False] = total
    return spent


def _degree_order(g: Graph) -> list[int]:
    return sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))


def _optimum(
    g: Graph,
    k: int,
    rule: RuleMode,
    surjective: bool,
    budget: int,
    leaf: Callable[[list[int], int, int], int] | None,
    count: bool = False,
) -> tuple[int, int | None, int]:
    """Proven minimum bad-edge count; ``leaf`` sees the canonical optima in order.

    Rejects the instance if it is invalid.  The bound phase runs once per
    connected component with an edge, relabeled densely, in degree-descending
    order.  Its first incumbent is the greedy coloring's bad-edge count H
    (surjectivity off), so it searches at bound H - 1, is skipped when H is
    0, and tightens the bound to one below each better incumbent.
    Surjectivity is off there unless g is connected: the sum of the
    component minima is the minimum either way (see the module docstring).
    The witness walk then runs over all of g in vertex-index order with that
    minimum as a fixed bound and each component's minimum as ``drop`` at its
    first vertex, so every leaf it reaches is optimal; ``leaf`` returns that
    bound to go on, or -1 to stop.  Without ``leaf`` no witness walk runs.

    With ``count`` set, the count walk follows: the components in the order
    of ``g.components()``, each in degree-descending order, with the same
    bound and each minimum at the component's first position, caching at
    every component boundary.  All searches draw on one work budget.
    Returns the minimum, the number of labeled optima (None without
    ``count``) and the placements spent.
    """
    _check_instance(g, k, surjective)
    parts = g.components()
    drop = [0] * g.n

    def improve(colors: list[int], bad: int, used: int) -> int:
        nonlocal found
        found = bad
        return bad - 1

    spent = 0
    for part, sub in _split(g, parts):
        order = _degree_order(sub)
        found, _ = _greedy(sub, k, rule, False, order)
        if found:
            spent = _search(sub, k, rule, surjective and len(parts) == 1, order,
                            found - 1, improve, budget, spent)
        drop[part[0]] = found
    best = sum(drop)
    if leaf is not None:
        spent = _search(g, k, rule, surjective, range(g.n), best, leaf, budget, spent, drop)
    if not count:
        return best, None, spent
    walk: list[int] = []  # component after component, each in degree order
    shed = [0] * g.n  # drop, by position in the walk
    for part in parts:
        shed[len(walk)] = drop[part[0]]
        walk += sorted(part, key=lambda v: -len(g.adj[v]))
    memo: dict[tuple[int, int, bool], int] = {}
    spent = _search(g, k, rule, surjective, walk, best, None, budget, spent, shed, memo)
    return best, memo[0, 0, False], spent


def _split(g: Graph, parts: list[list[int]]) -> list[tuple[list[int], Graph]]:
    """Each component in ``parts`` that has an edge, with the subgraph it induces
    relabeled densely, in one pass over the edges.  No search needs the rest:
    each is one vertex, with minimum 0 and chromatic number 1."""
    if len(parts) == 1:
        return [(parts[0], g)] if g.m else []
    where = [0] * g.n
    local = [0] * g.n
    for c, part in enumerate(parts):
        for i, v in enumerate(part):
            where[v] = c
            local[v] = i
    edges: list[list[tuple[int, int]]] = [[] for _ in parts]
    for u, v in g.edges:
        edges[where[u]].append((local[u], local[v]))
    # g's edges are sorted and ``local`` ascends within a part, so each list
    # is already sorted, normalized and in range: no checks are needed.
    return [(part, Graph._unchecked(len(part), tuple(e))) for part, e in zip(parts, edges) if e]


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: the smallest k whose search with bound 0 and
    surjectivity off reaches a leaf, i.e. finds a proper coloring.

    It is the largest over the connected components, so each component with
    an edge is searched on its own, starting from the largest k the earlier
    ones needed.  Every search draws on one default work budget; past it the
    search raises :class:`SizeLimitError`.
    """
    if g.n < 1:
        raise InvalidParameterError("chromatic number needs at least one vertex")
    return _chromatic(g, DEFAULT_WORK_BUDGET, 0)[0]


def _chromatic(g: Graph, budget: int, spent: int) -> tuple[int, int]:
    """``chromatic_number`` on a budget of which ``spent`` placements are
    used; also returns the placements spent in all."""

    def proper(colors: list[int], bad: int, used: int) -> int:
        nonlocal found
        found = True
        return -1

    k = 1
    for _, sub in _split(g, g.components()):
        order = _degree_order(sub)
        found = False
        while True:
            spent = _search(sub, k, RuleMode.UNRESTRICTED, False, order, 0, proper, budget, spent)
            if found:
                break
            k += 1
    return k, spent


def solve(
    g: Graph,
    k: int,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    surjective: bool = True,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Branch-and-bound minimization; agrees with :func:`enumerate_oracle` exactly.

    The configured work budget bounds the candidate placements of the whole
    call; instances beyond it raise :class:`SizeLimitError` rather than
    degrading to a heuristic (use :func:`greedy_heuristic` explicitly for
    those).
    """
    cfg = config or SolverConfig()
    return _solve(g, k, RuleMode(rule), surjective, cfg.work_budget, cfg.count_optimal)[0]


def _solve(
    g: Graph, k: int, rule: RuleMode, surjective: bool, budget: int, count: bool = False
) -> tuple[SolveResult, int]:
    """``solve`` on one budget; also returns the placements spent."""
    witness: list[tuple[int, ...]] = []

    def first(colors: list[int], bad: int, used: int) -> int:
        witness.append(tuple(colors))
        return -1

    best, optimal_count, spent = _optimum(g, k, rule, surjective, budget, first, count)
    return SolveResult(best, Coloring(witness[0], k), rule, surjective, optimal_count), spent


def count_optimal(
    g: Graph,
    k: int,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    surjective: bool = True,
) -> int:
    """Number of distinct labeled valid colorings achieving the minimum.

    Runs the bound phase and the count walk on the default work budget, but
    no witness walk: nothing reads the witness.
    """
    count = _optimum(g, k, RuleMode(rule), surjective, DEFAULT_WORK_BUDGET, None, True)[1]
    assert count is not None
    return count


def optimal_colorings(
    g: Graph,
    k: int,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    surjective: bool = True,
) -> Iterator[Coloring]:
    """All optimal colorings in lexicographic assignment order.

    Each canonical optimum from the search is expanded into its labeled
    copies, one per injective renaming of its colors into ``1..k``, before
    the first coloring is yielded.  Only the search is charged to the
    default work budget; the expansion is as large as the output.
    """
    optima: list[tuple[int, ...]] = []

    def collect(colors: list[int], bad: int, used: int) -> int:
        for names in itertools.permutations(range(1, k + 1), used):
            optima.append(tuple(names[c - 1] for c in colors))
        return bad

    _optimum(g, k, RuleMode(rule), surjective, DEFAULT_WORK_BUDGET, collect)
    optima.sort()
    for assign in optima:
        yield Coloring(assign, k)


def _class_sizes(g: Graph, k: int, rule: RuleMode) -> tuple[int, set[tuple[int, ...]]]:
    """Minimum bad-edge count and the ascending class sizes (0 for an unused
    color) of every optimal coloring, surjective exactly when k <= n, from
    one walk over the canonical optima: renaming colors keeps the sizes."""
    sizes: set[tuple[int, ...]] = set()

    def tally(colors: list[int], bad: int, used: int) -> int:
        sizes.add(tuple(sorted(map(colors.count, range(1, k + 1)))))
        return bad

    return _optimum(g, k, rule, k <= g.n, DEFAULT_WORK_BUDGET, tally)[0], sizes


def bad_edge_vertex_cover(g: Graph, coloring: Coloring) -> tuple[int, ...]:
    """Minimum vertex cover of the bad-edge subgraph, exactly.

    Searches subsets in order of size and then lexicographically, so ties
    break to the lexicographically smallest vertex set.  Each subset tested
    is charged its number of bad edges to the default work budget; past it
    the scan raises :class:`SizeLimitError`.  The scan grows as
    2^(bad-edge endpoints).
    """
    return _cover(bad_edges(g, coloring).edges, DEFAULT_WORK_BUDGET, 0)[0]


def _cover(bad: tuple[Edge, ...], budget: int, spent: int) -> tuple[tuple[int, ...], int]:
    """``bad_edge_vertex_cover`` of the edges ``bad`` on a budget of which
    ``spent`` is used; also returns the budget spent in all."""
    if not bad:
        return (), spent
    verts = sorted({x for e in bad for x in e})
    for size in range(1, len(verts) + 1):
        for subset in itertools.combinations(verts, size):
            spent += len(bad)
            if spent > budget:
                raise SizeLimitError(f"vertex cover scan exceeds its work budget of {budget}")
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in bad):
                return subset, spent
    return tuple(verts), spent  # pragma: no cover - all endpoints always cover


class KChromaticSubgraph(NamedTuple):
    """Induced subgraph left after deleting a minimum cover of witness bad edges."""

    subgraph: Graph
    kept_vertices: tuple[int, ...]
    removed: tuple[int, ...]
    chromatic: int
    min_bad: int
    witness: Coloring


def k_chromatic_subgraph(
    g: Graph,
    k: int,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
) -> KChromaticSubgraph:
    """Large induced subgraph whose chromatic number is at most k.

    Minimizes bad edges with k colors, removes a minimum vertex cover of the
    witness's bad edges, and reports the induced subgraph with its exact
    chromatic number.  The construction guarantees chromatic <= k; the
    reported value records whether equality was achieved on this instance.
    Maximality over all k-chromatic subgraphs is not claimed.  The solve,
    the vertex cover and the chromatic number of the subgraph draw on one
    default work budget.
    """
    rule = RuleMode(rule)
    if not 1 <= k < g.n:
        raise InvalidParameterError(f"k must satisfy 1 <= k < n ({g.n}), got {_excerpt(k)}")
    result, spent = _solve(g, k, rule, True, DEFAULT_WORK_BUDGET)
    # For k <= n, some surjective k-coloring is proper exactly when k >= chi.
    if result.min_bad == 0:
        raise InvalidParameterError(f"k must stay below the chromatic number, got {_excerpt(k)}")
    cover, spent = _cover(bad_edges(g, result.witness).edges, DEFAULT_WORK_BUDGET, spent)
    removed = set(cover)
    sub, kept = g.induced_subgraph(v for v in range(g.n) if v not in removed)
    chi_sub, _ = _chromatic(sub, DEFAULT_WORK_BUDGET, spent)
    return KChromaticSubgraph(
        subgraph=sub,
        kept_vertices=kept,
        removed=cover,
        chromatic=chi_sub,
        min_bad=result.min_bad,
        witness=result.witness,
    )


def greedy_heuristic(
    g: Graph,
    k: int,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    surjective: bool = True,
) -> SolveResult:
    """Greedy construction plus local search; NOT exact.

    Intended for graphs beyond the exact search's work budget.  The
    returned coloring is valid under ``rule`` but its bad-edge count is only
    an upper bound, flagged by ``exact=False``.  Never used as a test oracle.

    Colors the vertices greedily in degree-descending order, then runs
    passes of first-improvement moves in index order.  A pass costs
    O(k * (n + m)), at most ``GREEDY_MAX_ROUNDS`` run, and the result is
    deterministic.
    """
    rule = RuleMode(rule)
    _check_instance(g, k, surjective)
    bad, colors = _greedy(g, k, rule, surjective, _degree_order(g))
    return SolveResult(
        min_bad=bad,
        witness=Coloring(tuple(colors), k),
        rule=rule,
        surjective=surjective,
        optimal_count=None,
        exact=False,
    )


def _greedy(
    g: Graph, k: int, rule: RuleMode, surjective: bool, order: Sequence[int]
) -> tuple[int, list[int]]:
    """``greedy_heuristic``'s (bad edges, colors) on a checked instance, coloring in ``order``."""
    # A vertex has fewer than n neighbors, so a color in 1..n is free for it
    # and no color above n is ever its first least or first improving choice.
    k = min(k, g.n)
    one_class = rule is RuleMode.ONE_CLASS
    colors = [0] * g.n
    sizes = [g.n] + [0] * k  # class 0 holds the vertices not yet colored
    current = 0

    def conflicts(v: int) -> list[int]:
        row = [0] * (k + 1)
        for u in g.adj[v]:
            row[colors[u]] += 1
        return row

    def move(v: int, c: int) -> None:
        sizes[colors[v]] -= 1
        sizes[c] += 1
        colors[v] = c

    dirty = 0  # the one class allowed to contain adjacencies; 0 = none yet
    for v in order:
        row = conflicts(v)
        low = min(row[1:])
        c = row.index(low, 1)
        if low and one_class:
            c = dirty = dirty or c
        current += row[c]
        move(v, c)

    if surjective:
        # A vertex meets a conflict only when its neighbors already use all k
        # colors, so a color is left unused only by a proper coloring.  Each
        # unused color takes the smallest vertex in a class of two or more,
        # which keeps the coloring proper.
        for c in range(1, k + 1):
            if not sizes[c]:
                move(next(u for u in range(g.n) if sizes[colors[u]] > 1), c)

    for _ in range(GREEDY_MAX_ROUNDS):
        start = current
        for v in range(g.n):
            old = colors[v]
            if surjective and sizes[old] == 1:
                continue
            row = conflicts(v)
            for c in range(1, k + 1):
                # The move changes the bad-edge count by row[c] - row[old].  It
                # lowers it only if v meets its own class, under the one-class
                # rule the dirty one, which must be left clean if c turns dirty.
                if row[c] < row[old] and (not one_class or not row[c] or row[old] == current):
                    current += row[c] - row[old]
                    move(v, c)
                    break
        if current == start:
            break
    return current, colors
