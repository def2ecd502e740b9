"""Exact minimization of bad edges for a fixed color budget.

Two independent engines realize the same contract.  ``enumerate_oracle``
scans every assignment and is the ground truth the test suite is built on;
``solve`` is a pruned branch-and-bound search that must agree with the
oracle exactly on the minimum, the count of optimal colorings, and the
lexicographically smallest witness.

One search kernel, ``_search``, serves every exact entry point (``solve``,
``count_optimal``, ``optimal_colorings``, ``minimum_color_usage``), run in
two vertex orders.  The bound phase visits the vertices of each connected
component in static degree-descending order and prunes on the incumbent;
the optimum walk re-walks the tree in vertex-index order with the proven
optimum as the bound, so the first leaf reached is the lexicographically
smallest witness and (when counting) every canonical optimum is visited
exactly once.

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
nothing.  The bound phase therefore runs once per component.  The optimum
walk still runs over the whole graph, and its look-ahead bound also counts
the minimum of every component it has not yet entered.

The chromatic number comes from the same kernel: it is the smallest k for
which a search with bound 0 and surjectivity off reaches a leaf.

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
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .coloring import Coloring, RuleMode, bad_edges
from .errors import InfeasibleError, InvalidParameterError, SizeLimitError
from .graph import Graph

# Candidate placements one public exact call may make (``--cap``).
DEFAULT_WORK_BUDGET = 2 * 10**6
# Assignments enumerate_oracle may scan; its own cap, apart from the work budget.
DEFAULT_ENUM_CAP = 10**8
# Local-search passes of greedy_heuristic; it stops earlier once a pass improves nothing.
GREEDY_MAX_ROUNDS = 20


@dataclass(frozen=True)
class SolverConfig:
    """Search knobs; defaults match the documented limits."""

    work_budget: int = DEFAULT_WORK_BUDGET
    count_optimal: bool = False

    def __post_init__(self) -> None:
        if self.work_budget < 1:
            raise InvalidParameterError(f"work budget --cap must be positive, got {self.work_budget}")


@dataclass(frozen=True)
class SolveResult:
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
        raise InvalidParameterError(f"color count must be a positive integer, got {k!r}")
    if surjective and k > g.n:
        raise InfeasibleError(
            f"no surjective coloring exists: {k} colors onto {g.n} vertices"
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
        raise SizeLimitError(f"enumerating {k}**{g.n} assignments exceeds cap {cap}")
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
    leaf: Callable[[list[int], int, int], int],
    budget: int,
    spent: int,
    drop: Sequence[int] | None = None,
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

    Each node adds the number of colors it tries to ``spent``, the candidate
    placements made so far by the calling entry point; past ``budget`` the
    search raises :class:`SizeLimitError`.  Returns the new ``spent``.

    The DFS goes one Python frame deeper per vertex, so the interpreter's
    recursion limit is raised by n for the duration of the search.
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
    # cnt[w][c]: placed neighbors of w with color c.  Slot 0 is a sentinel
    # above every count, so ``x not in cnt[w]`` asks whether no color holds x.
    cnt = [[n + 1] + [0] * k for _ in range(n)]
    low = [0] * n  # low[w] = min over colors c of cnt[w][c]

    def dfs(i: int, bad: int, used: int, dirty: int, lb: int) -> None:
        # ``dirty`` is the one class allowed to hold a bad edge; 0 = none yet.
        # ``lb`` is the sum of ``low`` over the vertices not yet placed.
        nonlocal bound, spent
        if i == n:
            if not surjective or used == k:
                bound = leaf(colors, bad, used)
            return
        if surjective and k - used > n - i:
            return
        top = min(used + 1, k)
        spent += top
        if spent > budget:
            raise SizeLimitError(
                f"exact search exceeds its work budget of {budget} candidate placements"
                " (raise it with --cap)"
            )
        v = order[i]
        row = cnt[v]
        rest = lb - low[v] - drop[i]
        ahead = later[i]
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
                dfs(i + 1, nb, used + (c > used), nd, rest + raised)
            for w in ahead:
                r = cnt[w]
                x = r[c] - 1
                r[c] = x
                if x < low[w]:
                    low[w] = x

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + n)
    try:
        dfs(0, 0, 0, 0, sum(drop))
    finally:
        sys.setrecursionlimit(limit)
    return spent


def _degree_order(g: Graph) -> list[int]:
    return sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))


def _optimum(
    g: Graph,
    k: int,
    rule: RuleMode,
    surjective: bool,
    budget: int,
    leaf: Callable[[list[int], int, int], int],
) -> int:
    """Proven minimum bad-edge count; ``leaf`` sees the canonical optima in order.

    Rejects the instance if it is invalid.  The bound phase runs once per
    connected component, relabeled densely, in degree-descending order,
    tightening the bound to one below each incumbent.  Surjectivity is off
    there unless g is connected: the sum of the component minima is the
    minimum either way (see the module docstring).  The optimum walk then
    runs over all of g in vertex-index order with that minimum as a fixed
    bound and each component's minimum as ``drop`` at its first vertex, so
    every leaf it reaches is optimal; ``leaf`` returns that bound to go on,
    or -1 to stop.  All searches draw on one work budget.
    """
    _check_instance(g, k, surjective)
    parts = g.components()
    drop = [0] * g.n
    found = 0

    def improve(colors: list[int], bad: int, used: int) -> int:
        nonlocal found
        found = bad
        return bad - 1

    spent = 0
    for part, sub in zip(parts, _split(g, parts)):
        spent = _search(sub, k, rule, surjective and len(parts) == 1, _degree_order(sub),
                        sub.m, improve, budget, spent)
        drop[part[0]] = found
    best = sum(drop)
    _search(g, k, rule, surjective, range(g.n), best, leaf, budget, spent, drop)
    return best


def _split(g: Graph, parts: list[list[int]]) -> list[Graph]:
    """The subgraphs induced by ``parts``, relabeled densely in one pass over the edges."""
    if len(parts) == 1:
        return [g]
    where = [0] * g.n
    local = [0] * g.n
    for c, part in enumerate(parts):
        for i, v in enumerate(part):
            where[v] = c
            local[v] = i
    edges: list[list[tuple[int, int]]] = [[] for _ in parts]
    for u, v in g.edges:
        edges[where[u]].append((local[u], local[v]))
    return [Graph(len(part), tuple(e)) for part, e in zip(parts, edges)]


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number: the smallest k whose search with bound 0 and
    surjectivity off reaches a leaf, i.e. finds a proper coloring.

    Every k tried draws on one default work budget; past it the search
    raises :class:`SizeLimitError`.
    """
    if g.n < 1:
        raise InvalidParameterError("chromatic number needs at least one vertex")
    order = _degree_order(g)
    found = False

    def proper(colors: list[int], bad: int, used: int) -> int:
        nonlocal found
        found = True
        return -1

    spent = 0
    k = 0
    while not found:
        k += 1
        spent = _search(g, k, RuleMode.UNRESTRICTED, False, order, 0, proper, DEFAULT_WORK_BUDGET, spent)
    return k


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
    rule = RuleMode(rule)
    cfg = config or SolverConfig()
    witness: list[tuple[int, ...]] = []
    count = 0

    def visit(colors: list[int], bad: int, used: int) -> int:
        nonlocal count
        if not witness:
            witness.append(tuple(colors))
        count += math.perm(k, used)
        return bad if cfg.count_optimal else -1

    best = _optimum(g, k, rule, surjective, cfg.work_budget, visit)
    return SolveResult(
        min_bad=best,
        witness=Coloring(witness[0], k),
        rule=rule,
        surjective=surjective,
        optimal_count=count if cfg.count_optimal else None,
    )


def count_optimal(
    g: Graph,
    k: int,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    surjective: bool = True,
) -> int:
    """Number of distinct labeled valid colorings achieving the minimum."""
    result = solve(g, k, rule, surjective, SolverConfig(count_optimal=True))
    assert result.optimal_count is not None
    return result.optimal_count


def optimal_colorings(
    g: Graph,
    k: int,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    surjective: bool = True,
) -> Iterator[Coloring]:
    """All optimal colorings in lexicographic assignment order.

    Each canonical optimum from the search is expanded into its labeled
    copies, one per injective renaming of its colors into ``1..k``.  The
    search and the expansion run to completion, under the default work
    budget, before the first coloring is yielded.
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


@dataclass(frozen=True)
class MinUsage:
    """Smallest per-color usage over all optimal colorings, with an attaining pair."""

    value: int
    color: int
    witness: Coloring


def minimum_color_usage(
    g: Graph,
    k: int,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    surjective: bool = True,
) -> MinUsage:
    """Minimum, over optimal colorings and colors, of a color's usage count.

    Deterministic: the first attaining coloring in lexicographic order, ties
    to the smallest color.  With surjectivity off the minimum may be 0 (an
    unused color).  Only canonical optima are scanned: a relabeled copy has
    the same usage counts and is never lexicographically smaller.  Instances
    beyond the default work budget raise :class:`SizeLimitError`.
    """
    best: MinUsage | None = None

    def first_smallest(colors: list[int], bad: int, used: int) -> int:
        nonlocal best
        counts = [0] * (k + 1)
        for c in colors:
            counts[c] += 1
        value = min(counts[1:])
        if best is None or value < best.value:
            best = MinUsage(value, counts.index(value, 1), Coloring(tuple(colors), k))
        return -1 if value == 0 else bad

    _optimum(g, k, RuleMode(rule), surjective, DEFAULT_WORK_BUDGET, first_smallest)
    assert best is not None
    return best


def bad_edge_vertex_cover(g: Graph, coloring: Coloring) -> tuple[int, ...]:
    """Minimum vertex cover of the bad-edge subgraph, exactly.

    Searches subsets in order of size and then lexicographically, so ties
    break to the lexicographically smallest vertex set.  The bad-edge
    subgraph is small whenever the coloring is near optimal, which keeps the
    subset search cheap.
    """
    bad = bad_edges(g, coloring).edges
    if not bad:
        return ()
    verts = sorted({x for e in bad for x in e})
    for size in range(1, len(verts) + 1):
        for subset in itertools.combinations(verts, size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in bad):
                return subset
    return tuple(verts)  # pragma: no cover - all endpoints always cover


@dataclass(frozen=True)
class KChromaticSubgraph:
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
    Maximality over all k-chromatic subgraphs is not claimed.
    """
    rule = RuleMode(rule)
    chi = chromatic_number(g)
    if not 1 <= k < chi:
        raise InvalidParameterError(
            f"k must satisfy 1 <= k < chromatic number ({chi}), got {k}"
        )
    result = solve(g, k, rule, True)
    cover = bad_edge_vertex_cover(g, result.witness)
    removed = set(cover)
    sub, kept = g.induced_subgraph(v for v in range(g.n) if v not in removed)
    chi_sub = chromatic_number(sub)
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
    for v in _degree_order(g):
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

    return SolveResult(
        min_bad=current,
        witness=Coloring(tuple(colors), k),
        rule=rule,
        surjective=surjective,
        optimal_count=None,
        exact=False,
    )
