"""Exact minimization of bad edges for a fixed color budget.

Two independent engines realize the same contract.  ``enumerate_oracle``
scans every assignment and is the ground truth the test suite is built on;
``solve`` is a pruned branch-and-bound search that must agree with the
oracle exactly on the minimum, the count of optimal colorings, and the
lexicographically smallest witness.

One search kernel, ``_search``, serves every exact entry point (``solve``,
``count_optimal``, ``optimal_colorings``): once per connected component,
in static degree-descending order with pruning on the incumbent, and then,
when a witness is wanted and that search has not settled it, once over the
whole graph.  The witness walk re-walks the tree in vertex-index order
with the proven optimum as the bound, so the first leaf it reaches is the
lexicographically smallest witness; ``solve`` stops it there, while
``optimal_colorings`` lets it visit every canonical optimum exactly once.
The walk is its caller's step, which callers that return no witness
(``count_optimal``, the bound reports) never take.

Every component search keeps one rule (``_census``): a leaf below the
incumbent lowers it and clears the record, every leaf adds its key to the
record, and the search keeps the leaf's level as its bound while the
record holds at most a tie limit of keys, and goes one below it after
that.  Its four uses differ only in their start, key and tie limit.  The
bound phase, where the caller reads only the minimum, keeps no key and no
tie, so it tightens to one below each better leaf.  The census, where the
caller reads every optimum (a count, or the class sizes of the join and
corona bounds), keeps every tie, so it ends with a record of every
canonical optimum of its last level, the minimum.  The witness census,
where a plain ``solve`` reads the least optimum of a connected graph, keys
each leaf by its relabeling in vertex-index order and keeps at most
``_TIES`` ties (see below).  The chromatic test starts at bound 0 with no
key and no tie, so its first leaf, a proper coloring, cuts every branch.

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
forward checking (Haralick and Elliott, Artif. Intell. 1980).  For each
vertex w not yet placed it keeps a row: the count of placed neighbors of w
with each color, and their least, ``low(w)``.  Whatever color w takes, it
adds at least ``low(w)`` bad edges against the vertices already placed,
and each edge is counted once, at its later endpoint, so the bad edges of
any completion are at least the placed ones plus the sum of ``low`` over
the unplaced vertices.  A branch is cut only when that sum exceeds the
bound.  The symmetry rule, the one-class rule and surjectivity only remove
choices, so the bound stays admissible in all four rule and surjectivity
settings: every leaf within the bound is still reached, in the same order.

A row is a small integer, a state of a transition table for the search's
width w = min(k, n) (``_Rows``): each state is a count vector, interned
when first reached, with its ``low`` and, per color, its count, the state
one more neighbor of that color leads to, whether that step raises
``low``, and the step back.  A placement then costs one lookup and one
store per later neighbor.  A row's counts sum to at most the maximum
degree d, so a table holds at most ``comb(d + w, w)`` states of w colors.
A search takes tables only where w times that, with d counted as at least
1, is within ``_ROW_STATES`` (``_admits``), which the input decides: every
other search, as on wide dense graphs, keeps each row as a list updated in
place, and both forms visit the same nodes.  Tables are kept per thread and
shared by the searches of every call, because a small search that built
its own would spend more on interning than the tables save; a search that
finds its thread's memo above ``_ROW_STATES`` slots (colors times states)
in all starts a new, empty one.  No result depends on the memo.

The search splits at connected components.  No edge crosses a component,
so the minimum is the sum of the components' minima with surjectivity off,
under both rules: each component's dirty class can be renamed to one shared
color, and with k <= n a vertex moved from a class of two or more into an
unused color adds no bad edge and no dirty class, so surjectivity costs
nothing.  A component search therefore runs once per component with an
edge.  The witness walk still runs over the whole graph, and its
look-ahead bound also counts the minimum of every component it has not yet
entered.

Inside a component it has entered, the walk's bound also counts cliques,
by the pigeonhole clique inequality of the k-partition polytope (Chopra
and Rao, Math. Programming 1993): any k + 1 pairwise adjacent vertices hold
a bad edge under every k-coloring.  Edge-disjoint (k + 1)-cliques among
the unplaced vertices therefore hold a bad edge each that ``low`` does not
count, and a component holds no more of them than its minimum.  Before the
walk, ``_cliques`` packs such cliques greedily in each component and moves
one unit of the component's minimum from its first vertex to the smallest
vertex of each clique.  A component not yet entered still counts exactly
its minimum, and once it is entered it counts the cliques that lie wholly
among its unplaced vertices.  That bound is never below the old one, so
the walk visits a subset of its old nodes and reaches the same leaves in
the same order.  A witness census whose degree order is index order (see
below) searches in the walk's order, so it takes the same credit.  The
other degree-ordered searches keep the plain bound: in the bound phase the
credit saved 3% of the placements and cost more time than that.

The count of optima follows from each component's optima by
inclusion-exclusion over color sets (Bjorklund, Husfeldt and Koivisto,
SIAM J. Comput. 2009).  The optimum is the sum of the component minima and
each component costs at least its own, so the optima of g are exactly the
colorings whose restriction to every component is optimal for that
component.  Let f(s) count those whose colors lie in a fixed set of s
colors.  A component with ``A[j]`` canonical optima using j colors has
``sum(A[j] * perm(s, j))`` optima within the set, and an isolated vertex
has s.  Under the one-class rule the bad edges of g lie in one class, so
the dirty classes of the components with a positive minimum all share one
color: of the s ways to name it, each such component keeps a 1/s share of
its optima.  With surjectivity off the count is f(k); with it on, the
colorings that use all k colors number ``sum((-1)**(k - s) * comb(k, s) *
f(s))`` over s = 1..k.

Each component's search is seeded with an incumbent, as exact coloring
codes start from a DSATUR coloring (Brelaz 1979): H, the bad edges of the
coloring that ``greedy_heuristic`` builds for the component with
surjectivity off.  That coloring is valid, so H bounds the minimum from
above, and by the argument above surjectivity does not change the minimum.
The bound phase starts at bound H - 1, so it only has to beat H or prove it
optimal, and it does not run at all when H is 0.  The census starts at
bound H.  One census replaces a bound phase plus a second search at the
proven minimum, whose tree holds the bound phase's last proof, but it can
cost more where H is above the minimum and the incumbents on the way down
have many ties.  The heuristic and the polish (below) make no
placements, and their polynomial work is not charged to the work budget.

A plain ``solve`` of a connected graph whose H is above 0 takes its witness
from one witness census instead of a bound phase and a walk.  The census
visits the degree-order canonical member of every class of optimal color
renamings.  Its key, ``_relabel``, renames that member's colors by first
appearance in vertex-index order, which gives the class's lexicographically
least member, so the least key of the minimum is the smallest witness, the
walk's first leaf (the lex-leader of a symmetry class; Crawford, Ginsberg,
Luks and Roy, KR 1996).  When the census ends, the minimum is proven, and
unless its last level passed the tie limit, the least key of that level is
the witness and no walk runs.  Where the degree order is index order
(cycles, complete graphs, wheels and helms with a rim of 4 or more),
relabeling changes nothing and the first leaf of a level is its least, so
the tie limit is 0, the witness always settles, and the census takes the
walk's clique credit.  Elsewhere the tie limit is ``_TIES``, and past it
the witness walk runs at the proven minimum, as it does on a disconnected
graph, where H is 0, and for a counting ``solve`` or
``optimal_colorings``.

Every level above the minimum costs the witness census a search of its
own, so under the unrestricted rule, where every coloring is valid, it
starts from a seed that ``_polish`` improves by a short tabu descent
(TabuCol; Hertz and de Werra, Computing 1987), closing 96 of the 117 units
by which H exceeds the minimum on the benchmark's 192 connected graphs.
Under the one-class rule the greedy's repair already makes every improving
move the rule allows: a polish lowered none of the 96 golden seeds, at
about a seventh of a small solve's time, so that census starts from H.  No
other search polishes its seed: the components of counts and bound reports
are small and mostly seeded at their minimum, so the polish costs more.

The chromatic number comes from the same rule: it is the smallest k for
which the chromatic test, with surjectivity off, reaches a leaf, and the
largest over the connected components, each searched on its own.

One deterministic work budget, a ``_Budget``, bounds each public call of
this module across all its searches.  Each search node charges the number
of colors it is about to try, so the budget counts candidate placements;
running out raises :class:`SizeLimitError` with one message.  The bound
reports of ``families`` and the rows of ``verify`` run each search on a
fresh default budget.  A surjective count sums k terms of up to n factors
each, so before any search it charges k * n to a fresh budget of the same
limit.  ``optimal_colorings`` charges its count of labeled optima the same
way between its census and its walk, so it proves its minimum once and
builds no optimum of a call it refuses.  Results are deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
from collections.abc import Hashable
from typing import Callable, Iterator, NamedTuple, Sequence

from .coloring import Coloring, RuleMode, bad_edges
from .errors import InfeasibleError, InvalidParameterError, SizeLimitError, _excerpt
from .graph import Edge, Graph

# Candidate placements one public exact call may make (``--cap``).
DEFAULT_WORK_BUDGET = 2 * 10**6
# Assignments enumerate_oracle may scan; its own cap, apart from the work budget.
DEFAULT_ENUM_CAP = 10**8
# Local-search passes of greedy_heuristic; it stops earlier once a pass improves nothing.
GREEDY_MAX_ROUNDS = 20
# Tie limit of a witness census outside index order; past it the witness walk runs.
_TIES = 6
# Moves a vertex may not take back a color it left, and moves without a new
# best before the polish of a witness census's seed stops.
_TENURE, _STALE = 7, 8
# Slots (colors times states) of one look-ahead table, and of one thread's memo of them.
_ROW_STATES = 2**16
_memo = threading.local()
# Searches under way in all threads, and the recursion limit the first of them found.
_stack_lock = threading.Lock()
_stack = [0, 0]


class _Budget:
    """Candidate placements an exact call may make (``limit``, by default
    ``DEFAULT_WORK_BUDGET`` as it reads when built) and has made; building
    one is the package's one check that a work budget is positive."""

    __slots__ = ("limit", "spent")

    def __init__(self, limit: int | None = None) -> None:
        self.limit = DEFAULT_WORK_BUDGET if limit is None else limit
        if not isinstance(self.limit, int) or isinstance(self.limit, bool) or self.limit < 1:
            raise InvalidParameterError(f"work budget --cap must be positive, got {_excerpt(self.limit)}")
        self.spent = 0

    def charge(self, n: int) -> None:
        self.spent += n
        if self.spent > self.limit:
            raise SizeLimitError(f"exact search exceeds its work budget of {self.limit} candidate placements")


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
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
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
) -> SolveResult:
    """Ground-truth result by full enumeration of all k**n assignments.

    Returns the exact minimum, the exact count of optimal colorings, and the
    lexicographically smallest witness.  Instances with k**n above
    ``DEFAULT_ENUM_CAP`` raise :class:`SizeLimitError`; enumeration never
    falls back to heuristics.
    """
    rule = RuleMode(rule)
    _check_instance(g, k, surjective)
    # With k >= 2 and n past the cap's bit length, k**n > 2**n > the cap, so
    # a large k**n is refused without being computed.
    if k > 1 and g.n >= DEFAULT_ENUM_CAP.bit_length() or k**g.n > DEFAULT_ENUM_CAP:
        raise SizeLimitError(f"enumerating {_excerpt(k)}**{g.n} assignments exceeds cap {DEFAULT_ENUM_CAP}")
    edges = g.edges
    one_class = rule is RuleMode.ONE_CLASS
    best = len(edges)  # no assignment has more bad edges
    count = 0
    witness: tuple[int, ...] | None = None
    for assign in itertools.product(range(1, k + 1), repeat=g.n):
        if surjective and len(set(assign)) != k:
            continue
        bad = 0
        for u, v in edges:
            if assign[u] == assign[v]:
                bad += 1
                if bad > best:
                    break
        if bad > best:
            continue
        if one_class:
            touched = {assign[u] for u, v in edges if assign[u] == assign[v]}
            if len(touched) > 1:
                continue
        if witness is None or bad < best:
            best, count, witness = bad, 1, assign
        elif bad == best:
            count += 1
    if witness is None:
        raise InfeasibleError("no valid coloring exists for this instance")
    return SolveResult(
        min_bad=best,
        witness=Coloring(witness, k),
        rule=rule,
        surjective=surjective,
        optimal_count=count,
    )


class _Memo(dict):
    """One thread's look-ahead tables (``_Rows``) by width, and ``slots``,
    the colors times states they hold in all."""

    slots = 0


class _Rows:
    """The look-ahead rows of one width as states of a transition table.

    A state is a row's count vector, interned on first use, and ``low[s]``
    is its least count.  ``tops[t]`` holds, for each color c of 1..t, c and
    four lists indexed by state: the count of c; the state after one more
    neighbor of color c, -1 until ``grow`` first takes that step; 1 where c
    is a least color, which at the state a step of c leads to says that the
    step raised ``low``; and the state after one fewer neighbor of color c,
    filled in by ``grow``'s step.  Every slot is added to ``memo.slots``."""

    __slots__ = ("memo", "index", "vecs", "low", "tops")

    def __init__(self, width: int, memo: _Memo) -> None:
        self.memo = memo
        self.index: dict[tuple[int, ...], int] = {}
        self.vecs: list[tuple[int, ...]] = []
        self.low: list[int] = []
        palette = tuple((c, [], [], [], []) for c in range(1, width + 1))
        self.tops = tuple(palette[:t] for t in range(width + 1))
        self._state((0,) * width)

    def _state(self, vec: tuple[int, ...]) -> int:
        s = self.index.get(vec)
        if s is None:
            s = self.index[vec] = len(self.vecs)
            self.vecs.append(vec)
            low = min(vec, default=0)
            self.low.append(low)
            for (_, cnt, inc, up, dec), x in zip(self.tops[-1], vec):
                cnt.append(x)
                inc.append(-1)
                up.append(int(x == low))
                dec.append(-1)
            self.memo.slots += len(vec)
        return s

    def grow(self, c: int, x: int) -> int:
        vec = self.vecs[x]
        y = self._state(vec[: c - 1] + (vec[c - 1] + 1,) + vec[c:])
        _, _, inc, _, dec = self.tops[-1][c - 1]
        inc[x], dec[y] = y, x
        return y


def _admits(width: int, degree: int) -> bool:
    """Whether a search of ``width`` and maximum degree ``degree`` takes
    tables: ``width * comb(max(degree, 1) + width, width) <= _ROW_STATES``.
    A row's counts sum to at most the degree, so a table never holds more
    than ``_ROW_STATES`` slots, nor ``tops``, about width**2 / 2 entries.
    The first test is implied by the second, and spares a wide search a
    large ``comb``."""
    d = max(degree, 1)
    return width * (d + width) <= _ROW_STATES and width * math.comb(d + width, width) <= _ROW_STATES


def _rows(width: int, adj: Sequence[frozenset[int]]) -> _Rows | None:
    """This thread's table of ``width``, or None where ``_admits`` refuses
    the maximum degree of ``adj``.  A memo holding more than ``_ROW_STATES``
    slots is first replaced by an empty one."""
    # A degree is below the vertex count, so the maximum is needed only past it.
    if not (_admits(width, len(adj) - 1) or _admits(width, max(map(len, adj)))):
        return None
    memo = getattr(_memo, "rows", None)
    if memo is None or memo.slots > _ROW_STATES:
        memo = _memo.rows = _Memo()
    rows = memo.get(width)
    if rows is None:
        rows = memo[width] = _Rows(width, memo)
    return rows


def _search(
    g: Graph,
    k: int,
    rule: RuleMode,
    surjective: bool,
    order: Sequence[int],
    bound: int,
    leaf: Callable[[list[int], int, int], int],
    budget: _Budget,
    drop: Sequence[int] | None = None,
) -> None:
    """DFS over canonical assignments, vertices in ``order`` and colors ascending.

    A vertex takes only colors ``<= used + 1``, where ``used`` counts the
    distinct colors of the prefix, so the colors in use are ``1..used`` in
    order of first appearance along ``order``: one assignment per class of
    color relabelings.  A branch is cut when its bad-edge count plus the
    look-ahead bound exceeds ``bound``, when it can no longer use all k
    colors (surjective) or when it would make a second class dirty
    (one-class rule).

    The look-ahead bound is the sum of ``low`` over the vertices not yet
    placed (see the module docstring).  It is admissible: an unplaced w
    gains at least ``low(w)`` bad edges whatever color it takes, and the
    rules only remove colors.  Each vertex has a row: the count of its
    placed neighbors with each color, and ``low``, the least of them.
    Placing v at color c takes ``low(v)`` out of the sum and adds one to
    count c of each later neighbor's row, which raises that row's ``low``
    by one when no other color held the least; backtracking undoes both.
    The conflicts of v at c are count c of v's row.

    Where ``_admits`` takes the maximum degree at the width min(k, n), a
    row is a state of this thread's ``_Rows`` table of that width (see the
    module docstring), so a placement costs one lookup and one store
    per later neighbor, and it stops as soon as the rows it raised exceed
    the bound's slack, undoing only the rows it touched.  Elsewhere a row is
    the list ``[low, count of color 1, ..., count of color width]``,
    updated in place.  Both forms reach the same nodes and leaves in the
    same order and charge the same placements.

    ``drop[i]`` (all 0 when omitted) is a credit at position i; the
    look-ahead bound starts at ``sum(drop)`` and sheds ``drop[i]`` when
    position i is placed.  It stays admissible under this invariant, per
    connected component: a component not yet entered carries exactly its
    minimum, and once it is entered, its credit left at positions >= i
    never exceeds the bad edges that any coloring must put among its
    vertices at those positions, which ``low`` does not count.  A component
    not yet entered has no placed vertex, so its edges are none of those
    ``low`` counts, and under every rule and surjectivity setting its own
    edges still cost at least its minimum with surjectivity off.

    Each valid complete assignment goes to ``leaf(colors, bad, used)`` as
    the search's own list, indexed by vertex, which a leaf must copy to
    keep; it stands for ``math.perm(k, used)`` labeled assignments.  The
    leaf's return value is the new bound; a negative bound cuts every
    remaining branch.

    Each node counts the colors it tries against the room left in ``budget``;
    past it the search charges them all, which raises :class:`SizeLimitError`,
    and otherwise charges them once it ends.

    The DFS goes one Python frame deeper per vertex, so while it runs the
    interpreter's recursion limit is at least n above the limit the first of
    the searches under way in all threads found.  A search only raises the
    limit, and the last one to end restores that first value, so one thread
    never lowers it under another's deeper search.
    """
    n = g.n
    if drop is None:
        drop = [0] * n
    one_class = rule is RuleMode.ONE_CLASS
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    colors = [0] * n
    # A canonical assignment uses at most min(k, n) colors, and past n every
    # row keeps a zero among its first n colors, so wider rows change nothing.
    width = min(k, n)
    adj = g.adj
    spent, room = 0, budget.limit - budget.spent
    # In both kernels ``dirty`` is the one class allowed to hold a bad edge,
    # 0 = none yet, and ``lb`` is the sum of ``low`` over the unplaced vertices.
    rows = _rows(width, adj)
    if rows is not None:
        # st[w]: the state of w's row; later[i]: the neighbors of the vertex
        # at position i that come after it.
        st = [0] * n
        later = [[u for u in adj[v] if pos[u] > i] for i, v in enumerate(order)]
        low, tops, grow = rows.low, rows.tops, rows.grow

        def dfs(i: int, bad: int, used: int, dirty: int, lb: int) -> None:
            nonlocal bound, spent
            if i == n:
                if not surjective or used == k:
                    bound = leaf(colors, bad, used)
                return
            if surjective and k - used > n - i:
                return
            top = used + 1 if used < k else k
            spent += top
            if spent > room:
                budget.charge(spent)
            v = order[i]
            s = st[v]
            rest = lb - low[s] - drop[i]
            ahead = later[i]
            for c, cnt, inc, up, dec in tops[top]:
                conflicts = cnt[s]
                nb = bad + conflicts
                slack = bound - nb - rest
                if slack < 0:
                    continue
                nd = dirty
                if conflicts and one_class:
                    if dirty and dirty != c:
                        continue
                    nd = c
                raised = 0
                for w in ahead:
                    y = inc[st[w]]
                    if y < 0:
                        y = grow(c, st[w])
                    st[w] = y
                    if up[y]:
                        raised += 1
                        if raised > slack:
                            break
                else:
                    colors[v] = c
                    dfs(i + 1, nb, used + (c > used), nd, rest + raised)
                    for w in ahead:
                        st[w] = dec[st[w]]
                    continue
                # Cut at row w: undo the rows up to it.
                for u in ahead:
                    st[u] = dec[st[u]]
                    if u == w:
                        break

    else:
        # cnt[w] = [least count, placed neighbors of w with color 1, ..., width].
        # Nothing writes the row of a vertex without neighbors, so they share one.
        isolated = [0] * (width + 1)
        cnt = [[0] * (width + 1) if a else isolated for a in adj]
        later = [[cnt[u] for u in adj[v] if pos[u] > i] for i, v in enumerate(order)]

        def dfs(i: int, bad: int, used: int, dirty: int, lb: int) -> None:
            nonlocal bound, spent
            if i == n:
                if not surjective or used == k:
                    bound = leaf(colors, bad, used)
                return
            if surjective and k - used > n - i:
                return
            top = used + 1 if used < k else k
            spent += top
            if spent > room:
                budget.charge(spent)
            v = order[i]
            row = cnt[v]
            rest = lb - row[0] - drop[i]
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
                for r in ahead:
                    x = r[c]
                    r[c] = x + 1
                    if x == r[0] and r.count(x) == 1:
                        r[0] = x + 1
                        raised += 1
                if nb + rest + raised <= bound:
                    colors[v] = c
                    dfs(i + 1, nb, used + (c > used), nd, rest + raised)
                for r in ahead:
                    x = r[c] - 1
                    r[c] = x
                    if x < r[0]:
                        r[0] = x

    with _stack_lock:
        if not _stack[0]:
            _stack[1] = sys.getrecursionlimit()
        _stack[0] += 1
        sys.setrecursionlimit(max(sys.getrecursionlimit(), _stack[1] + n))
    try:
        dfs(0, 0, 0, 0, sum(drop))
    finally:
        with _stack_lock:
            _stack[0] -= 1
            if not _stack[0]:
                sys.setrecursionlimit(_stack[1])
    budget.charge(spent)


def _degree_order(g: Graph) -> list[int]:
    adj = g.adj
    return sorted(range(g.n), key=lambda v: -len(adj[v]))  # stable: ties keep index order


def _optimum(
    g: Graph,
    k: int,
    rule: RuleMode,
    surjective: bool,
    budget: _Budget,
    key: Callable[[Graph, list[int], int, int], Hashable] | None = None,
    least: bool = False,
) -> tuple[int, tuple[int, list[tuple[int, dict[Hashable, int]]]] | None, Callable[..., None]]:
    """Proven minimum bad-edge count, the census, and the witness walk.

    Rejects the instance if it is invalid.  Each connected component with an
    edge is searched on its own, relabeled densely, in degree-descending
    order, from the greedy coloring's bad-edge count H (surjectivity off).
    Surjectivity is off there unless g is connected: the sum of the
    component minima is the minimum either way (see the module docstring).
    That search is a ``_census``.  Without ``key`` it is the bound phase,
    from bound H - 1 with no tie, and skipped when H is 0.  With ``key`` it
    is the census, from H with every tie, keyed by ``key(sub, colors, bad,
    used)``.  With ``least`` and no ``key``, where the caller reads only the
    least optimum, on a connected g with H above 0 it is the witness
    census: from H, unrestricted from ``_polish``'s count, keyed by
    ``_relabel``, with tie limit 0 and the walk's clique credit where degree
    order is index order and ``_TIES`` elsewhere; it settles the witness
    unless its last level passed that limit.  All searches draw on
    ``budget``.
    Returns the minimum, the census (None without ``key``) and ``walk``.
    The census is the number of isolated vertices and, per component with
    an edge, its minimum and the count of each key among its canonical
    optima.  ``walk(leaf)``, the caller's step, runs the witness walk over
    all of g in vertex-index order with the minimum of g as a fixed bound
    and each component's minimum as ``drop``, spread by ``_cliques`` from
    its first vertex to its cliques, so every leaf it reaches is optimal;
    ``leaf`` returns that bound to go on, or -1 to stop.  Where the witness
    census settled the witness, ``walk`` hands it to ``leaf`` once instead.
    ``walk`` runs at most once: ``_cliques`` uses up ``drop``.
    """
    _check_instance(g, k, surjective)
    parts = g.components()
    drop = [0] * g.n
    tallies: list[tuple[int, dict[Hashable, int]]] = []
    whole = surjective and len(parts) == 1
    for part, sub in _split(g, parts):
        order = _degree_order(sub)
        found, colors, tab = _greedy(sub, k, rule, False, order)
        if key is not None:
            found, seen = _census(sub, k, rule, whole, order, found, budget, functools.partial(key, sub), math.inf)
            tallies.append((found, seen))
        elif least and found and len(parts) == 1:
            if rule is RuleMode.UNRESTRICTED:
                found = _polish(g, colors, tab, found)
            index = order == list(range(g.n))
            credit = None
            # In the walk's own order the walk's clique credit holds too, the
            # seed standing in for the minimum at the first vertex, which
            # sheds it before any cut.
            if index:
                credit = [found] + [0] * (g.n - 1)
                _cliques(g, k, parts, credit)
            found, seen = _census(g, k, rule, surjective, order, found, budget, _relabel, 0 if index else _TIES, credit)
            if index or len(seen) <= _TIES:
                witness = min(seen)
                return found, None, lambda leaf: leaf(list(witness), found, max(witness))
        elif found:
            found = _census(sub, k, rule, whole, order, found - 1, budget)[0]
        drop[part[0]] = found
    best = sum(drop)

    def walk(leaf: Callable[[list[int], int, int], int]) -> None:
        if best:
            _cliques(g, k, parts, drop)
        _search(g, k, rule, surjective, range(g.n), best, leaf, budget, drop)

    return best, None if key is None else (len(parts) - len(tallies), tallies), walk


def _census(
    g: Graph,
    k: int,
    rule: RuleMode,
    surjective: bool,
    order: Sequence[int],
    bound: int,
    budget: _Budget,
    key: Callable[[list[int], int, int], Hashable] | None = None,
    ties: int | float = 0,
    drop: Sequence[int] | None = None,
) -> tuple[int, dict[Hashable, int]]:
    """``_search`` from ``bound`` under the one rule of every component
    search (see the module docstring): a leaf below the incumbent lowers it
    and clears the record, every leaf adds ``key(colors, bad, used)``, or
    None without ``key``, to the record, and the leaf's level stays the
    bound while the record holds at most ``ties`` keys; past that the bound
    drops to one below it.

    Returns the incumbent, ``bound + 1`` if no leaf was reached, and the
    record, the count of each key among the incumbent's leaves.  Where the
    last level passed ``ties`` keys, the record holds its first ``ties + 1``
    leaves only.  ``drop`` is ``_search``'s credit."""
    found, seen = bound + 1, {}

    def leaf(colors: list[int], bad: int, used: int) -> int:
        nonlocal found
        if bad < found:
            found = bad
            seen.clear()
        name = None if key is None else key(colors, bad, used)
        seen[name] = seen.get(name, 0) + 1
        return bad if len(seen) <= ties else bad - 1

    _search(g, k, rule, surjective, order, bound, leaf, budget, drop)
    return found, seen


def _relabel(colors: list[int], bad: int, used: int) -> tuple[int, ...]:
    """The witness census's key: ``colors`` with its colors renamed by first
    appearance in vertex-index order, the least member of its renaming class
    (the lex-leader; Crawford, Ginsberg, Luks and Roy, KR 1996)."""
    names: dict[int, int] = {}
    return tuple([names.setdefault(c, len(names) + 1) for c in colors])


def _cliques(g: Graph, k: int, parts: list[list[int]], drop: list[int]) -> None:
    """Credit the ``drop`` of the witness walk, or of a witness census in
    index order, with edge-disjoint (k + 1)-cliques.

    In each component with a positive minimum, at each vertex v from its
    last down to the one after its first, packs cliques greedily in the
    edges not yet used: starting from v, it picks the lowest vertex above v
    that unused edges join to every vertex picked so far, until k + 1 are
    picked or none is left.  Each clique found at v moves one unit of the
    component's minimum from its first vertex to v (see the module
    docstring).  Each clique holds a bad edge of every k-coloring, so the
    packing never outnumbers the minimum; it stops once the first vertex
    has no unit left.  A clique at v only uses edges above v, so each try
    at v starts from the next of v's upper neighbors, and the work stays
    within a set intersection per pick, as in triangle listing.
    """
    # up[v]: the neighbors above v still joined to v by an unused edge
    up: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        up[u].add(v)
    for part in parts:
        f = part[0]
        for v in part[:0:-1]:
            if not drop[f]:
                break
            above = up[v]
            for first in sorted(above):
                if first not in above:
                    continue
                clique, cand = [v, first], above & up[first]
                while cand and len(clique) <= k:
                    u = min(cand)
                    clique.append(u)
                    cand &= up[u]
                if len(clique) <= k:
                    break
                for i, u in enumerate(clique):
                    up[u].difference_update(clique[i + 1 :])
                drop[f] -= 1
                drop[v] += 1
                if not drop[f]:
                    break


def _count(g: Graph, k: int, rule: RuleMode, surjective: bool, budget: _Budget) -> tuple[int, int, Callable[..., None]]:
    """The minimum, the labeled optima and ``_optimum``'s ``walk``: each
    component's census tallies its canonical optima by the colors they use,
    combined by inclusion-exclusion (see the module docstring)."""
    _check_instance(g, k, surjective)
    if surjective:
        _Budget(budget.limit).charge(k * g.n)
    best, (isolated, census), walk = _optimum(g, k, rule, surjective, budget, lambda sub, colors, bad, used: used)
    # Under the one-class rule the dirty components share one color (see the module docstring).
    dirty = sum(found > 0 for found, _ in census)
    shared = max(dirty - 1, 0) if rule is RuleMode.ONE_CLASS else 0

    def within(s: int) -> int:  # the labeled optima whose colors lie in a fixed set of s colors
        optima = (sum(a * math.perm(s, j) for j, a in seen.items()) for _, seen in census)
        return s**isolated * math.prod(optima) // s**shared

    if not surjective:
        return best, within(k), walk
    return best, sum((-1) ** (k - s) * math.comb(k, s) * within(s) for s in range(1, k + 1)), walk


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
    ones needed; the first starts at k = 2, since an edge rules out k = 1.
    Every search draws on one default work budget; past it the search raises
    :class:`SizeLimitError`.
    """
    if g.n < 1:
        raise InvalidParameterError("chromatic number needs at least one vertex")
    return _chromatic(g, _Budget())


def _chromatic(g: Graph, budget: _Budget) -> int:
    """``chromatic_number`` on ``budget``; a graph with an edge starts at k = 2."""
    k = 2 if g.m else 1  # one color never colors an edge properly
    for _, sub in _split(g, g.components()):
        order = _degree_order(sub)
        while _census(sub, k, RuleMode.UNRESTRICTED, False, order, 0, budget)[0]:
            k += 1
    return k


def solve(
    g: Graph,
    k: int,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    surjective: bool = True,
    *,
    work_budget: int = DEFAULT_WORK_BUDGET,
    count_optimal: bool = False,
) -> SolveResult:
    """Branch-and-bound minimization; agrees with :func:`enumerate_oracle` exactly.

    ``work_budget`` bounds the candidate placements of the whole call;
    instances beyond it raise :class:`SizeLimitError` rather than degrading
    to a heuristic (use :func:`greedy_heuristic` explicitly for those).
    With ``count_optimal`` the result also carries the count of optima.
    """
    return _solve(g, k, RuleMode(rule), surjective, _Budget(work_budget), count_optimal)


def _solve(g: Graph, k: int, rule: RuleMode, surjective: bool, budget: _Budget, count: bool = False) -> SolveResult:
    """``solve`` on ``budget``."""
    witness: list[tuple[int, ...]] = []

    def first(colors: list[int], bad: int, used: int) -> int:
        witness.append(tuple(colors))
        return -1

    if count:
        best, optimal_count, walk = _count(g, k, rule, surjective, budget)
    else:
        best, _, walk = _optimum(g, k, rule, surjective, budget, least=True)
        optimal_count = None
    walk(first)
    return SolveResult(best, Coloring(witness[0], k), rule, surjective, optimal_count)


def count_optimal(
    g: Graph,
    k: int,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    surjective: bool = True,
) -> int:
    """Number of distinct labeled valid colorings achieving the minimum.

    Runs each component's census on the default work budget, but no
    witness walk: nothing reads the witness.
    """
    return _count(g, k, RuleMode(rule), surjective, _Budget())[1]


def optimal_colorings(
    g: Graph,
    k: int,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    surjective: bool = True,
) -> Iterator[Coloring]:
    """All optimal colorings in lexicographic assignment order.

    Each canonical optimum from the witness walk is expanded into its
    labeled copies, one per injective renaming of its colors into ``1..k``,
    before the first coloring is yielded.  First ``count_optimal``'s census
    proves the minimum and counts the labeled optima, on the walk's default
    work budget; more optima than that budget raise :class:`SizeLimitError`
    before the walk starts, so the expansion stays within it too.
    """
    rule = RuleMode(rule)
    budget = _Budget()
    _, count, walk = _count(g, k, rule, surjective, budget)
    _Budget(budget.limit).charge(count)
    optima: list[tuple[int, ...]] = []

    def collect(colors: list[int], bad: int, used: int) -> int:
        for names in itertools.permutations(range(1, k + 1), used):
            optima.append(tuple(names[c - 1] for c in colors))
        return bad

    walk(collect)
    optima.sort()
    for assign in optima:
        yield Coloring(assign, k)


def _minimum(g: Graph, k: int, rule: RuleMode) -> int:
    """Minimum bad-edge count, surjective exactly when k <= n, on the default
    work budget; no witness walk runs, since nothing reads the witness."""
    return _optimum(g, k, rule, k <= g.n, _Budget())[0]


def _class_sizes(g: Graph, k: int, rule: RuleMode) -> tuple[int, set[tuple[int, ...]]]:
    """Minimum bad-edge count and the ascending class sizes (0 for an unused
    color) of every optimal coloring, surjective exactly when k <= n.

    Each component's census records its canonical optima by class sizes per
    canonical color and, under the one-class rule, dirty color.  A connected
    g with an edge gives its sizes directly.  Otherwise the components, an
    isolated vertex being one class of size 1, are merged one at a time over
    the namings of their colors (``_name``), the dirty classes on one shared
    color, and with k <= n the merges with an empty class are dropped.  The
    merged states are charged to the default work budget.
    """
    surjective = k <= g.n
    one_class = rule is RuleMode.ONE_CLASS

    def profile(sub: Graph, colors: list[int], bad: int, used: int) -> tuple[tuple[int, ...], int]:
        sizes = [0] * used
        for c in colors:
            sizes[c - 1] += 1
        dirty = next(colors[u] for u, v in sub.edges if colors[u] == colors[v]) if bad and one_class else 0
        return tuple(sizes), dirty

    budget = _Budget()
    best, (isolated, census), _ = _optimum(g, k, rule, surjective, budget, profile)
    if len(census) == 1 and not isolated:
        return best, {tuple(sorted(sizes + (0,) * (k - len(sizes)))) for sizes, _ in census[0][1]}
    states = {((0, False),) * k}
    for options in [seen for _, seen in census] + [[((1,), 0)]] * isolated:
        merged = set()
        for state in states:
            for sizes, dirty in options:
                named = _name(state, sizes, dirty)
                budget.charge(len(named))
                merged |= named
        states = merged
    profiles = {tuple(size for size, _ in state) for state in states}
    return best, {p for p in profiles if not surjective or p[0]}


def _name(state: tuple[tuple[int, bool], ...], sizes: tuple[int, ...], dirty: int) -> set[tuple[tuple[int, bool], ...]]:
    """The states ``state`` becomes when a component whose optimum has class
    ``sizes`` and dirty class ``dirty`` (0: none) by canonical color joins
    it, over the injective namings of its colors.  A state gives each color
    its (size, dirty) pair, sorted, so it stands for every renaming of its
    colors, and free colors with equal pairs are interchangeable.  The
    component's dirty class must take the state's dirty color, if any."""
    shared = dirty and any(d for _, d in state)
    partial = {(state, ())}  # (the colors still free, the colors named so far), each sorted
    for c, size in enumerate(sizes, 1):
        partial = {
            (free[:i] + free[i + 1:], tuple(sorted(taken + ((old + size, d or c == dirty),))))
            for free, taken in partial
            for i, (old, d) in enumerate(free)
            if not (i and free[i - 1] == free[i]) and (d or c != dirty or not shared)
        }
    return {tuple(sorted(free + taken)) for free, taken in partial}


def bad_edge_vertex_cover(g: Graph, coloring: Coloring) -> tuple[int, ...]:
    """Minimum vertex cover of the bad-edge subgraph, exactly.

    Searches subsets in order of size and then lexicographically, so ties
    break to the lexicographically smallest vertex set.  Each subset tested
    is charged its number of bad edges to the default work budget; past it
    the scan raises :class:`SizeLimitError`.  The scan grows as
    2^(bad-edge endpoints).
    """
    return _cover(bad_edges(g, coloring).edges, _Budget())


def _cover(bad: tuple[Edge, ...], budget: _Budget) -> tuple[int, ...]:
    """``bad_edge_vertex_cover`` of the edges ``bad`` on ``budget``."""
    if not bad:
        return ()
    verts = sorted({x for e in bad for x in e})
    for size in range(1, len(verts) + 1):
        for subset in itertools.combinations(verts, size):
            budget.charge(len(bad))
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in bad):
                return subset
    return tuple(verts)  # pragma: no cover - all endpoints always cover


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
    budget = _Budget()
    result = _solve(g, k, rule, True, budget)
    # For k <= n, some surjective k-coloring is proper exactly when k >= chi.
    if result.min_bad == 0:
        raise InvalidParameterError(f"k must stay below the chromatic number, got {_excerpt(k)}")
    cover = _cover(bad_edges(g, result.witness).edges, budget)
    removed = set(cover)
    sub, kept = g.induced_subgraph(v for v in range(g.n) if v not in removed)
    chi_sub = _chromatic(sub, budget)
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
    passes of first-improvement moves in index order.  A table of each
    vertex's neighbors per color, updated in O(deg v) per move, makes the
    construction cost O(k * n + m) and a pass O(k * n) plus O(deg v) per
    move; at most ``GREEDY_MAX_ROUNDS`` passes run, and the result is
    deterministic.
    """
    rule = RuleMode(rule)
    _check_instance(g, k, surjective)
    bad, colors, _ = _greedy(g, k, rule, surjective, _degree_order(g))
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
) -> tuple[int, list[int], list[list[int]]]:
    """``greedy_heuristic``'s (bad edges, colors) on a checked instance,
    coloring in ``order``, and its table of each vertex's neighbors per color."""
    # A vertex has fewer than n neighbors, so a color in 1..n is free for it
    # and no color above n is ever its first least or first improving choice.
    k = min(k, g.n)
    one_class = rule is RuleMode.ONE_CLASS
    adj = g.adj
    colors = [0] * g.n
    sizes = [g.n] + [0] * k  # class 0 holds the vertices not yet colored
    # tab[v][c]: the neighbors of v with color c, slot 0 for those not yet
    # colored.  No move writes an isolated vertex's row, so they share one.
    isolated = [0] * (k + 1)
    tab = [[len(a)] + [0] * k if a else isolated for a in adj]
    current = 0

    def move(v: int, c: int) -> None:
        old = colors[v]
        sizes[old] -= 1
        sizes[c] += 1
        colors[v] = c
        for u in adj[v]:
            row = tab[u]
            row[old] -= 1
            row[c] += 1

    dirty = 0  # the one class allowed to contain adjacencies; 0 = none yet
    for v in order:
        row = tab[v]
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
            row = tab[v]
            # No move lowers the count of a vertex that meets no neighbor of its color.
            if not row[old] or surjective and sizes[old] == 1:
                continue
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
    return current, colors, tab


def _polish(g: Graph, colors: list[int], tab: list[list[int]], bad: int) -> int:
    """Lower the bad edges of ``colors``, with ``bad`` bad edges, by a short
    tabu descent (TabuCol; Hertz and de Werra, Computing 1987) under the
    unrestricted rule; leave the best coloring met in ``colors`` and return
    its bad edges.  ``tab`` is ``_greedy``'s table for ``colors``; its width
    bounds the colors, and the moves change it, so it is spent afterwards.

    Only a vertex that meets a neighbor of its own color moves: each step
    scans the vertices and skips those whose row in ``tab`` shows none, and
    takes the move that leaves the fewest bad edges, the least vertex and
    color on a tie.  A vertex may not take back a color it left for
    ``_TENURE`` moves unless that beats the best, and the descent stops
    after ``_STALE`` moves without a new best, so it makes at most
    ``_STALE`` moves per bad edge it removes, and ``_STALE`` more.
    Surjectivity is not kept.
    """
    adj = g.adj
    palette = range(1, len(tab[0]))
    none = g.m + 1  # above every move's bad edges
    until: dict[tuple[int, int], int] = {}  # (v, c): the last step at which v may not take c back
    best, kept, step, stale = bad, colors[:], 0, 0
    while bad and stale < _STALE:
        step += 1
        stale += 1
        top = none
        for v in range(g.n):
            row = tab[v]
            old = colors[v]
            if not row[old]:
                continue
            rest = bad - row[old]
            for c in palette:
                nb = rest + row[c]
                if nb < top and c != old:
                    if nb < best or until.get((v, c), 0) < step:
                        top, w, to = nb, v, c
        if top == none:
            break
        bad, old = top, colors[w]
        until[w, old] = step + _TENURE
        colors[w] = to
        for u in adj[w]:
            row = tab[u]
            row[old] -= 1
            row[to] += 1
        if bad < best:
            best, kept, stale = bad, colors[:], 0
    colors[:] = kept
    return best
