"""Immutable simple graphs, named family generators, and graph operations.

Vertices are dense integer indices 0..n-1.  Family generators fix a canonical
indexing (hub = 0, rim = 1..n, pendants = n+1..2n) so that optimal-coloring
counts and witnesses are reproducible.  The wheel, the helm and the three
operations also return their roles, a plain dict from a role name (e.g.
``"hub"``, ``"rim[3]"``, ``"H[2]"``) to a vertex index that covers every
vertex exactly once.

Graph values are immutable after construction and safe to share across
concurrent tasks.  This module holds no search: the exact chromatic number
comes from the bad-edge search kernel in :mod:`nearcolor.solver`.
"""

from __future__ import annotations

from typing import Iterable

from ._record import Record
from .errors import InvalidParameterError, _excerpt

Edge = tuple[int, int]
# Largest vertex count a graph may have; graph files and family specs are
# checked against it before any vertex is built.
MAX_VERTICES = 10**6
_NO_NEIGHBORS: frozenset[int] = frozenset()


def _normalized(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def _check_vertex_limit(n: int) -> None:
    if n > MAX_VERTICES:
        raise InvalidParameterError(f"vertex count {_excerpt(n)} exceeds the limit of {MAX_VERTICES}")


def _adjacency(n: int, edges: tuple[Edge, ...]) -> tuple[frozenset[int], ...]:
    # A vertex's first edge gives it a list; isolated vertices share one set.
    adj: list = [None] * n
    for u, v in edges:
        if adj[u] is None:
            adj[u] = [v]
        else:
            adj[u].append(v)
        if adj[v] is None:
            adj[v] = [u]
        else:
            adj[v].append(u)
    for v, a in enumerate(adj):
        adj[v] = _NO_NEIGHBORS if a is None else frozenset(a)
    return tuple(adj)


class Graph(Record):
    """Simple undirected graph with a normalized, lexicographically sorted edge tuple.

    Invariants enforced at construction: at most ``MAX_VERTICES`` vertices,
    no self-loops, no duplicate edges, all endpoints in range.  Adjacency
    sets are derived once and shared; equality, hashing and ``repr`` use
    ``n`` and ``edges`` only.
    """

    __slots__ = ("n", "edges", "adj")
    _fields = ("n", "edges")
    n: int
    edges: tuple[Edge, ...]
    adj: tuple[frozenset[int], ...]

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise InvalidParameterError(f"vertex count must be a non-negative integer, got {_excerpt(n)}")
        _check_vertex_limit(n)
        seen: set[Edge] = set()
        for e in edges:
            u, v = e
            if not (isinstance(u, int) and isinstance(v, int)) or isinstance(u, bool) or isinstance(v, bool):
                raise InvalidParameterError(
                    f"edge endpoints must be integers, got ({_excerpt(u)}, {_excerpt(v)})"
                )
            if u == v:
                raise InvalidParameterError(f"self-loop at vertex {_excerpt(u)}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(
                    f"edge ({_excerpt(u)}, {_excerpt(v)}) out of range for n={_excerpt(n)}"
                )
            e = _normalized(u, v)
            if e in seen:
                raise InvalidParameterError(f"duplicate edge {e!r}")
            seen.add(e)
        edges = tuple(sorted(seen))
        self._set(n=n, edges=edges, adj=_adjacency(n, edges))

    @classmethod
    def _unchecked(cls, n: int, edges: tuple[Edge, ...]) -> "Graph":
        """A graph on ``edges`` that the caller knows to be normalized,
        sorted, distinct and in range, built without ``__init__``'s edge
        checks; only the vertex limit is checked."""
        _check_vertex_limit(n)
        g = object.__new__(cls)
        g._set(n=n, edges=edges, adj=_adjacency(n, edges))
        return g

    @property
    def m(self) -> int:
        """Edge count."""
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def components(self) -> list[list[int]]:
        """Connected components as ascending vertex lists, ordered by smallest vertex.

        One search labels every vertex with its component and one pass over
        the vertices fills the lists, so the cost is O(n + m).
        """
        label = [-1] * self.n
        count = 0
        for s in range(self.n):
            if label[s] < 0:
                label[s] = count
                stack = [s]
                while stack:
                    for u in self.adj[stack.pop()]:
                        if label[u] < 0:
                            label[u] = count
                            stack.append(u)
                count += 1
        parts: list[list[int]] = [[] for _ in range(count)]
        for v, c in enumerate(label):
            parts[c].append(v)
        return parts

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def induced_subgraph(self, keep: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on ``keep`` with vertices relabeled densely.

        Returns ``(subgraph, kept)`` where ``kept[i]`` is the original index
        of the subgraph's vertex ``i``.
        """
        kept = tuple(sorted(set(keep)))
        for v in kept:
            if not 0 <= v < self.n:
                raise InvalidParameterError(f"vertex {_excerpt(v)} out of range")
        index = {v: i for i, v in enumerate(kept)}
        edges = tuple(
            (index[u], index[v]) for u, v in self.edges if u in index and v in index
        )
        return Graph(len(kept), edges), kept


# ---------------------------------------------------------------------------
# Named family generators
# ---------------------------------------------------------------------------

def path(n: int) -> Graph:
    """Path on n >= 2 vertices: 0-1-2-...-(n-1)."""
    if n < 2:
        raise InvalidParameterError(f"a path needs at least 2 vertices, got {_excerpt(n)}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices: 0-1-...-(n-1)-0."""
    if n < 3:
        raise InvalidParameterError(f"a cycle needs at least 3 vertices, got {_excerpt(n)}")
    edges = tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)
    return Graph(n, edges)


def wheel(n: int) -> tuple[Graph, dict[str, int]]:
    """Wheel with an n-cycle rim (n >= 3): hub 0 joined to rim vertices 1..n."""
    if n < 3:
        raise InvalidParameterError(f"a wheel rim needs at least 3 vertices, got {_excerpt(n)}")
    edges = [(0, i) for i in range(1, n + 1)]
    edges += [(i, i + 1) for i in range(1, n)]
    edges.append((1, n))
    roles = {"hub": 0}
    roles.update({f"rim[{i}]": i for i in range(1, n + 1)})
    return Graph(n + 1, tuple(edges)), roles


def helm(n: int) -> tuple[Graph, dict[str, int]]:
    """Helm: wheel with rim size n plus one pendant per rim vertex.

    Pendant of rim vertex i sits at index n + i.
    """
    base, roles = wheel(n)
    edges = list(base.edges)
    edges += [(i, n + i) for i in range(1, n + 1)]
    roles.update({f"pendant[{i}]": n + i for i in range(1, n + 1)})
    return Graph(2 * n + 1, tuple(edges)), roles


def complete(n: int) -> Graph:
    """Complete graph on n >= 1 vertices."""
    if n < 1:
        raise InvalidParameterError(f"a complete graph needs at least 1 vertex, got {_excerpt(n)}")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


# ---------------------------------------------------------------------------
# Graph operations
# ---------------------------------------------------------------------------

def _sides(g: Graph, h: Graph) -> dict[str, int]:
    """The roles of g's vertices, kept, and of h's, shifted by n_g."""
    roles = {f"G[{i}]": i for i in range(g.n)}
    roles.update({f"H[{j}]": g.n + j for j in range(h.n)})
    return roles


def disjoint_union(g: Graph, h: Graph) -> tuple[Graph, dict[str, int]]:
    """Vertex-disjoint union; g keeps indices 0..n_g-1, h is shifted by n_g."""
    # h's shifted edges all sort after g's, so the concatenation stays sorted.
    edges = g.edges + tuple((u + g.n, v + g.n) for u, v in h.edges)
    return Graph._unchecked(g.n + h.n, edges), _sides(g, h)


def join(g: Graph, h: Graph) -> tuple[Graph, dict[str, int]]:
    """Disjoint union plus every edge between the two sides."""
    edges = list(g.edges)
    edges += [(u + g.n, v + g.n) for u, v in h.edges]
    edges += [(u, g.n + v) for u in range(g.n) for v in range(h.n)]
    return Graph._unchecked(g.n + h.n, tuple(sorted(edges))), _sides(g, h)


def corona(g: Graph, h: Graph) -> tuple[Graph, dict[str, int]]:
    """Corona: one private copy of h per vertex of g, joined to that vertex.

    Base vertices keep indices 0..n_g-1; copy i occupies the block
    n_g + i*n_h .. n_g + (i+1)*n_h - 1.
    """
    edges = list(g.edges)
    roles = {f"G[{i}]": i for i in range(g.n)}
    for i in range(g.n):
        offset = g.n + i * h.n
        edges += [(offset + u, offset + v) for u, v in h.edges]
        edges += [(i, offset + u) for u in range(h.n)]
        roles.update({f"H[{i}][{j}]": offset + j for j in range(h.n)})
    return Graph._unchecked(g.n + g.n * h.n, tuple(sorted(edges))), roles
