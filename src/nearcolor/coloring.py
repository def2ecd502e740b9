"""Coloring semantics: bad edges, class-adjacency rules, and validity.

A *bad edge* is an edge whose endpoints carry the same color.  All operations
here are pure functions over immutable inputs and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import InvalidColoringError, InvalidParameterError
from .graph import Edge, Graph


class RuleMode(Enum):
    """Which colorings count as admissible candidates during minimization.

    ONE_CLASS: at most one color class may contain adjacent vertices.
    UNRESTRICTED: every assignment competes; only the bad-edge count matters.
    """

    ONE_CLASS = "one-class"
    UNRESTRICTED = "unrestricted"


@dataclass(frozen=True)
class Coloring:
    """Total assignment of colors 1..k to vertices 0..n-1."""

    assignment: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if not isinstance(self.k, int) or self.k < 1:
            raise InvalidParameterError(f"color count must be a positive integer, got {self.k!r}")
        for i, c in enumerate(self.assignment):
            if not isinstance(c, int) or not 1 <= c <= self.k:
                raise InvalidColoringError(f"vertex {i} has color {c!r}, expected 1..{self.k}")

    @property
    def n(self) -> int:
        return len(self.assignment)

    def used_colors(self) -> frozenset[int]:
        return frozenset(self.assignment)

    def is_surjective(self) -> bool:
        """True when every color 1..k appears at least once."""
        return len(self.used_colors()) == self.k


class BadEdges(NamedTuple):
    count: int
    edges: tuple[Edge, ...]


def _check_fit(g: Graph, coloring: Coloring) -> None:
    if coloring.n != g.n:
        raise InvalidColoringError(
            f"coloring has {coloring.n} entries for a graph on {g.n} vertices"
        )


def bad_edges(g: Graph, coloring: Coloring) -> BadEdges:
    """All edges whose endpoints share a color, with their count."""
    _check_fit(g, coloring)
    a = coloring.assignment
    hits = tuple(e for e in g.edges if a[e[0]] == a[e[1]])
    return BadEdges(len(hits), hits)


def adjacent_class_count(g: Graph, coloring: Coloring) -> int:
    """Number of color classes whose induced subgraph contains at least one edge."""
    _check_fit(g, coloring)
    a = coloring.assignment
    return len({a[u] for u, v in g.edges if a[u] == a[v]})


def is_valid(
    g: Graph,
    coloring: Coloring,
    rule: RuleMode | str = RuleMode.ONE_CLASS,
    surjective: bool = True,
) -> bool:
    """Whether ``coloring`` is an admissible candidate under ``rule``.

    Color entries are range-checked at construction, so only surjectivity and
    the one-class rule are tested here; semantic violations return False.  A
    length mismatch is a structural error and raises.
    """
    _check_fit(g, coloring)
    rule = RuleMode(rule)
    if surjective and not coloring.is_surjective():
        return False
    if rule is RuleMode.ONE_CLASS and adjacent_class_count(g, coloring) > 1:
        return False
    return True
