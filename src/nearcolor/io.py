"""Reading and writing graphs.

Canonical edge-list format: the first significant line is ``n m``, followed
by exactly m lines ``u v`` with 0-based endpoints; ``#`` starts a comment.
DIMACS coloring files (``p edge n m`` header, ``e u v`` 1-based lines, ``c``
comments) are accepted on read and converted to 0-based indices.  A header
declaring more than ``MAX_VERTICES`` vertices is rejected.  The writer
always emits the canonical format with edges sorted lexicographically.
"""

from __future__ import annotations

from .coloring import Coloring, _check_fit
from .errors import GraphFormatError, _excerpt
from .graph import Edge, Graph

# Largest vertex count a graph file may declare, checked before any vertex is built.
MAX_VERTICES = 10**6


def _significant_lines(text: str, comment_prefix: str) -> list[tuple[int, str]]:
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(comment_prefix):
            continue
        out.append((line_no, stripped))
    return out


def _parse_int_pair(parts: list[str], line_no: int, what: str) -> tuple[int, int]:
    # A token longer than CPython's default int/str limit (4300 digits) is
    # refused unread, as that limit refuses it: the CLI lifts the limit, and
    # int() takes quadratic time in the digits.
    try:
        if len(parts) == 2 and max(map(len, parts)) <= 4300:
            return int(parts[0]), int(parts[1])
    except ValueError:
        pass
    raise GraphFormatError(f"expected two integers for {what}, got {_excerpt(' '.join(parts))}", line_no)


def _check_counts(n: int, m: int, line_no: int) -> None:
    if n < 0 or m < 0:
        raise GraphFormatError("vertex and edge counts must be non-negative", line_no)
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {_excerpt(n)} exceeds the limit of {MAX_VERTICES}", line_no)


def _collect_edges(
    pairs: list[tuple[int, int, int]], n: int, one_based: bool
) -> list[Edge]:
    """Validate (line_no, u, v) pairs and return 0-based normalized edges.

    Error messages name the endpoints as the file wrote them.
    """
    lo, hi = (1, n) if one_based else (0, n - 1)
    seen: set[Edge] = set()
    edges: list[Edge] = []
    for line_no, u, v in pairs:
        if not (lo <= u <= hi and lo <= v <= hi):
            raise GraphFormatError(
                f"endpoint out of range {lo}..{hi} in edge {_excerpt(u)} {_excerpt(v)}", line_no
            )
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", line_no)
        e = (min(u, v) - lo, max(u, v) - lo)
        if e in seen:
            raise GraphFormatError(f"duplicate edge {u} {v}", line_no)
        seen.add(e)
        edges.append(e)
    return edges


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical ``n m`` / ``u v`` edge-list format."""
    lines = _significant_lines(text, "#")
    if not lines:
        raise GraphFormatError("empty graph file")
    header_no, header = lines[0]
    n, m = _parse_int_pair(header.split(), header_no, "header 'n m'")
    _check_counts(n, m, header_no)
    body = lines[1:]
    if len(body) != m:
        raise GraphFormatError(
            f"header declares {_excerpt(m)} edges but file contains {len(body)} edge lines",
            header_no,
        )
    pairs = []
    for line_no, line in body:
        u, v = _parse_int_pair(line.split(), line_no, "edge 'u v'")
        pairs.append((line_no, u, v))
    return Graph(n, tuple(_collect_edges(pairs, n, one_based=False)))


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS coloring format (``p edge n m``, ``e u v`` 1-based)."""
    lines = _significant_lines(text, "c")
    if not lines:
        raise GraphFormatError("empty graph file")
    header_no, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "p" or parts[1] != "edge":
        raise GraphFormatError(f"expected header 'p edge n m', got {_excerpt(header)}", header_no)
    n, m = _parse_int_pair(parts[2:], header_no, "header 'p edge n m'")
    _check_counts(n, m, header_no)
    pairs = []
    for line_no, line in lines[1:]:
        parts = line.split()
        if parts[0] != "e":
            raise GraphFormatError(f"unexpected line type {_excerpt(parts[0])}", line_no)
        u, v = _parse_int_pair(parts[1:], line_no, "edge 'e u v'")
        pairs.append((line_no, u, v))
    if len(pairs) != m:
        raise GraphFormatError(
            f"header declares {_excerpt(m)} edges but file contains {len(pairs)} edge lines",
            header_no,
        )
    return Graph(n, tuple(_collect_edges(pairs, n, one_based=True)))


def parse_graph(text: str) -> Graph:
    """Parse either supported format, detected from the first non-empty line."""
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped[0] in "pc":
            return parse_dimacs(text)
        return parse_edge_list(text)
    raise GraphFormatError("empty graph file")


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_edge_list(g: Graph) -> str:
    """Canonical edge-list text: header then lexicographically sorted edges."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def write_dot(g: Graph, coloring: Coloring | None = None) -> str:
    """DOT text for the graph; vertices carry a ``color`` attribute if given."""
    lines = ["graph G {"]
    if coloring is not None:
        _check_fit(g, coloring)
        for v in range(g.n):
            lines.append(f"  {v} [color={coloring.assignment[v]}];")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"

